"""Ott-Krishnan separable shadow-price routing (the paper's comparator).

Ott & Krishnan [34] route state-dependently by *shadow prices*: the expected
increase in future lost calls caused by accepting a call on a path, in a
given network state.  Under their separability assumption the path price is
the sum of per-link prices, each computed from the link's own M/M/C/C
occupancy chain under the base (state-independent) policy.  A call is routed
on the cheapest candidate path unless even that price exceeds the call's
revenue (normalized to one), in which case it is blocked.

Per the paper's Section 4.2 we use the *unreduced* primary load intensities
as each link's offered rate ("In their work they use a reduced-load
approximation ... Here we have simply chosen to use the unreduced primary
load intensities").  The per-link price of accepting at occupancy ``s`` is
exact for the M/M/C/C chain::

    p(s) = nu * B(nu, C) * E[tau_{s -> s+1}]

the same first-passage argument as the paper's Equation 3 (which the paper
itself attributes to Ott & Krishnan).  The paper finds this scheme performs
poorly on the sparse NSFNet because the separable approximation "swings more
wildly when the network is sparse".
"""

from __future__ import annotations

import numpy as np

from ..core.markov import link_chain
from ..topology.graph import Network
from ..topology.paths import PathTable
from .base import RoutingPolicy, compile_route_choices

__all__ = ["OttKrishnanRouting", "link_shadow_prices"]


def link_shadow_prices(primary_rate: float, capacity: int) -> np.ndarray:
    """Shadow-price table ``p(s)``, ``s = 0 .. capacity``; ``p(C) = inf``.

    ``p(s)`` is the expected number of future primary calls lost because one
    extra call was accepted at occupancy ``s`` on an M/M/C/C link offered
    ``primary_rate`` Erlangs.  A link with no primary demand prices at zero
    (nothing to displace); a full link prices at infinity.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    prices = np.empty(capacity + 1, dtype=float)
    prices[capacity] = np.inf
    if primary_rate <= 0.0:
        prices[:capacity] = 0.0
        return prices
    chain = link_chain(primary_rate, capacity)
    blocking = chain.time_blocking()
    tau = chain.upward_passage_times()
    prices[:capacity] = primary_rate * blocking * tau
    return prices


class OttKrishnanRouting(RoutingPolicy):
    """Separable shadow-price routing over the loop-free path pool.

    ``primary_loads`` feeds each link's price table (unreduced intensities).
    The candidate paths per O-D pair are the same pool the alternate-routing
    policies use (primary first, then increasing length), but the scheme has
    no primary/alternate asymmetry: it simply takes the cheapest path, with
    the min-hop primary winning ties through evaluation order.
    """

    name = "ott-krishnan"
    discipline = "shadow"

    def __init__(
        self,
        network: Network,
        table: PathTable,
        primary_loads: np.ndarray,
        revenue: float = 1.0,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, splits=None
        )
        super().__init__(network, choices, cum_probs)
        loads = self._link_loads(primary_loads)
        if revenue <= 0:
            raise ValueError("revenue must be positive")
        self.revenue = float(revenue)
        self.primary_loads = loads
        capacities = network.capacities()
        self.price_tables = [
            link_shadow_prices(loads[link.index], int(capacities[link.index]))
            if capacities[link.index] > 0
            else np.array([np.inf])
            for link in network.links
        ]
