"""Least-busy-alternative routing with trunk reservation (Mitra-Gibbens family).

The paper's Section 3.2 compares its protection levels against Mitra &
Gibbens' optimal trunk reservations for *state-dependent* alternate
selection on symmetric fully-connected networks [28, 29]: when the direct
path blocks, the call takes the **least busy** qualifying alternate — the
one maximizing the minimum free capacity over its links — rather than the
shortest, subject to the same reservation rule.  (Dynamic Alternate Routing
and ALBA are operational variants of the same idea.)

This policy generalizes that family to our general-mesh setting: candidates
are the pair's loop-free alternates; an alternate qualifies when every link
sits below its protection threshold; among qualifiers the one with the
largest bottleneck headroom *relative to its threshold* wins, with path
length (then order) breaking ties — so on a fully-connected network with
two-hop alternates this is exactly LBA with trunk reservation.

Requires global state at decision time (the paper's stated reason for NOT
adopting such schemes on geographically distributed meshes); it exists here
as the literature baseline.
"""

from __future__ import annotations

import numpy as np

from ..core.protection import min_protection_levels
from ..topology.graph import Network
from ..topology.paths import PathTable
from .base import RoutingPolicy, compile_route_choices

__all__ = ["LeastBusyAlternateRouting"]


class LeastBusyAlternateRouting(RoutingPolicy):
    """State-dependent alternate *selection* under state protection.

    ``primary_loads`` and ``max_hops`` size the per-link reservation exactly
    as for :class:`ControlledAlternateRouting`; ``reservation_override``
    takes precedence when given (e.g. the Mitra-Gibbens optimal values).
    """

    name = "least-busy"
    discipline = "least-busy"

    def __init__(
        self,
        network: Network,
        table: PathTable,
        primary_loads: np.ndarray,
        max_hops: int | None = None,
        reservation_override: np.ndarray | None = None,
        max_alternates: int | None = None,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, max_alternates=max_alternates
        )
        super().__init__(network, choices, cum_probs)
        loads = self._link_loads(primary_loads)
        hops = table.max_hops if max_hops is None else max_hops
        capacities = network.capacities()
        if reservation_override is not None:
            levels = np.asarray(reservation_override, dtype=np.int64)
            if levels.shape != (network.num_links,):
                raise ValueError("reservation_override must be per-link")
            if (levels < 0).any() or (levels > capacities).any():
                raise ValueError("reservations must lie in [0, capacity]")
        else:
            levels = min_protection_levels(loads, capacities, hops)
        self.max_hops = hops
        self.primary_loads = loads
        self.protection_levels = levels
        self.alt_thresholds = capacities - levels
