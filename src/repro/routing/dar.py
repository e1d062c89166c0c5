"""Random alternate selection: DAR (sticky) and power-of-d choices.

Two alternate-selection disciplines from the dynamic-routing literature, the
building blocks of the metastability / balanced-allocation study (ROADMAP;
Olesker-Taylor 2020, Luczak–McDiarmid):

* **DAR** (dynamic alternative routing) — each O-D pair remembers one
  *sticky* alternate.  A call that fails its primary tries only that
  alternate; if the alternate is infeasible too the call is lost **and** the
  pair resamples a new sticky alternate uniformly at random.  Success keeps
  the sticky choice.
* **power-of-d** — each failing call samples ``d`` alternates uniformly at
  random (with replacement) and takes the feasible one with the largest
  bottleneck headroom ``min(threshold - occupancy)``; ties go to the earliest
  draw.  ``d = 1`` is purely random alternate selection; ``d = 2`` is the
  classic two-choices rule.

Both run under the paper's state-protection thresholds: alternates need
occupancy strictly below ``C - r`` on every link, with ``r`` either a fixed
trunk reservation or the Theorem-1 level for the link's primary load.  With
``trunk_reservation=0`` the schemes are *uncontrolled* — exactly the regime
whose metastable bad mode the paper's control suppresses.

Randomness comes from the per-trace ``substream(seed, "dar")`` stream,
materialized by :meth:`route_draws` as **one row per call of the trace** and
consumed positionally by absolute call index.  The scalar event loop and the
lockstep batch kernel therefore see exactly the same draws, which is what
makes their equivalence bit-exact, and adding this consumer perturbs no
existing stream.
"""

from __future__ import annotations

import numpy as np

from ..core.protection import min_protection_levels
from ..sim.rng import substream
from ..topology.graph import Network
from ..topology.paths import PathTable
from .base import RoutingPolicy, compile_route_choices

__all__ = ["DynamicAlternateRouting", "PowerOfDAlternateRouting"]


class _RandomAlternatePolicy(RoutingPolicy):
    """Shared threshold setup for the random alternate-selection schemes.

    Thresholds come from one of two sources: a fixed ``trunk_reservation``
    (scalar or per-link, default 0 = uncontrolled), or Theorem-1 levels
    computed from ``primary_loads`` (+ ``max_hops``) via the batch protection
    entry point — pass one or the other, not both.  Splits are deliberately
    unsupported: each pair keeps a single route choice, so the random draw
    stream only has to resolve *alternate* selection.
    """

    def __init__(
        self,
        network: Network,
        table: PathTable,
        *,
        max_alternates: int | None = None,
        trunk_reservation: int | np.ndarray | None = None,
        primary_loads: np.ndarray | None = None,
        max_hops: int | None = None,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, max_alternates=max_alternates
        )
        super().__init__(network, choices, cum_probs)
        capacities = network.capacities()
        if primary_loads is not None:
            if trunk_reservation is not None:
                raise ValueError(
                    "pass either trunk_reservation or primary_loads, not both"
                )
            loads = self._link_loads(primary_loads)
            hops = table.max_hops if max_hops is None else max_hops
            levels = min_protection_levels(loads, capacities, hops)
        else:
            if max_hops is not None:
                raise ValueError("max_hops only applies with primary_loads")
            reservation = 0 if trunk_reservation is None else trunk_reservation
            levels = np.broadcast_to(
                np.asarray(reservation, dtype=np.int64), capacities.shape
            ).copy()
            if (levels < 0).any() or (levels > capacities).any():
                raise ValueError("trunk reservation must lie in [0, capacity]")
        self.protection_levels = levels
        self.alt_thresholds = capacities - levels

    def route_draws(self, trace) -> np.ndarray:
        """The policy's uniform draws for every call of ``trace``, in order.

        Indexed positionally by call number, never consumed sequentially —
        call ``j`` uses row ``j`` whether or not earlier calls needed a draw.
        """
        raise NotImplementedError


class DynamicAlternateRouting(_RandomAlternatePolicy):
    """DAR: one sticky random alternate per pair, resampled on failure."""

    name = "dar"
    discipline = "dar"

    def route_draws(self, trace) -> np.ndarray:
        """One uniform per call: the resample draw if this call needs one."""
        return substream(trace.seed, "dar").random(trace.num_calls)


class PowerOfDAlternateRouting(_RandomAlternatePolicy):
    """Power-of-d: sample ``d`` random alternates, take the best feasible one."""

    name = "power-of-d"
    discipline = "power-of-d"

    def __init__(self, network: Network, table: PathTable, *, d: int = 2, **kwargs):
        if d < 1:
            raise ValueError("d must be >= 1")
        super().__init__(network, table, **kwargs)
        self.d = int(d)

    def route_draws(self, trace) -> np.ndarray:
        """A ``(num_calls, d)`` uniform matrix: this call's candidate draws."""
        return substream(trace.seed, "dar").random((trace.num_calls, self.d))
