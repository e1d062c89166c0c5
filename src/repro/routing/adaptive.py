"""Controlled alternate routing with *online* protection-level adaptation.

The paper computes each link's protection level from an a-priori primary
demand and notes the estimate could instead "be found from the primary call
set-ups that fly past the link".  This module closes that loop inside the
simulation: links count the primary set-ups they observe, periodically blend
the measured rate into an EWMA demand estimate, and recompute their
Equation-15 protection levels on the fly — no oracle knowledge, and free
tracking of nonstationary load (pair with
:mod:`repro.traffic.profiles`).

The run loop mirrors :class:`repro.sim.simulator.LossNetworkSimulator`'s
threshold discipline with two additions: per-link set-up counters and the
periodic threshold refresh — the serving plane's own
(:class:`repro.serve.state.NetworkState` with an
:class:`~repro.serve.state.AdaptationConfig`), whose refreshed route table
the loop then admits from.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..serve.state import AdaptationConfig, NetworkState, ThresholdRefresh
from ..sim.metrics import SimulationResult
from ..sim.trace import ArrivalTrace
from ..topology.graph import Network
from ..topology.paths import PathTable
from .alternate import UncontrolledAlternateRouting

__all__ = ["AdaptiveProtectionSimulator", "ThresholdUpdate", "simulate_adaptive"]

#: One protection refresh: the time and the per-link levels adopted.
ThresholdUpdate = ThresholdRefresh


class AdaptiveProtectionSimulator:
    """Call-by-call simulation with links estimating their own demand.

    ``update_interval`` is the measurement window length: at each boundary
    every link folds ``setups_in_window / window`` into its EWMA estimate
    with weight ``ewma_weight`` and recomputes ``r`` for ``max_hops``.
    ``initial_loads`` seeds the estimates (defaults to zero — fully cold
    start, i.e. links begin unprotected and harden as they learn).  The
    refresh itself is the serving plane's
    (:meth:`repro.serve.state.NetworkState.maybe_refresh`), so both
    planes adapt identically.
    """

    def __init__(
        self,
        network: Network,
        table: PathTable,
        trace: ArrivalTrace,
        warmup: float = 10.0,
        update_interval: float = 5.0,
        ewma_weight: float = 0.3,
        max_hops: int | None = None,
        initial_loads: np.ndarray | None = None,
    ):
        if warmup < 0 or warmup >= trace.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if initial_loads is not None:
            initial_loads = tuple(np.asarray(initial_loads, dtype=float).tolist())
            if len(initial_loads) != network.num_links:
                raise ValueError("initial_loads must be per-link")
        self.network = network
        self.trace = trace
        self.warmup = float(warmup)
        self.max_hops = table.max_hops if max_hops is None else max_hops
        self.config = AdaptationConfig(
            update_interval=float(update_interval),
            ewma_weight=float(ewma_weight),
            max_hops=self.max_hops,
            initial_loads=initial_loads,
        )
        self._policy = UncontrolledAlternateRouting(network, table)
        self.updates: list[ThresholdUpdate] = []

    def run(self) -> SimulationResult:
        trace = self.trace
        network = self.network
        capacities = [int(c) for c in network.capacities()]
        num_links = network.num_links
        num_pairs = len(trace.od_pairs)
        state = NetworkState(network, self._policy, adaptation=self.config)
        self.updates = state.refreshes
        route_choice, __ = state.table.by_pair(trace.od_pairs)

        times = trace.times.tolist()
        od_index = trace.od_index.tolist()
        holding = trace.holding_times.tolist()
        warmup = self.warmup
        setup_counts = [0] * num_links
        next_update = state.next_refresh

        occupancy = [0] * num_links
        departures: list[tuple[float, tuple[int, ...]]] = []
        offered = [0] * num_pairs
        blocked = [0] * num_pairs
        primary_carried = 0
        alternate_carried = 0

        heap_push = heapq.heappush
        heap_pop = heapq.heappop
        for call in range(len(times)):
            now = times[call]
            if now >= next_update:
                state.setup_counts[:] = setup_counts
                state.maybe_refresh(now)
                setup_counts = [0] * num_links
                next_update = state.next_refresh
                route_choice, __ = state.table.by_pair(trace.od_pairs)
            while departures and departures[0][0] <= now:
                __, path = heap_pop(departures)
                for link in path:
                    occupancy[link] -= 1
            pair = od_index[call]
            counted = now >= warmup
            if counted:
                offered[pair] += 1
            chain = route_choice[pair]
            if chain is None:
                if counted:
                    blocked[pair] += 1
                continue
            primary, alternates = chain
            # The primary set-up packet passes every primary link, admitted
            # or not — that is what the links measure.
            for link in primary:
                setup_counts[link] += 1
            for link in primary:
                if occupancy[link] >= capacities[link]:
                    break
            else:
                for link in primary:
                    occupancy[link] += 1
                heap_push(departures, (now + holding[call], primary))
                if counted:
                    primary_carried += 1
                continue
            for alt, bounds in alternates:
                for link in alt:
                    if occupancy[link] >= bounds[link]:
                        break
                else:
                    for link in alt:
                        occupancy[link] += 1
                    heap_push(departures, (now + holding[call], alt))
                    if counted:
                        alternate_carried += 1
                    break
            else:
                if counted:
                    blocked[pair] += 1

        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=np.asarray(offered, dtype=np.int64),
            blocked=np.asarray(blocked, dtype=np.int64),
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=warmup,
            duration=trace.duration,
            seed=trace.seed,
        )


def simulate_adaptive(
    network: Network,
    table: PathTable,
    trace: ArrivalTrace,
    **kwargs,
) -> tuple[SimulationResult, list[ThresholdUpdate]]:
    """Run an :class:`AdaptiveProtectionSimulator`; returns result + updates."""
    simulator = AdaptiveProtectionSimulator(network, table, trace, **kwargs)
    result = simulator.run()
    return result, simulator.updates
