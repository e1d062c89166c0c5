"""Controlled alternate routing with *online* protection-level adaptation.

The paper computes each link's protection level from an a-priori primary
demand and notes the estimate could instead "be found from the primary call
set-ups that fly past the link".  This module closes that loop inside the
simulation: links count the primary set-ups they observe, periodically blend
the measured rate into an EWMA demand estimate, and recompute their
Equation-15 protection levels on the fly — no oracle knowledge, and free
tracking of nonstationary load (pair with
:mod:`repro.traffic.profiles`).

A run has no admission loop of its own.  A refresh moves alternate bounds
but never primaries, so each window's primary set-ups, and with them the
whole threshold trajectory, follow from the trace alone.  The run first
folds them through the serving plane's own refresh
(:class:`repro.serve.state.NetworkState` with an
:class:`~repro.serve.state.AdaptationConfig`), collecting each refreshed
route table with the first call it admits, then replays the trace once
through :class:`repro.sim.simulator.LossNetworkSimulator`'s fast loop over
that schedule.
"""

from __future__ import annotations

import numpy as np

from ..serve.state import AdaptationConfig, NetworkState, ThresholdRefresh
from ..sim.metrics import SimulationResult
from ..sim.simulator import LossNetworkSimulator
from ..sim.trace import ArrivalTrace
from ..topology.graph import Network
from ..topology.paths import PathTable
from .alternate import UncontrolledAlternateRouting

__all__ = ["AdaptiveProtectionSimulator", "simulate_adaptive"]


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
        self.updates: list[ThresholdRefresh] = []

    def run(self) -> SimulationResult:
        trace = self.trace
        num_pairs = len(trace.od_pairs)
        state = NetworkState(self.network, self._policy, adaptation=self.config)
        self.updates = state.refreshes
        # crossings[p, k]: how often pair p's primary set-up passes link k
        # (the primaries, unlike the bounds, never change between windows).
        crossings = np.zeros((num_pairs, self.network.num_links), dtype=np.int64)
        for pair, chain in enumerate(state.table.by_pair(trace.od_pairs)[0]):
            if chain is not None:
                np.add.at(crossings[pair], list(chain[0]), 1)
        # The first arrival at or after each window boundary folds the
        # window in; its own set-up already belongs to the next window.
        schedule = [(0, state.table)]
        window_start = 0
        while True:
            first = int(np.searchsorted(trace.times, state.next_refresh))
            if first == trace.num_calls:
                break
            setups = np.bincount(
                trace.od_index[window_start:first], minlength=num_pairs
            )
            state.setup_counts[:] = setups @ crossings
            state.maybe_refresh(float(trace.times[first]))
            schedule.append((first, state.table))
            window_start = first
        simulator = LossNetworkSimulator(
            self.network, self._policy, trace, self.warmup
        )
        return simulator._run_fast(schedule)


def simulate_adaptive(
    network: Network,
    table: PathTable,
    trace: ArrivalTrace,
    **kwargs,
) -> tuple[SimulationResult, list[ThresholdRefresh]]:
    """Run an :class:`AdaptiveProtectionSimulator`; returns result + updates."""
    simulator = AdaptiveProtectionSimulator(network, table, trace, **kwargs)
    result = simulator.run()
    return result, simulator.updates
