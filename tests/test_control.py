"""Tests for the online protection-level control loop (repro.control).

Three layers of guarantee, mirroring the subsystem's design:

* **safety** — property-style tests that every controller proposal,
  across seeded adversarial traces, satisfies the Theorem-1 displacement
  inequality *after* the :class:`~repro.control.controllers.SafetyClamp`
  projection, and that the clamp is a structural no-op on proposals that
  are already feasible;
* **determinism** — the loop is driven on request time, so a replayed
  trace yields a bit-stable ``decisions_sha256`` (what the CI smoke job
  asserts across interpreter runs);
* **swap equivalence** — the hot-swap path is proven safe by an oracle:
  an ordered-mode cluster replay with ``ClusterRouter.hot_swap`` must be
  bit-identical to the single-process engine given the same swap
  schedule.  The fast loop's piecewise-constant thresholds have their own
  engine oracle in ``tests/test_adaptive.py``: the adaptive simulator
  must match an engine replaying the same adaptation.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import Scenario
from repro.control import (
    ControlProposal,
    DemandEstimator,
    SafetyClamp,
    make_control_loop,
)
from repro.core.protection import min_protection_levels
from repro.routing.alternate import ControlledAlternateRouting
from repro.serve import ClusterConfig, ClusterRouter, RequestEngine
from repro.serve.loadgen import aggregate_decisions, trace_requests
from repro.serve.shard import ShardWorker
from repro.serve.state import NetworkState
from repro.sim.trace import generate_trace
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

INTERVAL = 5.0


def _adversarial_scenario() -> Scenario:
    return Scenario(
        topology="quadrangle", traffic=55.0, policy="controlled",
        workload="adversarial:0",
    )


class RecordingClamp(SafetyClamp):
    """SafetyClamp that keeps every (proposal, loads, projection) triple."""

    def __init__(self, network):
        super().__init__(network)
        self.records = []

    def project(self, proposal, link_loads):
        safe, lifted = super().project(proposal, link_loads)
        self.records.append(
            (proposal, np.asarray(link_loads, dtype=float).copy(), safe, lifted)
        )
        return safe, lifted


def _closed_loop_replay(seed: int, *, controller: str = "gradient"):
    """One closed-loop engine replay on the adversarial workload."""
    scenario = _adversarial_scenario()
    network = scenario.network
    policy = scenario.build_policy()
    trace = scenario.make_trace(30.0, seed)
    state = NetworkState(network, policy)
    loop = make_control_loop(
        state, scenario.path_table, scenario.traffic_matrix,
        controller=controller, interval=INTERVAL,
    )
    loop.clamp = RecordingClamp(network)
    engine = RequestEngine(network, policy, state=state, control=loop)
    decisions = engine.decide_batch(trace_requests(trace))
    result = aggregate_decisions(trace, decisions, warmup=5.0)
    return loop, state, result


class TestSafetyClamp:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("controller", ["gradient", "markov"])
    def test_every_projected_proposal_satisfies_theorem1(
        self, seed, controller
    ):
        # The property the ISSUE names: across seeded adversarial traces,
        # whatever the strategy proposes, the projection satisfies the
        # displacement inequality at the loads it was projected against.
        loop, state, __ = _closed_loop_replay(seed, controller=controller)
        clamp = loop.clamp
        assert clamp.records, "control loop never stepped"
        for proposal, loads, safe, lifted in clamp.records:
            assert clamp.verify(safe.levels, loads)
            if lifted == 0:
                # Feasible proposals pass through structurally unchanged.
                assert set(safe.levels) == set(proposal.levels)
                for h, arr in proposal.levels.items():
                    assert np.array_equal(safe.levels[h], arr)

    def test_clamp_lifts_infeasible_proposal_to_the_floor(self, quad_network):
        clamp = SafetyClamp(quad_network)
        caps = quad_network.capacities().astype(np.int64)
        loads = np.full(quad_network.num_links, 80.0)
        reckless = ControlProposal(
            time=1.0, levels={2: np.zeros(quad_network.num_links, np.int64)}
        )
        safe, lifted = clamp.project(reckless, loads)
        floor = min_protection_levels(loads, caps, 2)
        assert lifted == int((floor > 0).sum()) > 0
        assert np.array_equal(safe.levels[2], floor)
        assert clamp.verify(safe.levels, loads)
        assert clamp.violations == lifted
        assert clamp.max_deficit == int(floor.max())

    def test_clamp_is_noop_on_feasible_proposal(self, quad_network):
        clamp = SafetyClamp(quad_network)
        caps = quad_network.capacities().astype(np.int64)
        loads = np.full(quad_network.num_links, 80.0)
        floor = min_protection_levels(loads, caps, 2)
        polite = ControlProposal(time=1.0, levels={2: floor + 1})
        safe, lifted = clamp.project(polite, loads)
        assert lifted == 0
        assert clamp.violations == 0
        assert np.array_equal(safe.levels[2], floor + 1)

    def test_full_protection_passes_vacuously(self, quad_network):
        # r = C (threshold 0) is Table 1's convention for overloaded
        # links: no alternate traffic at all, safe by definition.
        clamp = SafetyClamp(quad_network)
        caps = quad_network.capacities().astype(np.int64)
        loads = caps.astype(float) * 2.0  # no r < C satisfies Eq. 15
        assert clamp.verify({3: caps.copy()}, loads)


class TestEstimator:
    def _pieces(self, quad_network, quad_table):
        traffic = uniform_traffic(quad_network.num_nodes, 50.0)
        return traffic, DemandEstimator(
            quad_network, quad_table, traffic, prior_strength=100.0
        )

    def test_estimate_starts_at_the_prior(self, quad_network, quad_table):
        traffic, est = self._pieces(quad_network, quad_table)
        snap = est.estimate(0.0)
        assert snap.confidence == 0.0
        assert np.allclose(snap.matrix.as_array(), traffic.as_array())
        assert np.allclose(
            snap.link_loads,
            primary_link_loads(quad_network, quad_table, traffic),
        )

    def test_shrinkage_moves_toward_measurements(
        self, quad_network, quad_table
    ):
        traffic, est = self._pieces(quad_network, quad_table)
        doubled = {od: int(2 * rate * 10.0) for od, rate in traffic.positive_pairs()}
        confidences = []
        for k in range(1, 11):
            est.observe(k * 10.0, 10.0, doubled)
            confidences.append(est.estimate(k * 10.0).confidence)
        snap = est.estimate(100.0)
        prior = traffic.as_array()
        estimate = snap.matrix.as_array()
        positive = prior > 0
        # Strictly between the prior and the doubled measurement...
        assert (estimate[positive] > prior[positive]).all()
        assert (estimate[positive] < 2.0 * prior[positive] + 1e-9).all()
        # ...and confidence grows monotonically with exposure.
        assert confidences == sorted(confidences)
        assert 0.0 < snap.confidence < 1.0

    def test_volatility_inflates_the_prior(self, quad_network, quad_table):
        traffic, est = self._pieces(quad_network, quad_table)
        base = est.gated_prior_strength()
        quiet = {od: int(rate * 10.0) for od, rate in traffic.positive_pairs()}
        loud = {od: 4 * count for od, count in quiet.items()}
        for k, counts in enumerate((quiet, loud, quiet, loud), start=1):
            est.observe(k * 10.0, 10.0, counts)
        assert est.volatility > 0.0
        assert est.gated_prior_strength() > base
        snap = est.estimate(40.0)
        assert snap.volatility == est.volatility
        assert snap.staleness == 0.0
        assert est.estimate(47.5).staleness == 7.5

    def test_validation(self, quad_network, quad_table):
        traffic = uniform_traffic(quad_network.num_nodes, 50.0)
        with pytest.raises(ValueError, match="prior_strength"):
            DemandEstimator(quad_network, quad_table, traffic, prior_strength=0)
        est = DemandEstimator(quad_network, quad_table, traffic)
        with pytest.raises(ValueError, match="span"):
            est.observe(1.0, 0.0, {})


class TestControlLoop:
    def test_decisions_are_replay_deterministic(self):
        first, __, first_result = _closed_loop_replay(4)
        second, __, second_result = _closed_loop_replay(4)
        assert first.decisions_sha256() == second.decisions_sha256()

        def logical(loop):
            # swap_seconds is wall clock; everything else must replay.
            return [
                {k: v for k, v in step.items() if k != "swap_seconds"}
                for step in loop.trajectory()
            ]

        assert logical(first) == logical(second)
        assert np.array_equal(first_result.blocked, second_result.blocked)

    def test_loop_swaps_and_exports_the_epoch(self):
        loop, state, result = _closed_loop_replay(5)
        assert len(loop.steps) > 0
        assert state.policy_epoch == sum(1 for s in loop.steps if s.applied)
        assert state.policy_epoch > 0
        assert len(state.swaps) == state.policy_epoch
        # The serve-plane gauge tracks the version in force (satellite a).
        gauge = loop.telemetry.gauge("control_objective")
        assert gauge.value == loop.steps[-1].objective
        assert 0.0 <= result.network_blocking < 1.0

    def test_markov_controller_proposes_route_prefixes(self):
        loop, __, ___ = _closed_loop_replay(6, controller="markov")
        assert loop.steps
        assert all(s.alt_prefix is not None for s in loop.steps)
        # Markov proposals sit exactly on the floor, so nothing lifts.
        assert loop.clamp.violations == 0
        assert loop.active_prefix == loop.steps[-1].alt_prefix

    def test_pinning_records_but_does_not_apply(self):
        scenario = _adversarial_scenario()
        policy = scenario.build_policy()
        trace = scenario.make_trace(20.0, 7)
        state = NetworkState(scenario.network, policy)
        loop = make_control_loop(
            state, scenario.path_table, scenario.traffic_matrix,
            interval=INTERVAL,
        )
        assert loop.pin() == 0
        engine = RequestEngine(
            scenario.network, policy, state=state, control=loop
        )
        engine.decide_batch(trace_requests(trace))
        assert loop.steps and not any(s.applied for s in loop.steps)
        assert state.policy_epoch == 0 and not state.swaps
        loop.unpin()
        assert loop.pinned_epoch is None

    def test_loop_rejects_adaptive_state(self, quad_network, quad_table):
        from repro.serve import AdaptationConfig

        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        state = NetworkState(
            quad_network, policy,
            adaptation=AdaptationConfig(update_interval=5.0),
        )
        with pytest.raises(ValueError, match="adaptation"):
            make_control_loop(state, quad_table, traffic)

    @pytest.mark.parametrize("interval", [0.0, float("nan"), float("inf")])
    def test_loop_rejects_non_finite_interval(
        self, quad_network, quad_table, interval
    ):
        # A NaN or infinite interval would pass a bare `<= 0` test and then
        # never step: control silently off.
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        state = NetworkState(quad_network, policy)
        with pytest.raises(ValueError, match="interval"):
            make_control_loop(state, quad_table, traffic, interval=interval)

    def test_factory_rejects_unknown_controller(
        self, quad_network, quad_table
    ):
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        state = NetworkState(quad_network, policy)
        with pytest.raises(ValueError, match="unknown controller"):
            make_control_loop(state, quad_table, traffic, controller="pid")


class TestHotSwapState:
    def _state(self, quad_network, quad_table):
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        return NetworkState(quad_network, policy)

    def test_swap_replaces_thresholds_and_bumps_epoch(
        self, quad_network, quad_table
    ):
        state = self._state(quad_network, quad_table)
        before = state.alt_thresholds.copy()
        incoming = np.clip(before - 3, 0, None)
        delta = state.hot_swap(alt_thresholds=incoming, now=7.0)
        assert delta == float(np.abs(incoming - before).max())
        assert np.array_equal(state.alt_thresholds, incoming)
        assert state.policy_epoch == 1
        (swap,) = state.swaps
        assert (swap.time, swap.epoch, swap.max_delta) == (7.0, 1, delta)

    def test_swap_validation(self, quad_network, quad_table):
        state = self._state(quad_network, quad_table)
        ok = state.alt_thresholds.copy()
        with pytest.raises(ValueError, match="exactly one"):
            state.hot_swap()
        with pytest.raises(ValueError, match="exactly one"):
            state.hot_swap(alt_thresholds=ok, length_thresholds={2: ok})
        with pytest.raises(ValueError, match="scalar threshold"):
            state.hot_swap(length_thresholds={2: ok})
        with pytest.raises(ValueError, match="per-link"):
            state.hot_swap(alt_thresholds=ok[:-1])
        with pytest.raises(ValueError, match="capacity"):
            state.hot_swap(alt_thresholds=ok + state.capacities)
        assert state.policy_epoch == 0  # nothing above landed


class TestClusterSwapEquivalence:
    """Hot-swap proven safe: cluster replay == engine, same swap schedule."""

    def test_ordered_cluster_matches_engine_across_swaps(
        self, quad_network, quad_table
    ):
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        trace = generate_trace(traffic, duration=12.0, seed=21)
        base = NetworkState(quad_network, policy).alt_thresholds
        caps = quad_network.capacities().astype(np.int64)
        schedule = [
            (4.0, np.clip(base - 2, 0, None)),
            (8.0, np.minimum(base + 1, caps)),
        ]
        times = [t for t, __ in schedule]
        chunks = [[] for __ in range(len(schedule) + 1)]
        for request in trace_requests(trace):
            chunks[int(np.searchsorted(times, request.time, side="right"))
                   ].append(request)

        # Single-process oracle: hot_swap between decide_batch calls.
        state = NetworkState(quad_network, policy)
        engine = RequestEngine(quad_network, policy, state=state)
        expected = []
        for k, chunk in enumerate(chunks):
            if k > 0:
                state.hot_swap(alt_thresholds=schedule[k - 1][1],
                               now=times[k - 1])
            expected.extend(engine.decide_batch(chunk))

        async def run():
            router = ClusterRouter(
                quad_network, policy,
                ClusterConfig(num_shards=3, mode="ordered"),
            )
            async with router:
                out = []
                for k, chunk in enumerate(chunks):
                    if k > 0:
                        await router.hot_swap(
                            alt_thresholds=schedule[k - 1][1],
                            now=times[k - 1],
                        )
                    out.extend(await router.submit_batch(chunk))
                audit = await router.audit()
                snapshots = [
                    snap
                    for sid in router.supervisor.shard_ids
                    for snap in await router._call(sid, [("snapshot",)])
                ]
                epoch = router.policy_epoch
                swaps = list(router.swaps)
            return out, audit, snapshots, epoch, swaps

        actual, audit, snapshots, epoch, swaps = asyncio.run(run())
        assert actual == expected  # bit-identical across both swaps
        assert epoch == 2
        assert [s.epoch for s in swaps] == [1, 2]
        assert audit["consistent"] and audit["leaked_circuits"] == 0
        for snapshot in snapshots:
            assert snapshot["epoch"] == 2
            assert snapshot["tallies"]["shard_swaps"] == 2

    def test_cluster_swap_validation(self, quad_network, quad_table):
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        router = ClusterRouter(
            quad_network, policy, ClusterConfig(num_shards=2)
        )
        thr = NetworkState(quad_network, policy).alt_thresholds

        async def check():
            with pytest.raises(ValueError, match="exactly one"):
                await router.hot_swap()
            with pytest.raises(ValueError, match="scalar threshold"):
                await router.hot_swap(length_thresholds={2: thr})
            with pytest.raises(ValueError, match="per-link"):
                await router.hot_swap(alt_thresholds=thr[:-1])
            with pytest.raises(ValueError, match="capacity"):
                await router.hot_swap(alt_thresholds=[-1] * len(thr))

        asyncio.run(check())


class TestShardSwapOp:
    def test_swap_changes_bounds_and_stamps_the_epoch(self):
        worker = ShardWorker({
            "shard_id": 0,
            "links": (0, 1),
            "capacities": {0: 10, 1: 10},
            "rows": {3: {0: 7, 1: 7}},
        })
        assert worker.policy_epoch == 0
        assert worker.handle(("rescommit", "a", (0,), 1, 3)) == 1
        assert worker.handle(("swap", 4, {3: {0: 1, 1: 2}})) == 1
        assert worker.policy_epoch == 4
        assert worker.bounds[3] == {0: 1, 1: 2}
        # One circuit is already booked on link 0; the new bound of 1
        # refuses further alternates while the old bound admitted them.
        assert worker.handle(("rescommit", "b", (0,), 1, 3)) == 0
        assert worker.handle(("rescommit", "c", (1,), 1, 3)) == 1
        snapshot = worker.handle(("snapshot",))
        assert snapshot["epoch"] == 4
        assert snapshot["tallies"]["shard_swaps"] == 1

    def test_swap_installs_length_tables(self):
        worker = ShardWorker({
            "shard_id": 1,
            "links": (0,),
            "capacities": {0: 10},
            "rows": {2: {0: 7}, 3: {0: 7}},
        })
        worker.handle(("swap", 1, {2: {0: 6}, 3: {0: 2}}))
        assert (worker.bounds[2], worker.bounds[3]) == ({0: 6}, {0: 2})
        # kind = alternate hop length selects the per-length bound.
        for __ in range(2):
            worker.handle(("rescommit", f"r{__}", (0,), 1, 3))
        assert worker.occupancy[0] == 2
        assert worker.handle(("rescommit", "r2", (0,), 1, 3)) == 0  # 3-hop full
        assert worker.handle(("rescommit", "r3", (0,), 1, 2)) == 1  # 2-hop ok
