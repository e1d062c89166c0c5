"""Tests for online protection adaptation and the length-aware policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protection import min_protection_level
from repro.routing.adaptive import AdaptiveProtectionSimulator, simulate_adaptive
from repro.routing.alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
    per_link_max_hops,
)
from repro.routing.single_path import SinglePathRouting
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.generators import fully_connected, line, ring
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic
from repro.traffic.profiles import LoadProfile, generate_nonstationary_trace


class TestPerLinkMaxHops:
    def test_quadrangle_uniform(self, quad_network, quad_table):
        # Every K4 link carries 3-hop alternates.
        hops = per_link_max_hops(quad_network, quad_table)
        assert (hops == 3).all()

    def test_line_has_no_alternates(self):
        net = line(4, 5)
        table = build_path_table(net)
        hops = per_link_max_hops(net, table)
        assert (hops == 1).all()

    def test_nsfnet_unrestricted_saturates(self, nsfnet, nsfnet_table):
        # On the sparse NSFNet the longest loop-free alternates cross every
        # link, so the unrestricted table gives H^k = 11 everywhere.
        hops = per_link_max_hops(nsfnet, nsfnet_table)
        assert (hops == 11).all()

    def test_nsfnet_h6_also_saturates(self, nsfnet, nsfnet_table_h6):
        # Even hop-limited, some 6-hop alternate crosses every NSFNet link.
        hops = per_link_max_hops(nsfnet, nsfnet_table_h6)
        assert (hops == 6).all()

    def test_exact_values_on_barbell(self):
        # Triangle 0-1-2 with a pendant chain 2-3-4.  The longest alternates
        # are the 4-hop detours like (4,3,2,1,0) for the pair (4,0); they
        # cross the pendant links too, so H^k = 4 on every link — a worked
        # example of why H^k rarely drops below the global maximum on
        # connected meshes (long alternates reuse most links as segments).
        from repro.topology.graph import Network

        net = Network(5)
        for a, b in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]:
            net.add_duplex_link(a, b, 5)
        table = build_path_table(net)
        hops = per_link_max_hops(net, table)
        assert (hops == 4).all()
        # With alternates capped at 3 hops, the pendant pairs lose their
        # detours and the pendant tail link drops out of all alternates.
        capped = build_path_table(net, max_hops=3)
        capped_hops = per_link_max_hops(net, capped)
        by_endpoints = {
            net.link(i).endpoints: int(capped_hops[i]) for i in range(net.num_links)
        }
        assert by_endpoints[(0, 1)] == 3
        assert by_endpoints[(3, 4)] < 3

    def test_controlled_policy_accepts_per_link_hops(self, nsfnet, nsfnet_table):
        from repro.traffic.calibration import nsfnet_nominal_traffic

        loads = primary_link_loads(nsfnet, nsfnet_table, nsfnet_nominal_traffic())
        hops = per_link_max_hops(nsfnet, nsfnet_table)
        global_policy = ControlledAlternateRouting(nsfnet, nsfnet_table, loads)
        per_link_policy = ControlledAlternateRouting(
            nsfnet, nsfnet_table, loads, per_link_hops=hops
        )
        # Per-link H never exceeds the global maximum, so levels can only drop.
        assert (per_link_policy.protection_levels <= global_policy.protection_levels).all()

    def test_mutually_exclusive_with_max_hops(self, quad_network, quad_table):
        loads = np.zeros(quad_network.num_links)
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network,
                quad_table,
                loads,
                max_hops=2,
                per_link_hops=np.ones(quad_network.num_links, dtype=np.int64),
            )

    def test_per_link_hops_validated(self, quad_network, quad_table):
        loads = np.zeros(quad_network.num_links)
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network, quad_table, loads, per_link_hops=np.array([1, 2])
            )
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network,
                quad_table,
                loads,
                per_link_hops=np.zeros(quad_network.num_links, dtype=np.int64),
            )


class TestLengthAdaptivePolicy:
    def test_levels_monotone_in_length(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        assert set(policy.protection_by_length) == {2, 3}
        assert (
            policy.protection_by_length[2] <= policy.protection_by_length[3]
        ).all()
        for length, levels in policy.protection_by_length.items():
            expected = [
                min_protection_level(loads[l.index], l.capacity, length)
                for l in quad_network.links
            ]
            assert list(levels) == expected

    def test_shortest_length_matches_equation15(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        controlled_h2 = ControlledAlternateRouting(
            quad_network, quad_table, loads, max_hops=2
        )
        assert np.array_equal(
            policy.protection_by_length[2], controlled_h2.protection_levels
        )

    def test_never_worse_than_single_path(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        single = SinglePathRouting(quad_network, quad_table)
        diffs = []
        for seed in range(4):
            trace = generate_trace(traffic, 40.0, seed)
            ctl = simulate(quad_network, policy, trace, 10.0)
            sp = simulate(quad_network, single, trace, 10.0)
            diffs.append(sp.network_blocking - ctl.network_blocking)
        assert np.mean(diffs) > -0.01

    def test_at_least_as_permissive_as_global_h(self, quad_network, quad_table):
        # The refinement admits every alternate the global-H scheme admits:
        # r(h) <= r(H) for h <= H, so blocking can only improve (statistically).
        traffic = uniform_traffic(4, 90.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        adaptive = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        global_h = ControlledAlternateRouting(quad_network, quad_table, loads)
        diffs = []
        for seed in range(4):
            trace = generate_trace(traffic, 40.0, seed)
            a = simulate(quad_network, adaptive, trace, 10.0)
            g = simulate(quad_network, global_h, trace, 10.0)
            diffs.append(g.network_blocking - a.network_blocking)
        assert np.mean(diffs) > -0.005

    def test_line_topology_degenerates(self):
        net = line(3, 5)
        table = build_path_table(net)
        policy = LengthAdaptiveControlledRouting(net, table, np.zeros(net.num_links))
        assert policy.length_thresholds  # has at least the fallback entry


class TestAdaptiveProtectionSimulator:
    def test_validation(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 20.0)
        trace = generate_trace(traffic, 20.0, 0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(quad_network, quad_table, trace, warmup=30.0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(
                quad_network, quad_table, trace, update_interval=0.0
            )
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(quad_network, quad_table, trace, ewma_weight=0.0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(
                quad_network, quad_table, trace, initial_loads=np.zeros(3)
            )

    def test_estimates_converge_to_true_loads(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 60.0)
        truth = primary_link_loads(quad_network, quad_table, traffic)
        trace = generate_trace(traffic, 120.0, 0)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=5.0, ewma_weight=0.3
        )
        final = updates[-1].estimated_loads
        assert final == pytest.approx(truth, rel=0.2)

    def test_updates_recorded_on_schedule(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 40.0)
        trace = generate_trace(traffic, 52.0, 1)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=10.0
        )
        times = [u.time for u in updates]
        assert times[0] == 0.0
        assert times[1:] == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_cold_start_hardens_over_time(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 90.0)
        trace = generate_trace(traffic, 60.0, 2)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=5.0
        )
        assert updates[0].protection_levels.sum() == 0  # cold: unprotected
        assert updates[-1].protection_levels.sum() > 0  # learned protection

    def test_tracks_surge(self, nsfnet, nsfnet_table):
        # Blocking with adaptation should not lag a static policy sized for
        # the pre-surge load.
        from repro.traffic.calibration import nsfnet_nominal_traffic

        nominal = nsfnet_nominal_traffic()
        profile = LoadProfile.step(at=30.0, before=0.8, after=1.3)
        static = ControlledAlternateRouting(
            nsfnet, nsfnet_table, primary_link_loads(nsfnet, nsfnet_table, nominal) * 0.8
        )
        deltas = []
        for seed in range(2):
            trace = generate_nonstationary_trace(nominal, profile, 70.0, seed)
            static_result = simulate(nsfnet, static, trace, 10.0)
            adaptive_result, __ = simulate_adaptive(
                nsfnet,
                nsfnet_table,
                trace,
                warmup=10.0,
                update_interval=5.0,
                initial_loads=static.primary_loads,
            )
            deltas.append(static_result.network_blocking - adaptive_result.network_blocking)
        assert np.mean(deltas) > -0.01

    def test_accounting_identity(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 80.0)
        trace = generate_trace(traffic, 30.0, 3)
        result, __ = simulate_adaptive(quad_network, quad_table, trace, warmup=5.0)
        carried = result.primary_carried + result.alternate_carried
        assert carried + result.total_blocked == result.total_offered


@pytest.fixture(scope="module", params=["stationary", "diurnal", "adversarial:0"])
def nsfnet_h6_scenario(request):
    """NSFNet H=6 under nominal traffic and one workload, shared by seeds."""
    from repro.api import Scenario

    return Scenario(
        topology="nsfnet", traffic="nominal", max_hops=6, workload=request.param
    )


class TestEngineReplayOracle:
    """The adaptive simulator equals the serve engine replaying its
    adaptation: one :class:`NetworkState` under the simulator's own
    :class:`AdaptationConfig`, fed the trace's request stream."""

    @staticmethod
    def _assert_matches_engine(network, table, trace, warmup, **kwargs):
        from repro.routing.alternate import UncontrolledAlternateRouting
        from repro.serve.engine import RequestEngine
        from repro.serve.loadgen import aggregate_decisions, replay_trace
        from repro.serve.state import NetworkState

        sim = AdaptiveProtectionSimulator(
            network, table, trace, warmup=warmup, **kwargs
        )
        result = sim.run()
        policy = UncontrolledAlternateRouting(network, table)
        state = NetworkState(network, policy, adaptation=sim.config)
        engine = RequestEngine(network, policy, state=state)
        report = replay_trace(engine, trace, warmup)
        oracle = aggregate_decisions(trace, report.decisions, warmup)
        assert np.array_equal(result.offered, oracle.offered)
        assert np.array_equal(result.blocked, oracle.blocked)
        assert result.primary_carried == oracle.primary_carried
        assert result.alternate_carried == oracle.alternate_carried
        assert len(sim.updates) == len(state.refreshes)
        for ours, theirs in zip(sim.updates, state.refreshes):
            assert ours.time == theirs.time
            assert np.array_equal(ours.estimated_loads, theirs.estimated_loads)
            assert np.array_equal(ours.protection_levels, theirs.protection_levels)
        return sim

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nsfnet_h6_workloads(self, nsfnet_h6_scenario, seed):
        scenario = nsfnet_h6_scenario
        network, table = scenario.network, scenario.path_table
        loads = primary_link_loads(network, table, scenario.traffic_matrix)
        sim = self._assert_matches_engine(
            network, table, scenario.make_trace(40.0, seed), 10.0,
            update_interval=5.0, initial_loads=loads,
        )
        assert len(sim.updates) == 8

    def test_cold_start_off_grid_interval(self):
        network = fully_connected(4, 20)
        trace = generate_trace(uniform_traffic(4, 18.0), 30.0, 4)
        self._assert_matches_engine(
            network, build_path_table(network), trace, 5.0, update_interval=0.7
        )

    def test_windows_without_arrivals(self):
        # 1 Erlang per pair against 0.05-unit windows: most windows see no
        # arrival, so single arrivals fire runs of back-to-back refreshes.
        network = fully_connected(4, 100)
        trace = generate_trace(uniform_traffic(4, 1.0), 30.0, 0)
        sim = self._assert_matches_engine(
            network, build_path_table(network), trace, 5.0, update_interval=0.05
        )
        assert trace.num_calls == 345
        assert len(sim.updates) == 600
