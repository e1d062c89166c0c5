"""Vectorized hot paths vs their retained reference implementations.

The simulator keeps its general event loop as ``backend="reference"``; the
analysis kernels' original loops live in :mod:`tests.oracles.analysis`.
The simulator's fast loop makes the exact same
admission decisions in the exact same order, so its statistics must be
bit-identical; the analysis kernels change only float accumulation order
(the batch Erlang kernel sums the Horner recursion as one cumulative
product), so they agree to tight relative tolerance rather than bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.alternate_fixed_point import alternate_routing_fixed_point
from repro.analysis.erlang_bound import erlang_bound
from repro.analysis.fixed_point import erlang_fixed_point
from repro.routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from repro.routing.single_path import SinglePathRouting
from repro.sim.faultplane import single_failure_timeline
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.topology.nsfnet import nsfnet_backbone
from repro.topology.paths import build_path_table
from repro.traffic.calibration import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

from .oracles.analysis import (
    alternate_routing_fixed_point_reference,
    erlang_bound_reference,
    erlang_fixed_point_reference,
)

_COUNTERS = ("offered", "blocked", "primary_carried", "alternate_carried")


def _nsfnet_setup(load_scale: float = 1.0):
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic()
    if load_scale != 1.0:
        traffic = traffic.scaled(load_scale)
    return network, table, traffic


def _policies(network, table, traffic):
    loads = primary_link_loads(network, table, traffic)
    return {
        "single-path": SinglePathRouting(network, table),
        "uncontrolled": UncontrolledAlternateRouting(network, table),
        "controlled": ControlledAlternateRouting(network, table, loads),
    }


class TestAnalysisEquivalence:
    @pytest.mark.parametrize("load_scale", [0.8, 1.0, 1.3])
    def test_erlang_fixed_point_matches_reference(self, load_scale):
        network, table, traffic = _nsfnet_setup(load_scale)
        fast = erlang_fixed_point(network, table, traffic)
        ref = erlang_fixed_point_reference(network, table, traffic)
        assert fast.iterations == ref.iterations
        np.testing.assert_allclose(
            fast.link_blocking, ref.link_blocking, rtol=1e-9, atol=1e-15
        )
        assert fast.network_blocking == pytest.approx(
            ref.network_blocking, rel=1e-9, abs=1e-15
        )

    @pytest.mark.parametrize("reservation", [0, 5])
    def test_alternate_fixed_point_matches_reference(self, reservation):
        network = quadrangle(100)
        table = build_path_table(network)
        traffic = uniform_traffic(4, 90.0)
        levels = np.full(network.num_links, reservation)
        fast = alternate_routing_fixed_point(network, table, traffic, levels)
        ref = alternate_routing_fixed_point_reference(
            network, table, traffic, levels
        )
        assert fast.iterations == ref.iterations
        assert fast.converged == ref.converged
        np.testing.assert_allclose(
            fast.full_probability, ref.full_probability, rtol=1e-9, atol=1e-15
        )
        np.testing.assert_allclose(
            fast.protected_probability, ref.protected_probability,
            rtol=1e-9, atol=1e-15,
        )
        np.testing.assert_allclose(
            fast.overflow_rates, ref.overflow_rates, rtol=1e-9, atol=1e-12
        )
        for od, value in ref.pair_blocking.items():
            assert fast.pair_blocking[od] == pytest.approx(value, rel=1e-9, abs=1e-15)
        assert fast.network_blocking == pytest.approx(
            ref.network_blocking, rel=1e-9, abs=1e-15
        )

    def test_erlang_bound_matches_reference(self):
        for network, traffic in (
            (nsfnet_backbone(), nsfnet_nominal_traffic().scaled(1.2)),
            (quadrangle(100), uniform_traffic(4, 95.0)),
        ):
            fast = erlang_bound(network, traffic)
            ref = erlang_bound_reference(network, traffic)
            assert fast == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_erlang_bound_matches_reference_after_failure(self):
        network = nsfnet_backbone()
        network.fail_link(2, 3)
        network.fail_link(3, 2)
        traffic = nsfnet_nominal_traffic()
        assert erlang_bound(network, traffic) == pytest.approx(
            erlang_bound_reference(network, traffic), rel=1e-12
        )


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_blocking_statistics_bit_identical(self, seed):
        network, table, traffic = _nsfnet_setup()
        trace = generate_trace(traffic, 40.0, seed)
        for name, policy in _policies(network, table, traffic).items():
            fast = simulate(network, policy, trace, warmup=10.0)
            ref = simulate(
                network, policy, trace, warmup=10.0, backend="reference"
            )
            for counter in _COUNTERS:
                assert np.array_equal(
                    getattr(fast, counter), getattr(ref, counter)
                ), f"{name}: {counter} diverged"
            assert fast.network_blocking == ref.network_blocking
            assert fast.network_drop_rate == ref.network_drop_rate
            assert fast.availability == ref.availability

    def test_warm_start_bit_identical(self):
        network, table, traffic = _nsfnet_setup()
        policy = _policies(network, table, traffic)["controlled"]
        trace = generate_trace(traffic, 30.0, 3)
        rng = np.random.default_rng(0)
        occupancy = rng.integers(0, 5, size=network.num_links)
        fast = simulate(
            network, policy, trace, warmup=5.0, initial_occupancy=occupancy
        )
        ref = simulate(
            network, policy, trace, warmup=5.0, initial_occupancy=occupancy,
            backend="reference",
        )
        for counter in _COUNTERS:
            assert np.array_equal(getattr(fast, counter), getattr(ref, counter))

    def test_fault_timeline_bit_identical(self):
        """Under a fault timeline both flags route through the general loop;
        drops, availability and blocking must still match exactly."""
        network, table, traffic = _nsfnet_setup(1.2)
        policy = _policies(network, table, traffic)["controlled"]
        trace = generate_trace(traffic, 40.0, 11)
        timeline = single_failure_timeline(2, 3, fail_at=15.0, repair_at=30.0)
        fast = simulate(network, policy, trace, warmup=10.0, faults=timeline)
        ref = simulate(
            network, policy, trace, warmup=10.0, faults=timeline,
            backend="reference",
        )
        for counter in _COUNTERS + ("dropped",):
            assert np.array_equal(getattr(fast, counter), getattr(ref, counter))
        assert fast.network_blocking == ref.network_blocking
        assert fast.network_drop_rate == ref.network_drop_rate
        assert fast.availability == ref.availability
