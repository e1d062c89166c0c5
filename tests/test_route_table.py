"""The compiled route table and the engines that admit from it.

:class:`repro.routing.table.RouteTable` is the one place a policy's route
choices, bifurcation probabilities and thresholds become admission data.
These tests pin its own contracts (the pick, the two threshold forms, the
validating swap builder) and then drive the shapes no other test covers —
bifurcated primaries and ``length-threshold`` tables — through every
engine: the reference and fast loops, the batch kernel, the in-process
request engine and an ordered 2-shard cluster.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.routing.alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
)
from repro.routing.table import RouteTable, choice_index
from repro.serve import (
    ClusterConfig,
    ClusterRouter,
    NetworkState,
    RequestEngine,
    replay_trace,
    replay_trace_cluster,
)
from repro.serve.loadgen import aggregate_decisions, trace_requests
from repro.sim.batch import BatchSimulator
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

WARMUP = 2.0

SPLITS = {
    (0, 1): [((0, 1), 0.5), ((0, 2, 1), 0.5)],
    (1, 3): [((1, 3), 0.3), ((1, 0, 3), 0.7)],
    (2, 0): [((2, 0), 0.6), ((2, 3, 0), 0.4)],
}


def _setup(load: float):
    network = quadrangle(100)
    table = build_path_table(network)
    traffic = uniform_traffic(4, load)
    loads = primary_link_loads(network, table, traffic)
    return network, table, traffic, loads


def _counters(result) -> tuple:
    return (
        result.offered.tolist(),
        result.blocked.tolist(),
        result.primary_carried,
        result.alternate_carried,
    )


class TestTableContracts:
    def test_choice_index_matches_select_choice(self):
        network, table, __, loads = _setup(120.0)
        policy = ControlledAlternateRouting(network, table, loads, splits=SPLITS)
        cum = policy.cum_probs[(1, 3)]
        for u in (0.0, 0.29, 0.3, 0.31, 0.999, 1.0):
            index = choice_index(cum, u)
            assert policy.select_choice((1, 3), u) is policy.choices[(1, 3)][index]

    def test_both_forms_bind_rows_per_alternate(self):
        network, table, __, loads = _setup(95.0)
        scalar = RouteTable(ControlledAlternateRouting(network, table, loads))
        (row,) = scalar.rows.values()
        per_length = RouteTable(
            LengthAdaptiveControlledRouting(network, table, loads)
        )
        assert sorted(per_length.rows) == [2, 3]
        for routes, expect in ((scalar, lambda alt: row),
                               (per_length, lambda alt: per_length.rows[len(alt)])):
            for entry in routes.routes.values():
                assert entry[0] == "single"
                for alt, bounds in entry[2]:
                    assert bounds is expect(alt)

    def test_replaced_keeps_rows_left_out_and_never_mutates(self):
        network, table, __, loads = _setup(95.0)
        routes = RouteTable(LengthAdaptiveControlledRouting(network, table, loads))
        before = dict(routes.rows)
        row = np.clip(np.asarray(before[2]) - 5, 0, None)
        swapped, delta = routes.replaced(length_thresholds={2: row})
        assert swapped.rows[2] == tuple(row.tolist())
        assert swapped.rows[3] is before[3]
        assert routes.rows == before
        assert delta == float(np.abs(row - np.asarray(before[2])).max())
        with pytest.raises(ValueError, match="unknown hop lengths"):
            routes.replaced(length_thresholds={7: row})


class TestPartialLengthSwap:
    """A partial per-length swap keeps the rows it leaves out, on both planes."""

    def test_cluster_matches_engine_after_partial_swap(self):
        network, table, traffic, loads = _setup(95.0)
        policy = LengthAdaptiveControlledRouting(network, table, loads)
        trace = generate_trace(traffic, duration=8.0, seed=21)
        requests = trace_requests(trace)
        state = NetworkState(network, policy)
        row = np.clip(state.length_thresholds[2] - 10, 0, None)

        engine = RequestEngine(network, policy, state=state)
        state.hot_swap(length_thresholds={2: row})
        with pytest.raises(ValueError, match="unknown hop lengths"):
            state.hot_swap(length_thresholds={7: row})
        assert sorted(state.length_thresholds) == [2, 3]
        expected = engine.decide_batch(requests)

        async def run():
            router = ClusterRouter(
                network, policy, ClusterConfig(num_shards=2, mode="ordered")
            )
            async with router:
                await router.hot_swap(length_thresholds={2: row})
                with pytest.raises(ValueError, match="unknown hop lengths"):
                    await router.hot_swap(length_thresholds={7: row})
                decisions = await router.submit_batch(requests)
                audit = await router.audit()
            return decisions, audit, router.policy_epoch

        actual, audit, epoch = asyncio.run(run())
        assert epoch == 1
        assert not any(d.reason == "shard-down" for d in actual)
        assert actual == expected
        assert audit["consistent"] and audit["leaked_circuits"] == 0


class TestCrossEngineEquivalence:
    """Bifurcated primaries and per-length rows through all five engines."""

    @pytest.mark.parametrize(
        "name", ["controlled-split", "length", "length-split"]
    )
    def test_all_engines_agree(self, name):
        network, table, traffic, loads = _setup(120.0)
        if name == "controlled-split":
            policy = ControlledAlternateRouting(
                network, table, loads, splits=SPLITS
            )
        else:
            policy = LengthAdaptiveControlledRouting(
                network, table, loads,
                splits=SPLITS if name == "length-split" else None,
            )
        trace = generate_trace(traffic, duration=8.0, seed=5)

        reference = simulate(network, policy, trace, WARMUP, backend="reference")
        auto = simulate(network, policy, trace, WARMUP, backend="auto")
        (batch,) = BatchSimulator(network, policy, [trace], WARMUP).run()
        report = replay_trace(RequestEngine(network, policy), trace, warmup=WARMUP)
        assert reference.blocked.sum() > 0
        if name != "length":  # at 120 Erlangs the unsplit levels shut alternates
            assert reference.alternate_carried > 0
        for result in (auto, batch, report.result):
            assert _counters(result) == _counters(reference)

        async def run():
            router = ClusterRouter(
                network, policy, ClusterConfig(num_shards=2, mode="ordered")
            )
            async with router:
                return await replay_trace_cluster(router, trace, warmup=WARMUP)

        cluster = asyncio.run(run())
        assert cluster.decisions == report.decisions
        assert _counters(
            aggregate_decisions(trace, cluster.decisions, WARMUP)
        ) == _counters(reference)
