"""Tests for the sharded admission cluster (repro.serve.cluster).

Two oracles guard the two router modes.  An ordered-mode cluster of real
worker processes must reproduce the single-process
:class:`~repro.serve.engine.RequestEngine`'s decisions bit for bit on the
same trace.  A pipelined cluster decides each submitted batch as one
wave, and its decisions and its fast-path, two-phase and crankback
counters must equal the process-free wave reference in
:mod:`tests.oracles.cluster`, also when batches are submitted
concurrently or a hot swap arrives mid-batch.  Around them: the
pure-logic pieces (reservation ids, partitioning, journal, config
validation, seeded chaos) and the fault paths (worker crash recovery,
shard-down degradation).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.api import Scenario
from repro.routing.alternate import ControlledAlternateRouting
from repro.serve import (
    ChaosConfig,
    ClusterConfig,
    ClusterRouter,
    MessageChaos,
    RequestEngine,
    ReservationJournal,
    partition_links,
    replay_trace,
    replay_trace_cluster,
    trace_requests,
)
from repro.serve.cluster import ShardDown, _release_id, _reservation_id
from repro.sim.sigpolicy import HoldTimerPolicy, RetryPolicy
from repro.sim.trace import generate_trace
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

from .oracles.cluster import pipelined_reference

WARMUP = 2.0


@pytest.fixture(scope="module")
def cluster_policy(quad_network, quad_table):
    traffic = uniform_traffic(quad_network.num_nodes, 95.0)
    loads = primary_link_loads(quad_network, quad_table, traffic)
    return ControlledAlternateRouting(quad_network, quad_table, loads)


@pytest.fixture(scope="module")
def cluster_trace(quad_network):
    traffic = uniform_traffic(quad_network.num_nodes, 95.0)
    return generate_trace(traffic, duration=8.0, seed=21)


@pytest.fixture(scope="module")
def engine_reference(quad_network, cluster_policy, cluster_trace):
    engine = RequestEngine(quad_network, cluster_policy)
    return replay_trace(engine, cluster_trace, warmup=WARMUP)


@pytest.fixture(scope="module")
def quadrangle_case(quad_network, cluster_policy, cluster_trace):
    return quad_network, cluster_policy, cluster_trace


@pytest.fixture(scope="module")
def nsfnet_case():
    """NSFNet at nominal load: a 40-unit seed-0 trace."""
    scenario = Scenario()
    return scenario.network, scenario.build_policy(), scenario.make_trace(40.0, 0)


@pytest.fixture(scope="module")
def short_trace(quad_network):
    traffic = uniform_traffic(quad_network.num_nodes, 95.0)
    return generate_trace(traffic, duration=4.0, seed=21)


class TestPureLogic:
    def test_reservation_ids_are_disjoint(self):
        seen = set()
        for call in range(100):
            seen.add(_release_id(call))
            for index in range(4):
                seen.add(_reservation_id(call, index))
        assert len(seen) == 500  # no collisions across calls or attempts
        # String call ids survive too (the protocol does not require ints).
        assert _reservation_id("abc", 2) != _reservation_id("abc", 3)
        assert _release_id("abc") != _reservation_id("abc", 0)

    def test_partition_links_covers_every_link_once(self):
        for num_links, num_shards in ((7, 3), (8, 1), (3, 5)):
            parts = partition_links(num_links, num_shards)
            assert len(parts) == num_shards
            flat = [link for links in parts for link in links]
            assert sorted(flat) == list(range(num_links))
            sizes = [len(links) for links in parts]
            assert max(sizes) - min(sizes) <= 1  # balanced

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ClusterConfig(num_shards=0)
        with pytest.raises(ValueError, match="mode"):
            ClusterConfig(mode="chaotic")
        with pytest.raises(ValueError, match="RetryPolicy"):
            ClusterConfig(
                retry=RetryPolicy(timeout=None),
                chaos=ChaosConfig(drop_probability=0.1),
            )

    def test_chaos_classify_is_seed_deterministic(self):
        config = ChaosConfig(seed=5, drop_probability=0.2, delay_probability=0.3)
        a = MessageChaos(config)
        b = MessageChaos(config)
        stream = [a.classify() for __ in range(200)]
        assert stream == [b.classify() for __ in range(200)]
        assert a.decisions["dropped"] > 0
        assert a.decisions["delayed"] > 0
        assert sum(a.decisions.values()) == 200

    def test_journal_round_trip_and_jsonl_mirror(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ReservationJournal(str(path))
        journal.record_admit(7, (0, 3), 1, "primary")
        journal.record_admit(8, (3, 5), 2, "alternate")
        assert journal.occupancy_for([0, 3, 5]) == {0: 1, 3: 3, 5: 2}
        assert journal.record_release(7) == ((0, 3), 1, "primary")
        assert journal.record_release(7) is None  # idempotent
        assert journal.occupancy_for([0, 3, 5]) == {0: 0, 3: 2, 5: 2}
        journal.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["admit", "admit", "release"]
        assert events[0]["path"] == [0, 3]

    def test_candidates_span_shards(self, quad_network, cluster_policy):
        # An unstarted router is enough to inspect the compiled dispatch:
        # the quadrangle's alternates must produce at least one candidate
        # whose links straddle shards (else two-phase never runs).
        router = ClusterRouter(
            quad_network, cluster_policy, ClusterConfig(num_shards=3)
        )
        multi = 0
        for od, choices in cluster_policy.choices.items():
            for k in range(len(choices)):
                uniform = (k + 0.5) / len(choices)
                candidates = router._candidates_for(od, uniform)
                for __, ___, ____, groups in candidates:
                    assert len(groups) >= 1
                    multi += len(groups) > 1
        assert multi > 0


class TestReplayEquivalence:
    def test_ordered_cluster_matches_engine_bit_for_bit(
        self, quad_network, cluster_policy, cluster_trace, engine_reference
    ):
        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, mode="ordered"),
            )
            async with router:
                report = await replay_trace_cluster(
                    router, cluster_trace, warmup=WARMUP
                )
                audit = await router.audit()
                fastpath = router.telemetry.counter(
                    "serve_cluster_fastpath_total"
                ).value
                twophase = router.telemetry.counter(
                    "serve_cluster_twophase_total"
                ).value
            return report, audit, fastpath, twophase

        report, audit, fastpath, twophase = asyncio.run(run())
        assert report.decisions == engine_reference.decisions
        assert (
            report.result.network_blocking
            == engine_reference.result.network_blocking
        )
        # Both admission paths must actually have been exercised.
        assert fastpath > 0
        assert twophase > 0
        assert audit["consistent"]
        assert audit["leaked_circuits"] == 0

    def test_commits_aborts_and_releases_never_travel_alone(
        self, quad_network, cluster_policy, cluster_trace, engine_reference
    ):
        # A call is answered on its phase-1 votes: its commits, aborts and
        # releases need no reply, so they ride the shard's next frame
        # instead of making frames of their own.
        posts = {"commit", "abort", "release"}

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, mode="ordered",
                              heartbeat_interval=30.0),
            )
            frames = []
            send = router._send_frame

            def spy(sid, record):
                if record.attempt == 0:
                    frames.append({command[0] for command in record.commands})
                send(sid, record)

            router._send_frame = spy
            async with router:
                report = await replay_trace_cluster(
                    router, cluster_trace, warmup=WARMUP
                )
            return report, frames

        report, frames = asyncio.run(run())
        assert report.decisions == engine_reference.decisions
        assert frames
        assert [ops for ops in frames if ops <= posts] == []

    def test_one_request_pipelined_waves_match_ordered_mode(
        self, quad_network, cluster_policy, cluster_trace, engine_reference
    ):
        # Both modes run the one admission walk and differ only in wave
        # size, so one-request pipelined batches must decide like the
        # engine and count attempts exactly as ordered mode does.
        counters = (
            "serve_cluster_fastpath_total",
            "serve_cluster_twophase_total",
            "serve_cluster_crankbacks_total",
        )

        async def run(mode):
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, mode=mode),
            )
            async with router:
                report = await replay_trace_cluster(
                    router, cluster_trace, warmup=WARMUP, batch_size=1
                )
            return report, [router.telemetry.counter(c).value for c in counters]

        __, ordered_counts = asyncio.run(run("ordered"))
        pipelined, pipelined_counts = asyncio.run(run("pipelined"))
        assert pipelined.decisions == engine_reference.decisions
        assert pipelined_counts == ordered_counts

    @pytest.mark.parametrize("case, num_shards, batch_size", [
        pytest.param("quadrangle_case", 3, 512, id="quadrangle"),
        pytest.param("nsfnet_case", 2, 256, id="nsfnet"),
    ])
    def test_pipelined_cluster_is_leak_free_and_complete(
        self, request, case, num_shards, batch_size
    ):
        network, policy, trace = request.getfixturevalue(case)
        requests = trace_requests(trace)
        reference, reference_counts = pipelined_reference(
            network, policy, trace, num_shards, batch_size
        )

        async def run():
            router = ClusterRouter(
                network, policy,
                ClusterConfig(num_shards=num_shards, mode="pipelined"),
            )
            async with router:
                decisions = []
                for i in range(0, len(requests), batch_size):
                    decisions.extend(
                        await router.submit_batch(requests[i:i + batch_size])
                    )
                audit = await router.audit()
            counts = {
                name: router.telemetry.counter(f"serve_cluster_{name}_total").value
                for name in reference_counts
            }
            return decisions, audit, counts

        decisions, audit, counts = asyncio.run(run())
        assert decisions == reference
        assert counts == reference_counts
        assert len(decisions) == len(requests)
        admitted = sum(
            1 for d in decisions if d.admitted and d.tier != "release"
        )
        assert admitted > 0
        assert audit["consistent"]
        assert audit["leaked_circuits"] == 0
        # Mass balance: what stays held is exactly admissions minus the
        # releases that found their call — calls still up at trace end.
        released = sum(
            1 for d in decisions if d.tier == "release" and d.admitted
        )
        assert audit["held_calls"] == admitted - released

    def test_concurrent_pipelined_batches_are_separate_waves(
        self, quad_network, cluster_policy, cluster_trace
    ):
        # Batches gathered together queue on the router lock: each is its
        # own wave, decided as if submitted one after another.
        size = 512
        requests = trace_requests(cluster_trace)[:9 * size]
        reference, __ = pipelined_reference(
            quad_network, cluster_policy, cluster_trace, 3, size
        )

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, mode="pipelined"),
            )
            decisions = []
            async with router:
                for first in range(0, len(requests), 3 * size):
                    answers = await asyncio.gather(*(
                        router.submit_batch(requests[i:i + size])
                        for i in range(first, first + 3 * size, size)
                    ))
                    for batch in answers:
                        decisions.extend(batch)
            return decisions

        assert asyncio.run(run()) == reference[:len(requests)]

    def test_hot_swap_waits_for_the_pipelined_wave_in_progress(
        self, quad_network, cluster_policy, cluster_trace
    ):
        # The router lock serializes a swap against pipelined waves too:
        # a batch already deciding finishes under the bounds it began with.
        size, swap_batch = 256, 22
        requests = trace_requests(cluster_trace)
        reference, __ = pipelined_reference(
            quad_network, cluster_policy, cluster_trace, 3, size
        )
        window = slice(swap_batch * size, (swap_batch + 1) * size)
        assert any(d.tier == "alternate" for d in reference[window])

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, mode="pipelined"),
            )
            async with router:
                for i in range(0, swap_batch * size, size):
                    await router.submit_batch(requests[i:i + size])
                deciding = asyncio.ensure_future(
                    router.submit_batch(requests[window])
                )
                await asyncio.sleep(0)
                await router.hot_swap(
                    alt_thresholds=np.zeros(quad_network.num_links, dtype=int)
                )
                return await deciding, router.policy_epoch

        decisions, epoch = asyncio.run(run())
        assert epoch == 1
        assert decisions == reference[window]


class TestFaultTolerance:
    def test_worker_crash_is_recovered_and_leak_free(
        self, quad_network, cluster_policy, cluster_trace
    ):
        hold = HoldTimerPolicy(duration=0.5)

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(
                    num_shards=3,
                    mode="ordered",
                    retry=RetryPolicy(timeout=0.15, max_retries=5),
                    hold=hold,
                    chaos=ChaosConfig(seed=3, kill_after_ops={0: 800}),
                ),
            )
            async with router:
                report = await replay_trace_cluster(
                    router, cluster_trace, warmup=WARMUP
                )
                restarts = dict(router.supervisor.restarts)
                down = set(router._down)
                await asyncio.sleep(hold.duration + 0.6)
                audit = await router.audit()
            return report, restarts, down, audit

        report, restarts, down, audit = asyncio.run(run())
        assert restarts.get(0, 0) >= 1  # the killed shard came back
        assert not down  # and is up again by run end
        # Every request was answered despite the mid-run crash.
        assert len(report.decisions) == report.requests
        assert audit["consistent"]
        assert audit["leaked_circuits"] == 0
        assert audit["pending_reservations"] == 0

    def test_delay_chaos_keeps_ordered_decisions_identical(
        self, quad_network, cluster_policy, short_trace
    ):
        # Delayed frames must not reorder a shard's commands: a posted
        # release overtaken by the next reserve would change a verdict.
        reference = replay_trace(
            RequestEngine(quad_network, cluster_policy), short_trace,
            warmup=WARMUP,
        )

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(
                    num_shards=3,
                    mode="ordered",
                    chaos=ChaosConfig(seed=11, delay_probability=0.2,
                                      delay_seconds=0.002),
                ),
            )
            async with router:
                report = await replay_trace_cluster(
                    router, short_trace, warmup=WARMUP
                )
                audit = await router.audit()
            return report, audit, dict(router.chaos.decisions)

        report, audit, chaos = asyncio.run(run())
        assert chaos["delayed"] > 0
        assert report.decisions == reference.decisions
        assert audit["consistent"]
        assert audit["leaked_circuits"] == 0
        assert audit["pending_reservations"] == 0

    def test_buffered_group_fails_when_its_shard_goes_down(
        self, quad_network, cluster_policy
    ):
        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                ClusterConfig(num_shards=3, heartbeat_interval=30.0),
            )
            async with router:
                # Marked down in the same loop step, before any flush:
                # the group is still buffered and must fail, not hang.
                buffered = router._enqueue(0, [("ping",)])
                router._mark_down(0, "test-induced")
                with pytest.raises(ShardDown):
                    await asyncio.wait_for(buffered, 2.0)
                stopped = router._enqueue(1, [("ping",)])
            # Stopping the router answers everything it still owed.
            with pytest.raises(ShardDown):
                await asyncio.wait_for(stopped, 2.0)

        asyncio.run(run())

    def test_down_shard_degrades_instead_of_failing(
        self, quad_network, cluster_policy
    ):
        from repro.serve.engine import AdmitRequest

        async def run():
            router = ClusterRouter(
                quad_network, cluster_policy,
                # A lazy heartbeat keeps the monitor from resurrecting the
                # hand-downed shard mid-test.
                ClusterConfig(num_shards=3, mode="ordered",
                              heartbeat_interval=30.0),
            )
            async with router:
                # Declare shards 0 and 1 dead by hand: the router must
                # keep serving calls it can route entirely on shard 2 (on
                # the empty quadrangle an alternate dodges any *single*
                # shard) and refuse the rest with the dedicated reason.
                router._mark_down(0, "test-induced")
                router._mark_down(1, "test-induced")
                decisions = []
                i = 0
                for od in cluster_policy.choices:
                    decisions.append(await router.submit(
                        AdmitRequest(id=i, od=od, uniform=0.0, time=0.0)
                    ))
                    i += 1
                audit_down = sorted(router._down)
            return decisions, audit_down

        decisions, down = asyncio.run(run())
        assert down == [0, 1]
        served = [d for d in decisions if d.admitted]
        refused = [d for d in decisions if not d.admitted]
        assert served  # degradation, not blackout
        assert refused  # no route avoids two of three shards for every pair
        assert {d.reason for d in refused} == {"shard-down"}
