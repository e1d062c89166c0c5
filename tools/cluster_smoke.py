#!/usr/bin/env python
"""CI smoke test for the sharded admission cluster's fault tolerance.

Three live cluster runs over the quadrangle workload, cross-checked
against the single-process engine:

1. **fault-free** — an ordered-mode cluster (3 shards) replays the
   trace; every decision must be bit-identical to
   :class:`repro.serve.engine.RequestEngine` on the same trace and the
   journal audit must show zero leaked circuits and zero pending
   reservations (the replay-equivalence oracle, exercised end to end
   through real worker processes);
2. **message chaos** — the same replay under the chaos plan below minus
   its kill: frames are dropped and delayed, none is lost for good, so
   every decision must still equal the engine's (a shard applies its
   commands in the order the router sent them, however late a frame
   arrives) and, after the hold-timer horizon, the audit must be clean;
3. **chaos** — the same workload under a seeded fault plan: shard 1
   self-crashes mid-run (``kill_after_ops``) and the router's transport
   drops/delays frames under seeded RNG control.  The run must
   *recover* (the supervisor restarts exactly the killed shard, every
   shard is up at the end), decisions must stay bit-identical on the
   fault-free prefix of the stream, any ``shard-down`` rejection must
   belong to a call whose candidate routes actually touch the killed
   shard, and — once the reservation hold-timer horizon has passed —
   the journal audit must report zero leaked circuits and zero pending
   reservations.

Artifacts (JSONL journal, telemetry snapshots, a summary) land in the
chosen workdir for CI upload.

Usage: PYTHONPATH=src python tools/cluster_smoke.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.routing.alternate import ControlledAlternateRouting  # noqa: E402
from repro.serve.chaos import ChaosConfig  # noqa: E402
from repro.serve.cluster import ClusterConfig, ClusterRouter  # noqa: E402
from repro.serve.engine import AdmitRequest, RequestEngine  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    replay_trace,
    replay_trace_cluster,
    trace_requests,
)
from repro.sim.sigpolicy import HoldTimerPolicy, RetryPolicy  # noqa: E402
from repro.sim.trace import generate_trace  # noqa: E402
from repro.topology.generators import quadrangle  # noqa: E402
from repro.topology.paths import build_path_table  # noqa: E402
from repro.traffic.demand import primary_link_loads  # noqa: E402
from repro.traffic.generators import uniform_traffic  # noqa: E402

NUM_SHARDS = 3
KILLED_SHARD = 1
WARMUP = 1.0
DURATION = 6.0
#: Shard-1 command count at which the chaos worker self-crashes; chosen
#: to land roughly mid-trace so the fault-free prefix is substantial.
KILL_AFTER_OPS = 2000

CHAOS = ChaosConfig(
    seed=11,
    kill_after_ops={KILLED_SHARD: KILL_AFTER_OPS},
    drop_probability=0.004,
    delay_probability=0.02,
    delay_seconds=0.01,
)
RETRY = RetryPolicy(timeout=0.15, max_retries=6, backoff_factor=1.5)
HOLD = HoldTimerPolicy(duration=0.6)


def build_workload():
    network = quadrangle(100)
    table = build_path_table(network)
    traffic = uniform_traffic(network.num_nodes, 95.0)
    loads = primary_link_loads(network, table, traffic)
    policy = ControlledAlternateRouting(network, table, loads)
    trace = generate_trace(traffic, duration=DURATION, seed=7)
    return network, policy, trace


def touches_shard(probe: ClusterRouter, request: AdmitRequest, shard: int) -> bool:
    """Whether any of the request's candidate routes lands on ``shard``."""
    candidates = probe._candidates_for(request.od, request.uniform)
    if candidates is None:
        return False
    return any(
        sid == shard
        for __, ___, ____, groups in candidates
        for sid, _____ in groups
    )


def write_jsonl(path: Path, events: list[dict]) -> None:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


async def exact_run(network, policy, trace, reference, workdir: Path,
                    name: str, config: ClusterConfig,
                    settle: float = 0.0) -> dict:
    """Replay under ``config``: every decision must equal the engine's and,
    ``settle`` seconds after the replay, the audit must be clean."""
    router = ClusterRouter(network, policy, config)
    async with router:
        report = await replay_trace_cluster(router, trace, warmup=WARMUP)
        await asyncio.sleep(settle)
        audit = await router.audit()
        telemetry = router.telemetry.snapshot()
    mismatches = sum(
        1 for mine, theirs in zip(report.decisions, reference.decisions)
        if mine != theirs
    )
    if mismatches or len(report.decisions) != len(reference.decisions):
        raise SystemExit(
            f"{name} cluster diverged from the engine on "
            f"{mismatches}/{len(report.decisions)} decisions"
        )
    if (not audit["consistent"] or audit["leaked_circuits"]
            or audit["pending_reservations"]):
        raise SystemExit(f"{name} audit not clean: {audit}")
    write_jsonl(workdir / f"cluster-{name}-telemetry.jsonl",
                [{"kind": "cluster_metrics", **telemetry}])
    return {
        "requests": len(report.decisions),
        "blocking": report.result.network_blocking,
        "decisions_per_second": report.decisions_per_second,
        "chaos": None if router.chaos is None else dict(router.chaos.decisions),
        "audit": {k: audit[k] for k in
                  ("consistent", "leaked_circuits", "pending_reservations",
                   "held_calls")},
    }


async def chaos_run(network, policy, trace, reference, workdir: Path) -> dict:
    config = ClusterConfig(
        num_shards=NUM_SHARDS,
        mode="ordered",
        retry=RETRY,
        hold=HOLD,
        chaos=CHAOS,
        journal_path=str(workdir / "cluster-chaos-journal.jsonl"),
    )
    router = ClusterRouter(network, policy, config)
    #: Unstarted twin used purely to answer "do this call's candidate
    #: routes touch the killed shard" — same partitioning, no processes.
    probe = ClusterRouter(network, policy,
                          ClusterConfig(num_shards=NUM_SHARDS))
    requests = trace_requests(trace)
    async with router:
        report = await replay_trace_cluster(router, trace, warmup=WARMUP)
        restarts = dict(router.supervisor.restarts)
        down_during = sorted(router._down)
        # Let the hold-timer horizon pass so any reservation orphaned by
        # a dropped abort or the crash itself has been reaped, then audit.
        await asyncio.sleep(HOLD.duration + 0.8)
        audit = await router.audit()
        telemetry = router.telemetry.snapshot()

    if restarts.get(KILLED_SHARD, 0) < 1:
        raise SystemExit(
            f"shard {KILLED_SHARD} was never restarted: {restarts}"
        )
    innocents = {sid: n for sid, n in restarts.items()
                 if n and sid != KILLED_SHARD}
    if innocents:
        raise SystemExit(f"shards restarted without being killed: {innocents}")
    if down_during:
        raise SystemExit(f"shards still down at end of run: {down_during}")
    if not audit["consistent"] or audit["leaked_circuits"]:
        raise SystemExit(f"post-recovery audit not clean: {audit}")
    if audit["pending_reservations"]:
        raise SystemExit(
            f"{audit['pending_reservations']} reservations survived the "
            "hold-timer horizon"
        )

    first_mismatch = None
    for i, (mine, theirs) in enumerate(
        zip(report.decisions, reference.decisions)
    ):
        if mine != theirs:
            first_mismatch = i
            break
    prefix = len(requests) if first_mismatch is None else first_mismatch
    if prefix < len(requests) // 4:
        raise SystemExit(
            f"decisions diverged at request {prefix}/{len(requests)}, "
            "before the injected crash could have fired"
        )

    unavoidable = 0
    for request, decision in zip(requests, report.decisions):
        if decision.reason != "shard-down":
            continue
        unavoidable += 1
        if not touches_shard(probe, request, KILLED_SHARD):
            raise SystemExit(
                f"call {request.id} was rejected shard-down but none of "
                f"its routes touch shard {KILLED_SHARD}"
            )

    write_jsonl(workdir / "cluster-chaos-telemetry.jsonl",
                [{"kind": "cluster_metrics", **telemetry}])
    journal = workdir / "cluster-chaos-journal.jsonl"
    if not journal.is_file() or not journal.stat().st_size:
        raise SystemExit("chaos run left no journal JSONL")
    return {
        "requests": len(report.decisions),
        "restarts": restarts,
        "fault_free_prefix": prefix,
        "shard_down_rejections": unavoidable,
        "audit": {k: audit[k] for k in
                  ("consistent", "leaked_circuits", "pending_reservations")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workdir", type=Path, default=Path("cluster-smoke-artifacts")
    )
    args = parser.parse_args()
    workdir = args.workdir.resolve()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    network, policy, trace = build_workload()
    engine = RequestEngine(network, policy)
    reference = replay_trace(engine, trace, warmup=WARMUP)

    print("[1/3] fault-free ordered cluster vs engine (bit-equivalence)")
    started = time.perf_counter()
    fault_free = asyncio.run(exact_run(
        network, policy, trace, reference, workdir, "fault-free",
        ClusterConfig(num_shards=NUM_SHARDS, mode="ordered"),
    ))
    print(
        f"      {fault_free['requests']} decisions identical, blocking "
        f"{fault_free['blocking']:.4f}, "
        f"{fault_free['decisions_per_second']:,.0f}/s"
    )

    print("[2/3] seeded message drop/delay, no kill (bit-equivalence)")
    message_chaos = asyncio.run(exact_run(
        network, policy, trace, reference, workdir, "message-chaos",
        ClusterConfig(
            num_shards=NUM_SHARDS, mode="ordered", retry=RETRY, hold=HOLD,
            chaos=dataclasses.replace(CHAOS, kill_after_ops={}),
        ),
        settle=HOLD.duration + 0.8,
    ))
    print(
        f"      {message_chaos['requests']} decisions identical under "
        f"{message_chaos['chaos']}, audit {message_chaos['audit']}"
    )

    print("[3/3] seeded chaos: kill shard 1 mid-run + message drop/delay")
    chaos = asyncio.run(chaos_run(network, policy, trace, reference, workdir))
    print(
        f"      recovered (restarts {chaos['restarts']}), fault-free "
        f"prefix {chaos['fault_free_prefix']}/{chaos['requests']}, "
        f"{chaos['shard_down_rejections']} shard-down rejections (all on "
        f"routes touching shard {KILLED_SHARD}), audit {chaos['audit']}"
    )

    summary = {
        "kind": "cluster_smoke_summary",
        "elapsed_seconds": time.perf_counter() - started,
        "fault_free": fault_free,
        "message_chaos": message_chaos,
        "chaos": chaos,
    }
    write_jsonl(workdir / "cluster-smoke-summary.jsonl", [summary])
    print(f"OK: artifacts in {workdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
