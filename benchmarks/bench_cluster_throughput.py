"""CLUSTER — decision throughput of the sharded admission cluster's two modes.

One trace, replayed in process through a four-shard
:class:`~repro.serve.cluster.ClusterRouter` twice: the symmetric
quadrangle (the paper's canonical topology) under 95% uniform load,
submitted in 1024-request batches by
:func:`~repro.serve.loadgen.replay_trace_cluster`.  The shard workers are
the only other processes, so the rates measure the router, its frames
and the shards, not client processes or a socket front end.

* **ordered** — one wave per request; its decisions must equal the
  in-process :class:`~repro.serve.engine.RequestEngine`'s;
* **pipelined** — one wave per batch, so a round's commands to a shard
  share one frame; its decisions and its fast-path, two-phase and
  crankback counts must equal the process-free wave reference
  (``tests/oracles/cluster.py``).

The bench asserts pipelined ≥ 3x ordered, scaled by
``REPRO_BENCH_SPEEDUP_SCALE`` for reduced-fidelity runs as in the other
benchmarks.  The ratio measures how a wave amortizes frames over its
requests, not how many cores the shards get, so the bar does not depend
on the CPU count.  Blocking differs between the modes: a pipelined wave
decides its admissions in rounds rather than in request order, with the
releases of earlier calls first and of its own calls last.

Results land in ``BENCH_cluster_throughput.json`` at the repo root,
with the machine and code they were measured on (perfbench's
``environment()`` block: CPUs, Python, numpy, git SHA) so a reader can
judge the number.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

from repro.routing.alternate import ControlledAlternateRouting
from repro.serve import (
    ClusterConfig,
    ClusterRouter,
    RequestEngine,
    replay_trace,
    replay_trace_cluster,
)
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic
from tests.oracles.cluster import pipelined_reference

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_cluster_throughput.json"

_NUM_SHARDS = 4
_BATCH_SIZE = 1024
_WARMUP = 10.0
_COUNTERS = ("fastpath", "twophase", "crankbacks")

_SPEEDUP_SCALE = float(os.environ.get("REPRO_BENCH_SPEEDUP_SCALE", "1.0"))
_PIPELINED_SPEEDUP_BAR = 3.0 * _SPEEDUP_SCALE


def _replay(network, policy, trace, mode):
    async def run():
        router = ClusterRouter(
            network, policy, ClusterConfig(num_shards=_NUM_SHARDS, mode=mode)
        )
        async with router:
            report = await replay_trace_cluster(
                router, trace, warmup=_WARMUP, batch_size=_BATCH_SIZE
            )
            audit = await router.audit()
        counts = {
            name: int(router.telemetry.counter(f"serve_cluster_{name}_total").value)
            for name in _COUNTERS
        }
        return report, audit, counts

    return asyncio.run(run())


def test_cluster_throughput(bench_config, bench_environment):
    network = quadrangle(100)
    table = build_path_table(network)
    traffic = uniform_traffic(network.num_nodes, 95.0)
    loads = primary_link_loads(network, table, traffic)
    policy = ControlledAlternateRouting(network, table, loads)
    trace = generate_trace(
        traffic, bench_config.measured_duration + _WARMUP, seed=42
    )

    engine = replay_trace(RequestEngine(network, policy), trace, warmup=_WARMUP)
    ordered, ordered_audit, __ = _replay(network, policy, trace, "ordered")
    assert ordered.decisions == engine.decisions, "ordered cluster != engine"
    pipelined, pipelined_audit, counts = _replay(network, policy, trace, "pipelined")
    reference, reference_counts = pipelined_reference(
        network, policy, trace, _NUM_SHARDS, _BATCH_SIZE
    )
    assert list(pipelined.decisions) == reference, "pipelined cluster != oracle"
    assert counts == reference_counts
    for audit in (ordered_audit, pipelined_audit):
        assert audit["consistent"] and audit["leaked_circuits"] == 0

    speedup = pipelined.decisions_per_second / ordered.decisions_per_second
    assert speedup >= _PIPELINED_SPEEDUP_BAR, (
        f"pipelined {speedup:.2f}x ordered, below the "
        f"{_PIPELINED_SPEEDUP_BAR:g}x bar (scale {_SPEEDUP_SCALE:g})"
    )

    def mode(report):
        return {
            "decisions_per_sec": report.decisions_per_second,
            "seconds": report.wall_seconds,
            "network_blocking": report.result.network_blocking,
        }

    document = {
        "schema": "repro-bench-cluster-throughput-v2",
        "environment": bench_environment,
        "fidelity": {
            "measured_duration": bench_config.measured_duration,
            "speedup_scale": _SPEEDUP_SCALE,
            "speedup_bar": _PIPELINED_SPEEDUP_BAR,
        },
        "workload": (
            "quadrangle(100) at 95% uniform load, controlled alternate "
            f"routing, seed-42 trace replayed in process in {_BATCH_SIZE}-"
            f"request batches through {_NUM_SHARDS} shards"
        ),
        "cluster": {
            "requests": ordered.requests,
            "calls": len(trace.times),
            "num_shards": _NUM_SHARDS,
            "batch_size": _BATCH_SIZE,
            "engine_network_blocking": engine.result.network_blocking,
            "ordered": mode(ordered),
            "pipelined": mode(pipelined) | counts,
            "speedup": speedup,
        },
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print()
    for name, report in (("ordered", ordered), ("pipelined", pipelined)):
        print(
            f"{name:9s}: {report.decisions_per_second:,.0f} decisions/sec, "
            f"blocking {report.result.network_blocking:.4f}"
        )
    print(
        f"speedup  : {speedup:.2f}x (bar {_PIPELINED_SPEEDUP_BAR:g}x); engine "
        f"blocking {engine.result.network_blocking:.4f}"
    )
    print(f"wrote {_OUTPUT}")
