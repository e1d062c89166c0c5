"""SERVE — decision throughput and overload behaviour of the serving plane.

Two workloads over the same NSFNet nominal-traffic trace:

* **Serial vs batched dispatch** — the identical request stream (arrivals
  and releases in simulator event order) decided one request per
  :meth:`RequestEngine.decide` call vs micro-batches through
  :meth:`decide_batch`.  The decision lists must be identical — batching
  only amortizes per-request overhead (state snapshot, telemetry fold,
  latency stamping) — and the batched rate must clear the 3x bar.
* **2x overload** — the token-bucket rate is set to half the offered
  request rate, so the service *must* shed roughly half the queries to
  survive.  The run must stay deterministic (virtual-time bucket), shed a
  substantial fraction, keep the decision-latency p99 bounded, and record
  explicit mode transitions (the degrade/shed/recover trajectory).

Results land in ``BENCH_serve_throughput.json`` at the repo root, with
the machine they ran on (perfbench's environment block, shared through
the ``bench_environment`` fixture).
Fidelity knobs shared with the other benchmarks: ``REPRO_BENCH_SEEDS``
(unused here), ``REPRO_BENCH_DURATION``, and ``REPRO_BENCH_SPEEDUP_SCALE``
for CI's timing-noise-dominated smoke runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.serve.loadgen import measure_overload, measure_throughput
from repro.sim.trace import generate_trace
from repro.routing.alternate import ControlledAlternateRouting
from repro.topology.nsfnet import nsfnet_backbone
from repro.topology.paths import build_path_table
from repro.traffic.calibration import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_serve_throughput.json"

_SPEEDUP_SCALE = float(os.environ.get("REPRO_BENCH_SPEEDUP_SCALE", "1.0"))
_BATCH_SPEEDUP_BAR = 3.0 * _SPEEDUP_SCALE
#: Per-decision p99 under 2x overload; generous because tiny CI runs put
#: whole-batch overhead on few decisions, yet tight enough to prove the
#: service answers instead of queueing (an unbounded queue shows up as
#: milliseconds-and-growing here).
_OVERLOAD_P99_BAR_SECONDS = 0.005


def test_serve_throughput(bench_config, bench_environment):
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic()
    loads = primary_link_loads(network, table, traffic)
    policy = ControlledAlternateRouting(network, table, loads)
    trace = generate_trace(
        traffic, bench_config.measured_duration + 10.0, seed=42
    )

    throughput = measure_throughput(network, policy, trace)
    assert throughput["speedup"] >= _BATCH_SPEEDUP_BAR, (
        f"batched dispatch {throughput['speedup']:.2f}x below the "
        f"{_BATCH_SPEEDUP_BAR:g}x bar"
    )

    overload = measure_overload(network, policy, trace, overload_factor=2.0)
    assert overload["shed"] > 0, "2x overload shed nothing"
    assert 0.2 <= overload["shed_fraction"] <= 0.8, (
        f"2x overload shed {overload['shed_fraction']:.1%} of queries; "
        "expected roughly half"
    )
    assert overload["mode_transitions"] >= 2, (
        "overload control never cycled through its modes"
    )
    assert overload["decision_p99_seconds"] <= _OVERLOAD_P99_BAR_SECONDS, (
        f"decision p99 {overload['decision_p99_seconds'] * 1e6:.0f}us under "
        "overload: the service is queueing instead of shedding"
    )

    document = {
        "schema": "repro-bench-serve-throughput-v1",
        "environment": bench_environment,
        "fidelity": {
            "measured_duration": bench_config.measured_duration,
            "speedup_scale": _SPEEDUP_SCALE,
        },
        "workload": (
            "NSFNet nominal traffic, controlled alternate routing, "
            "simulator-ordered admit/release request stream"
        ),
        "throughput": throughput,
        "overload": overload,
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print()
    print(
        f"serial  : {throughput['serial_decisions_per_sec']:,.0f} decisions/sec"
    )
    print(
        f"batched : {throughput['batched_decisions_per_sec']:,.0f} decisions/sec"
        f"  ({throughput['speedup']:.2f}x, identical decisions)"
    )
    print(
        f"overload: shed {overload['shed_fraction']:.1%}, "
        f"{overload['mode_transitions']} transitions, "
        f"p99 {overload['decision_p99_seconds'] * 1e6:.1f}us"
    )
    print(f"wrote {_OUTPUT}")
