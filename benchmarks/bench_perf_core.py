"""PERF-CORE — timing trajectory for the vectorized analysis/simulation core.

Three workloads, each timed against the retained unvectorized reference
path (``backend="reference"`` for the simulator, the loop oracles in
``tests/oracles/analysis.py`` for the analysis kernels) and checked for
agreement before any speedup is reported:

* **Erlang fixed point, NSFNet sweep** — the reduced-load approximation
  over a grid of load scales, cold caches.  Analysis agreement is numeric
  (~1e-12 relative; the batch Erlang kernel changes float accumulation
  order), the speedup bar is 3x.
* **Simulator throughput** — calls/sec through the specialized hot loop vs
  the general loop, same trace.  Blocking statistics must be bit-identical
  (integer counters, identical routing decisions); the speedup bar is 1.5x.
* **Multi-seed batch** — the replication protocol through the ``repro.api``
  façade, reported for trajectory only (no reference bar).

Results land in ``BENCH_perf_core.json`` at the repo root, with the
machine and code they were measured on (perfbench's ``environment()``
block, shared through the ``bench_environment`` fixture).  Fidelity knobs
(shared with the other benchmarks): ``REPRO_BENCH_SEEDS``,
``REPRO_BENCH_DURATION``; CI's reduced-fidelity smoke run scales the
speedup bars down with ``REPRO_BENCH_SPEEDUP_SCALE`` because tiny runs are
timing-noise-dominated.

Timing uses interleaved best-of-N: alternating reference/fast rounds and
taking each side's minimum cancels CPU frequency drift that sequential
timing folds into whichever side runs second.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis import fixed_point
from repro.analysis.fixed_point import erlang_fixed_point
from repro.api import Scenario, run_study
from repro.core.erlang import shared_erlang_table
from repro.routing.alternate import ControlledAlternateRouting
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.nsfnet import nsfnet_backbone
from repro.topology.paths import build_path_table
from repro.traffic.calibration import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads
from tests.oracles.analysis import erlang_fixed_point_reference

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_perf_core.json"

_SPEEDUP_SCALE = float(os.environ.get("REPRO_BENCH_SPEEDUP_SCALE", "1.0"))
_FP_SPEEDUP_BAR = 3.0 * _SPEEDUP_SCALE
_SIM_SPEEDUP_BAR = 1.5 * _SPEEDUP_SCALE


def _clear_analysis_caches() -> None:
    shared_erlang_table.clear()
    fixed_point._FLATTEN_CACHE.clear()


def _interleaved_best(funcs: dict[str, callable], rounds: int) -> dict[str, float]:
    """Best-of-``rounds`` wall time per labelled callable, interleaved."""
    best = {name: float("inf") for name in funcs}
    for _ in range(rounds):
        for name, func in funcs.items():
            start = time.perf_counter()
            func()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _fixed_point_bench() -> dict:
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic()
    scales = np.linspace(0.5, 1.5, 20)

    def sweep(solve) -> list[float]:
        _clear_analysis_caches()
        return [
            solve(network, table, traffic.scaled(float(s))).network_blocking
            for s in scales
        ]

    fast = sweep(erlang_fixed_point)
    ref = sweep(erlang_fixed_point_reference)
    worst = max(
        abs(f - r) / max(abs(r), 1e-30) for f, r in zip(fast, ref)
    )
    assert worst < 1e-9, f"fixed-point sweep diverged from reference: {worst:.3e}"

    timings = _interleaved_best(
        {
            "reference": lambda: sweep(erlang_fixed_point_reference),
            "vectorized": lambda: sweep(erlang_fixed_point),
        },
        rounds=3,
    )
    speedup = timings["reference"] / timings["vectorized"]
    assert speedup >= _FP_SPEEDUP_BAR, (
        f"NSFNet fixed-point sweep speedup {speedup:.2f}x "
        f"below the {_FP_SPEEDUP_BAR:g}x bar"
    )
    return {
        "workload": "NSFNet reduced-load fixed point, 20 load scales, cold caches",
        "reference_seconds": timings["reference"],
        "vectorized_seconds": timings["vectorized"],
        "speedup": speedup,
        "worst_relative_error": worst,
        "points": len(scales),
    }


def _simulator_bench(duration: float) -> dict:
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic()
    loads = primary_link_loads(network, table, traffic)
    policy = ControlledAlternateRouting(network, table, loads)
    trace = generate_trace(traffic, duration + 10.0, seed=42)

    fast = simulate(network, policy, trace, warmup=10.0)
    ref = simulate(network, policy, trace, warmup=10.0, backend="reference")
    for name in ("offered", "blocked", "primary_carried", "alternate_carried"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), (
            f"simulator fast path diverged from reference on {name!r}"
        )

    timings = _interleaved_best(
        {
            "reference": lambda: simulate(
                network, policy, trace, warmup=10.0, backend="reference"
            ),
            "fast": lambda: simulate(network, policy, trace, warmup=10.0),
        },
        rounds=3,
    )
    speedup = timings["reference"] / timings["fast"]
    assert speedup >= _SIM_SPEEDUP_BAR, (
        f"simulator throughput speedup {speedup:.2f}x "
        f"below the {_SIM_SPEEDUP_BAR:g}x bar"
    )
    calls = len(trace.times)
    return {
        "workload": (
            "NSFNet nominal traffic, controlled alternate routing, "
            f"{duration:g} measured time units"
        ),
        "calls": calls,
        "reference_seconds": timings["reference"],
        "fast_seconds": timings["fast"],
        "reference_calls_per_sec": calls / timings["reference"],
        "fast_calls_per_sec": calls / timings["fast"],
        "speedup": speedup,
        "network_blocking": fast.network_blocking,
        "blocking_bit_identical": True,
    }


def _batch_bench(config) -> dict:
    scenario = Scenario()
    start = time.perf_counter()
    study = run_study(scenario, config=config)
    elapsed = time.perf_counter() - start
    calls = sum(r.total_offered for r in study.outcome.results)
    return {
        "workload": (
            "repro.api.run_study: NSFNet nominal, controlled policy, "
            f"{len(config.seeds)} seeds x {config.measured_duration:g} units"
        ),
        "seeds": len(config.seeds),
        "seconds": elapsed,
        "measured_calls": calls,
        "calls_per_sec": calls / elapsed,
        "network_blocking_mean": study.stat.mean,
    }


def test_perf_core(bench_config, bench_environment):
    document = {
        "schema": "repro-bench-perf-core-v1",
        "environment": bench_environment,
        "fidelity": {
            "seeds": len(bench_config.seeds),
            "measured_duration": bench_config.measured_duration,
            "speedup_scale": _SPEEDUP_SCALE,
        },
        "erlang_fixed_point": _fixed_point_bench(),
        "simulator": _simulator_bench(bench_config.measured_duration),
        "multi_seed_batch": _batch_bench(bench_config),
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print()
    fp = document["erlang_fixed_point"]
    sim = document["simulator"]
    batch = document["multi_seed_batch"]
    print(f"fixed point : {fp['speedup']:.1f}x  (worst rel err {fp['worst_relative_error']:.1e})")
    print(f"simulator   : {sim['speedup']:.2f}x  ({sim['fast_calls_per_sec']:,.0f} calls/sec)")
    print(f"batch       : {batch['calls_per_sec']:,.0f} calls/sec over {batch['seeds']} seeds")
    print(f"wrote {_OUTPUT}")
