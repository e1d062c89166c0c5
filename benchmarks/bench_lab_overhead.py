"""LAB-OVERHEAD — cost of lab orchestration over a direct ``run_study``.

The lab runner adds hashing, per-job checkpoint writes, manifest rewrites,
and event emission around the exact same simulation work.  This benchmark
times the paper's nominal NSFNet study of two policies on common random
numbers (``controlled`` and ``dar``, perfbench's study-nsfnet workload)
three ways:

* **direct** — ``run_study(scenario, policies=..., config=config)``, no lab;
* **lab cold** — the same call through a fresh content-addressed store
  (every replication simulated and checkpointed);
* **lab warm** — the same call against the populated store (100% cache
  hits, no simulation).

Two policies make the comparison honest about shared work: a direct study
builds each seed's trace once for both policies, and so must the lab.  The
cold pass must be bit-identical to the direct run.  Each round times the
direct study and the cold pass back to back, and the overhead is the
median over rounds of the round's ``cold / direct - 1``: the box's speed
drifts between rounds, so two timings are only compared within one round.
It must stay under the bar (default 5%; the paper-fidelity number is the
committed ``BENCH_lab_overhead.json``, with every round's pair and the
machine it ran on).  Short CI runs
amortize the fixed orchestration cost over far less simulation, so the bar
is tunable via ``REPRO_BENCH_LAB_OVERHEAD_PCT``.  Fidelity knobs are shared
with the other benchmarks: ``REPRO_BENCH_SEEDS``, ``REPRO_BENCH_DURATION``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.api import LabConfig, Scenario, run_study

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_lab_overhead.json"

_OVERHEAD_BAR_PCT = float(os.environ.get("REPRO_BENCH_LAB_OVERHEAD_PCT", "5.0"))
_ROUNDS = 3
_POLICIES = ("controlled", "dar")


def test_lab_overhead(bench_config, bench_environment, tmp_path):
    scenario = Scenario()

    # Every lab round gets a fresh store so each one pays the full
    # cold-cache cost.
    rounds = []
    direct = cold = None
    for round_index in range(_ROUNDS):
        start = time.perf_counter()
        direct = run_study(scenario, policies=_POLICIES, config=bench_config)
        direct_seconds = time.perf_counter() - start

        store = tmp_path / f"store-{round_index}"
        start = time.perf_counter()
        cold = run_study(scenario, policies=_POLICIES, config=bench_config,
                         lab=LabConfig(store=store))
        cold_seconds = time.perf_counter() - start
        rounds.append({
            "direct_seconds": direct_seconds,
            "lab_cold_seconds": cold_seconds,
            "overhead_pct": 100.0 * (cold_seconds / direct_seconds - 1.0),
        })

    assert cold.lab.simulated == len(_POLICIES) * len(bench_config.seeds)
    assert cold.blocking() == direct.blocking()
    for name in _POLICIES:
        assert np.array_equal(cold.blocked_matrix(name),
                              direct.blocked_matrix(name))
        assert np.array_equal(cold.offered_matrix(name),
                              direct.offered_matrix(name))

    # Warm pass: same study against the last populated store.
    store = tmp_path / f"store-{_ROUNDS - 1}"
    start = time.perf_counter()
    warm = run_study(scenario, policies=_POLICIES, config=bench_config,
                     lab=LabConfig(store=store))
    warm_seconds = time.perf_counter() - start
    assert warm.lab.cache_hits == warm.lab.total_jobs
    assert warm.lab.simulated == 0
    assert warm.blocking() == direct.blocking()

    overhead_pct = float(np.median([pair["overhead_pct"] for pair in rounds]))
    median_direct = float(np.median([pair["direct_seconds"] for pair in rounds]))
    assert overhead_pct <= _OVERHEAD_BAR_PCT, (
        f"lab orchestration overhead {overhead_pct:.1f}% (median of "
        f"{len(rounds)} paired rounds) exceeds the {_OVERHEAD_BAR_PCT:g}% bar"
    )

    document = {
        "schema": "repro-bench-lab-overhead-v3",
        "environment": bench_environment,
        "workload": (
            "repro.api.run_study: NSFNet nominal, policies "
            f"{' + '.join(_POLICIES)} on common random numbers, "
            f"{len(bench_config.seeds)} seeds x "
            f"{bench_config.measured_duration:g} units"
        ),
        "fidelity": {
            "seeds": len(bench_config.seeds),
            "measured_duration": bench_config.measured_duration,
            "overhead_bar_pct": _OVERHEAD_BAR_PCT,
        },
        "rounds": rounds,
        "overhead_pct": overhead_pct,
        "lab_warm_seconds": warm_seconds,
        "warm_speedup_vs_direct": median_direct / warm_seconds,
        "bit_identical": True,
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print()
    for index, pair in enumerate(rounds):
        print(f"round {index}: direct {pair['direct_seconds']:.3f}s, "
              f"lab cold {pair['lab_cold_seconds']:.3f}s "
              f"({pair['overhead_pct']:+.2f}%)")
    print(f"overhead : {overhead_pct:+.2f}% (median of paired rounds)")
    print(f"lab warm : {warm_seconds:.3f}s  "
          f"({median_direct / warm_seconds:.0f}x faster than direct)")
    print(f"wrote {_OUTPUT}")
