"""EXP-CTL — the online protection-level optimizer, measured end to end.

EXP-ADV left a quantified wound: under the seeded adversarial workload the
static Equation-15 deployment blocks ~1.65x the stationary control, and the
naive EWMA recompute makes it *worse*.  This benchmark regenerates the
EXP-CTL study to certify the fix (:mod:`repro.control`):

* **steady-state blocking** — static vs EWMA-recompute vs the online
  controller vs the offline-optimal-in-hindsight reference, per workload
  on common random numbers; the online arm must strictly beat static on
  the adversarial workload and close a measurable fraction of the
  static-to-stationary gap;
* **safety** — every proposal crosses the Theorem-1
  :class:`~repro.control.controllers.SafetyClamp`; the run must record
  zero clamp violations (the guarantee is never traded for throughput);
* **swap overhead** — hot swaps are atomic between micro-batches; their
  measured latency must stay in the sub-millisecond range;
* **tracking** — swap counts and time-to-reconverge from the serve-plane
  regime-shift report, plus, on every seed, bit-identity of the EWMA arm
  against the serve engine replaying the same adaptation
  (``ewma_engine_matches_loop``).

Results land in ``BENCH_control_loop.json`` at the repo root.  Fidelity
knobs shared with the other benchmarks: ``REPRO_BENCH_SEEDS``,
``REPRO_BENCH_DURATION``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.control import control_loop_study
from repro.experiments.report import format_table

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_control_loop.json"

#: Hot swaps happen between engine micro-batches; anything slower than
#: this bound would be visible in decision latency tails.
_SWAP_SECONDS_BOUND = 0.005


def test_control_loop(bench_config):
    study = control_loop_study(config=bench_config)

    rows = []
    for spec, doc in study["workloads"].items():
        rows.append([
            spec,
            doc["static_blocking"]["mean"],
            doc["ewma_blocking"]["mean"],
            doc["online_blocking"]["mean"],
            doc["hindsight_blocking"]["mean"],
            "-" if doc["gap_closed"] is None else f"{doc['gap_closed']:.0%}",
            doc["serve"]["swap_events"],
            "-" if doc["serve"]["time_to_reconverge"] is None
            else f"{doc['serve']['time_to_reconverge']:.1f}",
        ])
    print()
    print("EXP-CTL: online protection-level control (regenerated):")
    print(format_table(
        ["workload", "static B", "ewma B", "online B", "hindsight B",
         "gap closed", "swaps", "t-reconverge"],
        rows,
    ))
    print(
        f"stationary reference: "
        f"{study['stationary_blocking']['mean']:.4f} network blocking"
    )

    workloads = study["workloads"]
    for spec, doc in workloads.items():
        # Safety is non-negotiable: no proposal may cross the Theorem-1
        # floor, whatever the estimator believes about the demand.
        assert doc["clamp_violations"] == 0, (
            f"{spec}: controller violated the Theorem-1 protection floor"
        )
        # The serve engine replaying the EWMA arm's adaptation must agree
        # with the adaptive simulator bit for bit, on every seed.
        assert doc["ewma_engine_matches_loop"], (
            f"{spec}: engine replay diverged from the adaptive simulator"
        )
        # The loop must actually run and swap: a controller that never
        # moves the thresholds is indistinguishable from static.
        assert doc["control_steps_per_run"] > 0, f"{spec}: loop never stepped"
        assert doc["serve"]["policy_epoch"] > 0, f"{spec}: no hot swap landed"
        assert doc["serve"]["time_to_reconverge"] is not None
        assert doc["mean_swap_seconds"] < _SWAP_SECONDS_BOUND, (
            f"{spec}: hot swap overhead {doc['mean_swap_seconds']:.4f}s "
            f"exceeds {_SWAP_SECONDS_BOUND}s"
        )

    adversarial = workloads["adversarial:0"]
    # The acceptance bar: online optimization strictly beats the static
    # offline r^k where EXP-ADV showed adaptation losing ground.
    assert (
        adversarial["online_blocking"]["mean"]
        < adversarial["static_blocking"]["mean"]
    ), "adversarial: online controller failed to beat static thresholds"
    assert adversarial["gap_closed"] is not None and adversarial["gap_closed"] > 0, (
        "adversarial: no measurable fraction of the static-to-stationary "
        "gap was closed"
    )
    # ...and it must not lose to the EWMA tracker it replaces.
    assert (
        adversarial["online_blocking"]["mean"]
        <= adversarial["ewma_blocking"]["mean"]
    ), "adversarial: online controller lost to the EWMA recompute"

    document = {
        "schema": "repro-bench-control-loop-v1",
        "fidelity": {
            "seeds": len(bench_config.seeds),
            "measured_duration": bench_config.measured_duration,
        },
        "study": study,
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_OUTPUT}")
