#!/usr/bin/env python
"""CI smoke test for the lab subsystem's crash-resume guarantee.

Runs one uninterrupted baseline of a tiny study (fresh store, ``lab run
--json``), then the interrupt-and-resume drill twice, in-process and on a
two-worker pool (``--workers 2``):

1. a run in its own store is killed with SIGINT once some — but not all —
   replications have been checkpointed;
2. ``lab resume`` finishes the interrupted store.

The interrupted store's manifest must mark no job ``running``, and the
resumed study must report cache hits for every checkpointed job and
produce per-policy blocking values bit-identical to the baseline.  The
JSONL event logs from every store are left in the chosen workdir so CI
can upload them as artifacts.

Usage: PYTHONPATH=src python tools/lab_smoke.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

STUDY_ARGS = [
    "lab", "run",
    "--topology", "quadrangle", "--traffic", "95",
    "--policies", "controlled", "uncontrolled",
    "--seeds", "4",
]
TOTAL_JOBS = 2 * 4


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=cli_env(), cwd=REPO,
    )


def study_summary(completed: subprocess.CompletedProcess) -> dict:
    document = json.loads(completed.stdout)
    (study,) = document["studies"]
    return study


def count_objects(store: Path) -> int:
    objects = store / "objects"
    if not objects.is_dir():
        return 0
    return sum(1 for __ in objects.rglob("*.json"))


def running_jobs(store: Path) -> int:
    """Jobs that the store's manifests still mark as running."""
    return sum(
        entry["status"] == "running"
        for manifest in (store / "studies").glob("*.json")
        for entry in json.loads(manifest.read_text())["jobs"].values()
    )


def interrupted_run(store: Path, duration: float, workers: list[str],
                    timeout: float = 120.0) -> int:
    """Start the study, SIGINT it after >=2 checkpoints, return the count."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *STUDY_ARGS, *workers,
         "--duration", str(duration), "--store", str(store)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=cli_env(), cwd=REPO,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return -1  # finished before we could interrupt: retry slower
        if count_objects(store) >= 2:
            break
        time.sleep(0.02)
    process.send_signal(signal.SIGINT)
    process.wait(timeout=60)
    # 3 = LabInterrupted handled by the CLI; 130 = the interrupt landed
    # outside the scheduler (startup/teardown) — either way the store
    # must hold a partial checkpoint.
    if process.returncode not in (3, 130):
        raise SystemExit(
            f"interrupted run exited {process.returncode}, expected 3 or 130"
        )
    checkpointed = count_objects(store)
    if not 0 < checkpointed < TOTAL_JOBS:
        raise SystemExit(
            f"interrupt was not mid-study: {checkpointed}/{TOTAL_JOBS} "
            "replications checkpointed"
        )
    running = running_jobs(store)
    if running:
        raise SystemExit(
            f"interrupted run left {running} jobs marked running in its manifest"
        )
    return checkpointed


def drill(crash_store: Path, duration: float, workers: list[str],
          baseline: dict) -> None:
    """Interrupt the study in ``crash_store``, resume it, compare to baseline."""
    print("      interrupted run (SIGINT after >=2 checkpoints)")
    checkpointed = -1
    attempted = duration
    for attempt in range(3):
        if crash_store.exists():
            shutil.rmtree(crash_store)
        checkpointed = interrupted_run(crash_store, attempted, workers)
        if checkpointed > 0:
            break
        attempted *= 4  # run finished too quickly to interrupt: slow it down
        print(f"      too fast to interrupt; retrying with duration={attempted}")
    if checkpointed <= 0:
        raise SystemExit("could not interrupt the study mid-way")
    print(f"      killed with {checkpointed}/{TOTAL_JOBS} replications "
          "checkpointed, none left running")
    if attempted != duration:
        raise SystemExit(
            "interrupted run used a different duration than the baseline; "
            "re-run with a larger --duration"
        )

    print("      resume and compare against the baseline")
    completed = run_cli(["lab", "resume", "--store", str(crash_store),
                         *workers, "--json"])
    if completed.returncode != 0:
        print(completed.stdout, completed.stderr, sep="\n", file=sys.stderr)
        raise SystemExit("resume failed")
    resumed = study_summary(completed)
    if resumed["cache_hits"] < checkpointed:
        raise SystemExit(
            f"resume reused only {resumed['cache_hits']} of "
            f"{checkpointed} checkpointed replications"
        )
    if resumed["cache_hits"] + resumed["simulated"] != TOTAL_JOBS:
        raise SystemExit("resumed study did not cover every job exactly once")
    for policy, stats in baseline["policies"].items():
        if resumed["policies"][policy]["values"] != stats["values"]:
            raise SystemExit(
                f"policy {policy!r}: resumed blocking values differ from "
                "the uninterrupted baseline"
            )
    print("      resumed study is bit-identical to the baseline "
          f"({resumed['cache_hits']} cache hits + {resumed['simulated']} simulated)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("lab-smoke-artifacts"))
    parser.add_argument("--duration", type=float, default=150.0,
                        help="simulated duration per replication")
    args = parser.parse_args()

    workdir = args.workdir.resolve()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    baseline_store = workdir / "baseline-store"

    print("[1/3] uninterrupted baseline run")
    completed = run_cli(STUDY_ARGS + ["--duration", str(args.duration),
                                      "--store", str(baseline_store), "--json"])
    if completed.returncode != 0:
        print(completed.stdout, completed.stderr, sep="\n", file=sys.stderr)
        raise SystemExit("baseline run failed")
    baseline = study_summary(completed)
    print(f"      {baseline['simulated']} replications simulated")

    drills = [("in-process", "crash-store", []),
              ("2-worker pool", "crash-store-pool", ["--workers", "2"])]
    for step, (label, name, workers) in enumerate(drills, start=2):
        print(f"[{step}/3] interrupt-and-resume drill, {label}")
        drill(workdir / name, args.duration, workers, baseline)

    print("OK: both resumed studies are bit-identical to the uninterrupted "
          "baseline")
    print(f"event logs: {workdir}/*/events")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
