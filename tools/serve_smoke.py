#!/usr/bin/env python
"""CI smoke test for the repro.serve online admission-control service.

Replays a short NSFNet nominal-traffic trace through the serving plane
two ways and cross-checks them:

1. in-process (``serve replay --json``), where the CLI itself verifies
   the decisions bit-for-bit against :func:`repro.sim.simulator.simulate`;
2. over the asyncio JSON-lines socket server
   (``serve replay --socket --json``), same verification.

Both transports must report ``simulator_equivalent: true`` and identical
blocking and alternate-routing statistics — the socket hop may change
throughput, never decisions.  Each run leaves its telemetry snapshots as
JSONL in the chosen workdir so CI can upload them as artifacts; the
smoke also checks the logs actually contain ``serve_metrics`` events.
The socket replay sends its whole stream without waiting for answers, so
the server's micro-batcher, which decides what one event-loop turn
queued, must still fill batches: the last snapshot's mean batch must be
at least half of ``--batch``.

Usage: PYTHONPATH=src python tools/serve_smoke.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

MAX_BATCH = 64

REPLAY_ARGS = [
    "serve", "replay",
    "--topology", "nsfnet", "--traffic", "nominal",
    "--policy", "controlled",
    "--duration", "8", "--warmup", "2", "--seed", "7",
    "--batch", str(MAX_BATCH),
    "--json",
]

#: Statistics that must not change when the transport does.
INVARIANT_KEYS = (
    "calls", "requests", "network_blocking", "alternate_fraction",
    "simulator_equivalent",
)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def run_replay(extra: list[str]) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *REPLAY_ARGS, *extra],
        capture_output=True, text=True, env=cli_env(), cwd=REPO,
    )
    if completed.returncode != 0:
        print(completed.stdout, completed.stderr, sep="\n", file=sys.stderr)
        raise SystemExit(f"replay {' '.join(extra)} exited {completed.returncode}")
    return json.loads(completed.stdout)


def check_telemetry(log: Path) -> list[dict]:
    if not log.is_file():
        raise SystemExit(f"no telemetry log at {log}")
    events = [json.loads(line) for line in log.read_text().splitlines() if line]
    snapshots = [e for e in events if e.get("kind") == "serve_metrics"]
    if not snapshots:
        raise SystemExit(f"{log} holds no serve_metrics events")
    final = snapshots[-1]
    decided = sum(
        value for key, value in final.items()
        if key.startswith("serve_decisions_total")
    )
    if not decided > 0:
        raise SystemExit(f"{log} telemetry saw no decisions")
    return snapshots


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workdir", type=Path, default=Path("serve-smoke-artifacts")
    )
    args = parser.parse_args()

    workdir = args.workdir.resolve()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    in_process_log = workdir / "serve-in-process.jsonl"
    socket_log = workdir / "serve-socket.jsonl"

    print("[1/3] in-process replay, verified against the simulator")
    in_process = run_replay(["--events", str(in_process_log)])
    if in_process["simulator_equivalent"] is not True:
        raise SystemExit("in-process replay did not match the simulator")
    print(
        f"      {in_process['calls']} calls, "
        f"blocking {in_process['network_blocking']:.4f}"
    )

    print("[2/3] socket replay through the JSON-lines server")
    socket = run_replay(["--socket", "--events", str(socket_log)])
    if socket["simulator_equivalent"] is not True:
        raise SystemExit("socket replay did not match the simulator")
    for key in INVARIANT_KEYS:
        if socket[key] != in_process[key]:
            raise SystemExit(
                f"socket and in-process replays disagree on {key}: "
                f"{socket[key]!r} != {in_process[key]!r}"
            )

    print("[3/3] telemetry logs")
    for log in (in_process_log, socket_log):
        snapshots = check_telemetry(log)
        print(f"      {log.name}: {len(snapshots)} serve_metrics snapshots")
    final = snapshots[-1]  # the socket replay's, checked last
    mean_batch = final["serve_batch_size_sum"] / final["serve_batch_size_count"]
    if mean_batch < MAX_BATCH / 2:
        raise SystemExit(
            f"socket replay decided {mean_batch:.2f} requests per batch, "
            f"under half of --batch {MAX_BATCH}: a pipelined stream must "
            "still fill micro-batches"
        )
    print(f"      socket replay: mean micro-batch {mean_batch:.2f} of {MAX_BATCH}")

    print(
        "OK: socket and in-process replays are decision-identical to the "
        f"simulator ({in_process['calls']} calls, "
        f"blocking {in_process['network_blocking']:.4f}, "
        f"alternate fraction {in_process['alternate_fraction']:.4f})"
    )
    print(f"telemetry: {workdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
