"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) and prints the regenerated rows/series, then asserts the paper's
qualitative shape.  Fidelity is tunable through environment variables so the
same harness serves quick CI runs and full paper-fidelity regeneration:

* ``REPRO_BENCH_SEEDS``    — replications per point (default 3; paper: 10)
* ``REPRO_BENCH_DURATION`` — measured time units per run (default 40; paper: 100)

Example full-fidelity run::

    REPRO_BENCH_SEEDS=10 REPRO_BENCH_DURATION=100 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import ReplicationConfig

_REPO = Path(__file__).resolve().parent.parent
# bench_perf_core.py times the analysis kernels against the loop oracles in
# tests/oracles and bench_cluster_throughput.py checks the pipelined cluster
# against its wave oracle there; they import as ``tests.oracles`` from the
# repository root.
if str(_REPO) not in sys.path:
    sys.path.insert(0, str(_REPO))


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return default if value is None else int(value)


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return default if value is None else float(value)


@pytest.fixture(scope="session")
def bench_config() -> ReplicationConfig:
    return ReplicationConfig(
        measured_duration=_env_float("REPRO_BENCH_DURATION", 40.0),
        warmup=10.0,
        seeds=tuple(range(_env_int("REPRO_BENCH_SEEDS", 3))),
    )


@pytest.fixture(scope="session")
def bench_environment() -> dict:
    """The machine and code record of ``perfbench/run.py`` (CPUs, Python,
    numpy, git SHA) that committed BENCH files of timings carry."""
    perfbench = str(_REPO / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("run").environment()
    finally:
        sys.path.remove(perfbench)
