"""Tests for the hardened replication runner: timeouts, retries, fallback.

Injected workers take a bare seed and run it against the pool's shared
context through ``_shared_context_worker``, exactly as the default worker
does.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import (
    ReplicationConfig,
    run_replications_detailed,
    _shared_context_worker,
)
from repro.routing.single_path import SinglePathRouting
from repro.topology.generators import line
from repro.topology.paths import build_path_table
from repro.traffic.matrix import TrafficMatrix

CONFIG = ReplicationConfig(measured_duration=15.0, warmup=5.0, seeds=(0, 1, 2))


def _fixture():
    network = line(3, 10)
    policy = SinglePathRouting(network, build_path_table(network))
    traffic = TrafficMatrix({(0, 2): 3.0, (2, 0): 3.0})
    return network, policy, traffic


def _sentinel(seed: int) -> Path:
    return Path(os.environ["REPRO_FLAKY_DIR"]) / f"seed-{seed}"


def _flaky_worker(seed):
    """Crash each seed's first attempt (file sentinel), succeed after."""
    sentinel = _sentinel(seed)
    if not sentinel.exists():
        sentinel.touch()
        raise RuntimeError("injected first-attempt failure")
    return _shared_context_worker(seed)


def _always_failing_worker(seed):
    raise RuntimeError("injected permanent failure")


def _hang_then_fast_worker(seed):
    """Hang seed 1's first attempt long enough to trip the seed timeout."""
    if seed == 1:
        sentinel = _sentinel(seed)
        if not sentinel.exists():
            sentinel.touch()
            time.sleep(6.0)
    return _shared_context_worker(seed)


def _pool_killing_worker(seed):
    """Die hard in a pool worker (breaks the pool); compute fine in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _shared_context_worker(seed)


def _hung_worker(seed):
    """Hang seed 1 for an hour: only terminating its process ends it."""
    if seed == 1:
        time.sleep(3600.0)
    return _shared_context_worker(seed)


def hung_sweep() -> None:
    """Time out a hung seed without retries and print the failed seeds."""
    network, policy, traffic = _fixture()
    outcome = run_replications_detailed(
        network, policy, traffic,
        ReplicationConfig(measured_duration=15.0, warmup=5.0, seeds=(0, 1)),
        parallel=True, max_workers=2,
        seed_timeout=1.0, max_seed_retries=0, worker=_hung_worker,
    )
    print(outcome.failed_seeds)


class TestHardenedRunner:
    def test_parallel_matches_serial(self):
        network, policy, traffic = _fixture()
        serial = run_replications_detailed(network, policy, traffic, CONFIG)
        parallel = run_replications_detailed(
            network, policy, traffic, CONFIG, parallel=True, max_workers=2
        )
        assert parallel.stat == serial.stat
        assert [r.total_blocked for r in parallel.results] == [
            r.total_blocked for r in serial.results
        ]

    def test_crashed_seed_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLAKY_DIR", str(tmp_path))
        network, policy, traffic = _fixture()
        outcome = run_replications_detailed(
            network, policy, traffic, CONFIG,
            parallel=True, max_workers=2,
            max_seed_retries=1, worker=_flaky_worker,
        )
        assert outcome.all_completed
        assert len(outcome.results) == len(CONFIG.seeds)
        assert all(s.attempts == 2 for s in outcome.statuses)
        assert all("injected" in s.errors[0] for s in outcome.statuses)
        reference = run_replications_detailed(
            network, policy, traffic, CONFIG
        ).stat
        assert outcome.stat == reference

    def test_timed_out_seed_retried_and_sweep_completes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLAKY_DIR", str(tmp_path))
        network, policy, traffic = _fixture()
        outcome = run_replications_detailed(
            network, policy, traffic, CONFIG,
            parallel=True, max_workers=2,
            seed_timeout=1.5, max_seed_retries=1, worker=_hang_then_fast_worker,
        )
        assert outcome.all_completed
        hung = next(s for s in outcome.statuses if s.seed == 1)
        assert hung.timeouts == 1
        assert hung.attempts == 2
        assert "timeout" in hung.errors[0]
        reference = run_replications_detailed(
            network, policy, traffic, CONFIG
        ).stat
        assert outcome.stat == reference

    def test_exhausted_seed_reported_not_fatal(self):
        network, policy, traffic = _fixture()
        outcome = run_replications_detailed(
            network, policy, traffic,
            ReplicationConfig(measured_duration=15.0, warmup=5.0, seeds=(0, 1)),
            parallel=True, max_workers=2,
            max_seed_retries=0, worker=_half_failing_worker,
        )
        assert outcome.failed_seeds == (1,)
        assert len(outcome.results) == 1
        assert "FAILED" in outcome.describe()

    def test_all_seeds_failing_raises(self):
        network, policy, traffic = _fixture()
        with pytest.raises(RuntimeError, match="every replication seed failed"):
            run_replications_detailed(
                network, policy, traffic, CONFIG,
                parallel=True, max_workers=2,
                max_seed_retries=0, worker=_always_failing_worker,
            )

    def test_broken_pool_falls_back_to_serial(self):
        network, policy, traffic = _fixture()
        outcome = run_replications_detailed(
            network, policy, traffic, CONFIG,
            parallel=True, max_workers=2,
            max_seed_retries=1, worker=_pool_killing_worker,
        )
        assert outcome.pool_broken
        assert outcome.all_completed
        assert any(s.fallback for s in outcome.statuses)
        reference = run_replications_detailed(
            network, policy, traffic, CONFIG
        ).stat
        assert outcome.stat == reference

    def test_timed_out_worker_does_not_outlive_the_sweep(self):
        # The interpreter's exit hook joins every pool worker still alive,
        # so a hung worker the sweep abandoned would block exit forever.
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        completed = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_runner_hardening import hung_sweep; hung_sweep()"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "(1,)"


class TestReplicationConfig:
    @pytest.mark.parametrize("seeds", [(), (0, 0)], ids=["empty", "repeated"])
    def test_rejects_seed_rosters_without_distinct_seeds(self, seeds):
        with pytest.raises(ValueError, match="seed"):
            ReplicationConfig(measured_duration=15.0, seeds=seeds)


def _half_failing_worker(seed):
    """Fail odd seeds permanently, run even seeds normally."""
    if seed % 2:
        raise RuntimeError("odd seeds always fail")
    return _shared_context_worker(seed)
