"""Experiment orchestration: replications, policy comparisons, load sweeps.

The paper's methodology (Section 4): call-by-call simulation for 100 time
units after a 10-unit warm-up from an idle network, repeated for 10 seeds
per traffic matrix, with every algorithm replaying identical arrivals and
holding times.  :class:`ReplicationConfig` captures those knobs (defaults
are the paper's); the helpers run one policy or a labelled set of policies
over the shared traces and aggregate network blocking across seeds.

One study loop runs every multi-policy study — :func:`compare_policies`,
:func:`repro.api.run_study` and the lab scheduler
(:mod:`repro.lab.scheduler`) alike: it builds each seed's trace once, hands
every policy's seed group to one executor, and the executor reports each
seed as soon as it finishes.  The executor's parallel path is hardened
against misbehaving workers: each seed's future gets a bounded wait
(``seed_timeout``), timed-out or crashed seeds are retried up to
``max_seed_retries`` times (after a timeout the hung workers are
terminated and the pool recycled), and if the pool itself dies
(``BrokenProcessPool`` — e.g. a worker was OOM-killed) the remaining seeds
finish serially in-process.  Every seed's fate is recorded in a
:class:`SeedStatus`, and :class:`ReplicationOutcome` carries the full
per-seed report next to the aggregate.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

from .._compat import resolve_backend
from ..routing.base import RoutingPolicy
from ..sim.batch import BatchSimulator, batch_ineligibility
from ..sim.metrics import SimulationResult, SweepStatistic, aggregate
from ..sim.simulator import simulate
from ..sim.trace import ArrivalTrace, generate_trace
from ..topology.graph import Network
from ..traffic.matrix import TrafficMatrix
from ..traffic.workload import Workload, generate_workload_trace

__all__ = [
    "ReplicationConfig",
    "PAPER_CONFIG",
    "SeedStatus",
    "ReplicationOutcome",
    "run_replications_detailed",
    "compare_policies",
]


def _make_trace(
    traffic: TrafficMatrix,
    workload: Workload | None,
    duration: float,
    seed: int,
) -> ArrivalTrace:
    """One seed's arrivals: stationary, or thinned against a workload.

    The trace-generation choke point for replications — the serial path
    and the pool workers both route through it, so a workload changes
    demand identically everywhere (and ``None`` keeps the historical
    stationary traces bit for bit).
    """
    if workload is None:
        return generate_trace(traffic, duration, seed)
    return generate_workload_trace(traffic, workload, duration, seed)


#: Per-worker-process shared replication context, installed once by the pool
#: initializer.  The network (with its path enumeration), the compiled policy
#: (choices, thresholds, protection tables) and the traffic matrix are pickled
#: once per worker instead of once per seed; payloads shrink to bare seeds.
_WORKER_CONTEXT: dict[str, tuple] = {}


def _install_worker_context(
    network, policy, traffic, duration, warmup, workload=None, backend="auto"
) -> None:
    """Pool initializer: stash the shared (network, policy, ...) context."""
    _WORKER_CONTEXT["shared"] = (
        network, policy, traffic, duration, warmup, workload, backend
    )


def _shared_context_worker(seed: int) -> SimulationResult:
    """Run one seed against the worker-process shared context."""
    (network, policy, traffic, duration, warmup, workload,
     backend) = _WORKER_CONTEXT["shared"]
    trace = _make_trace(traffic, workload, duration, seed)
    return simulate(network, policy, trace, warmup, backend=backend)


def _timed_call(worker: Callable, payload) -> tuple[float, SimulationResult]:
    """Run ``worker(payload)`` and report its in-process wall-clock seconds.

    Timing happens inside the worker process, so for parallel runs it
    measures compute time only — queueing behind a busy pool is excluded.
    The per-seed times feed :attr:`SeedStatus.wall_clock` and the lab
    scheduler's ETA estimates.
    """
    start = time.perf_counter()
    result = worker(payload)
    return time.perf_counter() - start, result


@dataclass(frozen=True, kw_only=True)
class ReplicationConfig:
    """Replication parameters; defaults reproduce the paper's setup.

    Keyword-only: construct as ``ReplicationConfig(measured_duration=...)``.
    Raises ``ValueError`` for a non-finite or non-positive measured window,
    a negative or non-finite warm-up, or an empty seed roster, none of
    which can produce a replication, and for a repeated seed, which would
    count one replication twice.
    """

    measured_duration: float = 100.0
    warmup: float = 10.0
    seeds: tuple[int, ...] = tuple(range(10))

    def __post_init__(self):
        if not 0.0 < self.measured_duration < math.inf:
            raise ValueError(
                "measured duration must be positive and finite, got "
                f"{self.measured_duration:g}"
            )
        if not 0.0 <= self.warmup < math.inf:
            raise ValueError(
                f"warmup must be non-negative and finite, got {self.warmup:g}"
            )
        if not self.seeds:
            raise ValueError("at least one replication seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"replication seeds must be distinct, got {self.seeds}")

    @property
    def duration(self) -> float:
        """Total simulated time, warm-up included."""
        return self.measured_duration + self.warmup

    def scaled(self, duration_factor: float = 1.0, num_seeds: int | None = None) -> "ReplicationConfig":
        """A cheaper (or heavier) variant for quick runs and benchmarks."""
        seeds = self.seeds if num_seeds is None else tuple(range(num_seeds))
        return ReplicationConfig(
            measured_duration=self.measured_duration * duration_factor,
            warmup=self.warmup,
            seeds=seeds,
        )


PAPER_CONFIG = ReplicationConfig()


@dataclass
class SeedStatus:
    """What happened to one seed across its attempts.

    ``completed`` is True once a result was obtained (possibly after
    retries, possibly via the serial fallback).  ``errors`` records one
    message per failed attempt — ``"timeout after Ns"`` for bounded-wait
    expiries, the exception text otherwise.  ``wall_clock`` is the
    in-process compute time, in seconds, of the successful attempt (pool
    queueing excluded); ``None`` until the seed completes.  ``cached`` marks
    seeds served from the lab's result store without simulating.  ``backend``
    names the engine that produced the result: ``"batch"`` when the seed ran
    inside a lockstep batch-kernel group (``wall_clock`` is then the group's
    time split evenly), otherwise the backend that was requested.
    """

    seed: int
    completed: bool = False
    attempts: int = 0
    timeouts: int = 0
    fallback: bool = False
    errors: tuple[str, ...] = ()
    wall_clock: float | None = None
    cached: bool = False
    backend: str | None = None

    def describe(self) -> str:
        if self.completed:
            how = "cached" if self.cached else (
                "serial fallback" if self.fallback else "ok"
            )
            suffix = f" after {self.attempts} attempts" if self.attempts > 1 else ""
            if self.wall_clock is not None:
                suffix += f" in {self.wall_clock:.3f}s"
            return f"seed {self.seed}: {how}{suffix}"
        detail = self.errors[-1] if self.errors else "unknown error"
        return f"seed {self.seed}: FAILED after {self.attempts} attempts ({detail})"


@dataclass
class ReplicationOutcome:
    """Aggregate plus the per-seed status report of one replication sweep.

    ``backend`` names the engine that produced the results: ``"batch"`` when
    the whole sweep ran through the lockstep batch kernel, otherwise the
    per-seed backend that executed (``"auto"``, ``"fast"`` or
    ``"reference"``).  All engines are bit-identical, so the field is
    provenance, not semantics.
    """

    stat: SweepStatistic
    results: list[SimulationResult]
    statuses: list[SeedStatus]
    pool_broken: bool = False
    backend: str | None = None

    @property
    def failed_seeds(self) -> tuple[int, ...]:
        return tuple(s.seed for s in self.statuses if not s.completed)

    @property
    def all_completed(self) -> bool:
        return not self.failed_seeds

    def describe(self) -> str:
        lines = [s.describe() for s in self.statuses]
        if self.pool_broken:
            lines.append("worker pool died; remaining seeds ran serially")
        return "\n".join(lines)


def _run_payloads_serial(
    payloads: Sequence,
    worker: Callable,
    statuses: list[SeedStatus],
    indices: Sequence[int],
    max_seed_retries: int,
    fallback: bool,
    complete: Callable,
) -> None:
    """Run the given payload indices in-process, with bounded retries."""
    for index in indices:
        status = statuses[index]
        while not status.completed:
            status.attempts += 1
            try:
                elapsed, result = _timed_call(worker, payloads[index])
            except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
                status.errors += (f"{type(exc).__name__}: {exc}",)
                if status.attempts > max_seed_retries:
                    break
            else:
                status.fallback = fallback
                complete(index, elapsed, result)


def _run_payloads_parallel(
    seeds: Sequence[int],
    worker: Callable,
    statuses: list[SeedStatus],
    seed_timeout: float | None,
    max_seed_retries: int,
    max_workers: int | None,
    initargs: tuple,
    complete: Callable,
) -> bool:
    """Fan seeds over a process pool with timeouts, retries and fallback.

    Returns True when the pool broke and the unfinished seeds ran serially.
    """
    remaining = list(range(len(seeds)))
    pool_broken = False
    pool = ProcessPoolExecutor(
        max_workers=max_workers, initializer=_install_worker_context,
        initargs=initargs,
    )
    try:
        while remaining:
            futures = {
                index: pool.submit(_timed_call, worker, seeds[index])
                for index in remaining
            }
            next_round: list[int] = []
            recycle = False
            for index, future in futures.items():
                status = statuses[index]
                status.attempts += 1
                try:
                    elapsed, result = future.result(timeout=seed_timeout)
                except FuturesTimeoutError:
                    # The worker is hung (or just slow): abandon the future —
                    # its process still occupies a slot, so the pool is
                    # recycled before any retry round.
                    future.cancel()
                    status.timeouts += 1
                    status.errors += (f"timeout after {seed_timeout:g}s",)
                    recycle = True
                    if status.attempts <= max_seed_retries:
                        next_round.append(index)
                except BrokenProcessPool:
                    pool_broken = True
                    break
                except Exception as exc:  # noqa: BLE001 - retry, then report
                    status.errors += (f"{type(exc).__name__}: {exc}",)
                    if status.attempts <= max_seed_retries:
                        next_round.append(index)
                else:
                    complete(index, elapsed, result)
            if pool_broken:
                # Salvage whatever already finished, then run the rest
                # in-process: a broken pool degrades to serial, not to a
                # crashed sweep.
                for index, future in futures.items():
                    if statuses[index].completed or not future.done():
                        continue
                    try:
                        elapsed, result = future.result(timeout=0)
                    except Exception:  # noqa: BLE001
                        continue
                    complete(index, elapsed, result)
                unfinished = [i for i in futures if not statuses[i].completed]
                # The serial fallback runs in this process, which never went
                # through the pool initializer — install the shared context
                # here before the worker needs it.
                _install_worker_context(*initargs)
                _run_payloads_serial(
                    seeds, worker, statuses, unfinished, max_seed_retries,
                    fallback=True, complete=complete,
                )
                break
            if recycle:
                # Every other future of this round was collected, so the
                # busy workers are exactly the hung ones: terminate them, or
                # the interpreter's exit hook would wait on them forever.
                for process in list(pool._processes.values()):
                    process.terminate()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(
                    max_workers=max_workers, initializer=_install_worker_context,
                    initargs=initargs,
                )
            remaining = next_round
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return pool_broken


def _try_batch(
    network: Network,
    policy: RoutingPolicy,
    traces: Sequence[ArrivalTrace],
    warmup: float,
    statuses: list[SeedStatus],
    complete: Callable,
) -> bool:
    """Attempt the whole seed group in one lockstep batch-kernel run.

    Returns True (with every seed completed) when the batch kernel handled
    the group, False when the configuration is inexpressible or the kernel
    errored — the caller then falls back to the per-seed loop, which accepts
    everything.  Per-seed wall-clock is the group's time split evenly: the
    kernel advances all seeds together, so no finer attribution exists.
    """
    if len(traces) < 2 or batch_ineligibility(policy, traces) is not None:
        return False
    start = time.perf_counter()
    try:
        batch_results = BatchSimulator(network, policy, traces, warmup).run()
    except Exception:  # noqa: BLE001 - per-seed loop is the safety net
        return False
    share = (time.perf_counter() - start) / len(traces)
    for index, result in enumerate(batch_results):
        statuses[index].attempts = 1
        statuses[index].backend = "batch"
        complete(index, share, result)
    return True


def _execute(
    network: Network,
    policy: RoutingPolicy,
    traffic: TrafficMatrix,
    config: ReplicationConfig,
    *,
    traces: Sequence[ArrivalTrace] | None,
    parallel: bool,
    max_workers: int | None,
    seed_timeout: float | None,
    max_seed_retries: int,
    workload: Workload | None,
    backend: str,
    on_result: Callable[[SeedStatus, SimulationResult], None],
    worker: Callable = _shared_context_worker,
) -> tuple[list[SeedStatus], list[SimulationResult], bool, str]:
    """The replication executor behind the runner and the lab scheduler.

    Runs every seed (see :func:`run_replications_detailed` for the
    arguments) and calls ``on_result(status, result)`` for each seed as
    soon as it completes, with ``status.backend`` naming the engine that
    produced it.  Returns the per-seed statuses, the completed results (both
    in seed order), whether the pool broke, and the sweep's engine; a seed
    that exhausts its retries appears in the statuses only.
    """
    backend = resolve_backend(backend)
    if not parallel and traces is None:
        traces = [
            _make_trace(traffic, workload, config.duration, seed)
            for seed in config.seeds
        ]
    seeds = config.seeds if traces is None else [trace.seed for trace in traces]
    statuses = [SeedStatus(seed=seed, backend=backend) for seed in seeds]
    results: dict[int, SimulationResult] = {}

    def complete(index: int, elapsed: float, result: SimulationResult) -> None:
        status = statuses[index]
        status.completed, status.wall_clock = True, elapsed
        results[index] = result
        on_result(status, result)

    pool_broken = False
    used_batch = False
    if traces is None:
        pool_broken = _run_payloads_parallel(
            seeds, worker, statuses, seed_timeout, max_seed_retries,
            max_workers, complete=complete,
            initargs=(network, policy, traffic, config.duration,
                      config.warmup, workload, backend),
        )
    else:
        if backend == "auto":
            used_batch = _try_batch(
                network, policy, traces, config.warmup, statuses, complete
            )
        if not used_batch:
            _run_payloads_serial(
                traces,
                lambda trace: simulate(
                    network, policy, trace, config.warmup, backend=backend,
                ),
                statuses, range(len(traces)), max_seed_retries,
                fallback=False, complete=complete,
            )
    ordered = [results[index] for index in sorted(results)]
    return statuses, ordered, pool_broken, "batch" if used_batch else backend


def _outcome(
    statuses: list[SeedStatus],
    results: list[SimulationResult],
    pool_broken: bool,
    backend: str,
) -> ReplicationOutcome:
    """Aggregate one executed seed group; ``RuntimeError`` if no seed completed."""
    if not results:
        report = "; ".join(s.describe() for s in statuses)
        raise RuntimeError(f"every replication seed failed: {report}")
    stat = aggregate([result.network_blocking for result in results])
    return ReplicationOutcome(stat, results, statuses, pool_broken, backend=backend)


def _run_policies(
    network: Network,
    traffic: TrafficMatrix,
    config: ReplicationConfig,
    *,
    groups: Mapping[str, Sequence[int]],
    build_policy: Callable[[str], RoutingPolicy],
    make_trace: Callable[[int], ArrivalTrace],
    parallel: bool,
    max_workers: int | None,
    seed_timeout: float | None,
    max_seed_retries: int,
    workload: Workload | None,
    backend: str,
    on_result: Callable[[str, SeedStatus, SimulationResult], None] = (
        lambda name, status, result: None
    ),
) -> dict[str, tuple[list[SeedStatus], list[SimulationResult], bool, str]]:
    """The study loop: run each named policy over its seeds on shared traces.

    ``groups`` maps each policy name to the seeds it still has to run (a
    subset of ``config.seeds``; an empty group is skipped without building
    its policy).  On the serial path ``make_trace(seed)`` builds one trace
    per seed that any group runs, in ``config.seeds`` order, and every
    policy replays it — the common-random-numbers discipline at the cost of
    one trace per seed.  A pool's workers rebuild each trace from its seed
    and ``workload`` instead.  Each group then runs through the replication
    executor with the arguments of :func:`run_replications_detailed`, and
    ``on_result(name, status, result)`` fires as each seed completes.
    Returns each run group's ``(statuses, results, pool_broken, backend)``.
    """
    wanted = {seed for seeds in groups.values() for seed in seeds}
    traces = {} if parallel else {
        seed: make_trace(seed) for seed in config.seeds if seed in wanted
    }
    runs = {}
    for name, seeds in groups.items():
        if not seeds:
            continue
        runs[name] = _execute(
            network, build_policy(name), traffic,
            replace(config, seeds=tuple(seeds)),
            traces=None if parallel else [traces[seed] for seed in seeds],
            parallel=parallel, max_workers=max_workers,
            seed_timeout=seed_timeout, max_seed_retries=max_seed_retries,
            workload=workload, backend=backend,
            on_result=partial(on_result, name),
        )
    return runs


def run_replications_detailed(
    network: Network,
    policy: RoutingPolicy,
    traffic: TrafficMatrix,
    config: ReplicationConfig = PAPER_CONFIG,
    traces: Sequence[ArrivalTrace] | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    seed_timeout: float | None = None,
    max_seed_retries: int = 1,
    worker: Callable = _shared_context_worker,
    workload: Workload | None = None,
    backend: str = "auto",
) -> ReplicationOutcome:
    """Run one policy over all seeds; returns the full per-seed outcome.

    Pre-generated ``traces`` may be passed to replay them; otherwise one is
    generated per seed.  ``workload`` switches trace generation to the
    time-varying per-pair generator
    (:func:`~repro.traffic.workload.generate_workload_trace`); ``None``
    keeps the historical stationary traces bit for bit.  It is ignored when
    explicit ``traces`` are supplied.

    ``backend`` selects the execution engine.  Under ``"auto"`` the serial
    path first tries to run all seeds in one lockstep batch-kernel
    invocation (:class:`repro.sim.batch.BatchSimulator`), falling back per
    seed when the configuration is inexpressible; ``"fast"`` /
    ``"reference"`` force the per-seed loops.  Every engine is
    bit-identical, so the choice affects speed and provenance only.

    ``parallel=True`` fans the seeds over a process pool — results are
    bit-identical to the serial path (each seed is fully self-contained).
    The network, policy, traffic and workload are installed once per worker
    process, and each task is a bare seed.  ``seed_timeout`` bounds the
    wait on each seed's future; a timed-out or crashed seed is retried up
    to ``max_seed_retries`` times (after a timeout the pool's hung workers
    are terminated and the pool is recycled).  If the pool itself breaks,
    the unfinished seeds run serially in-process.  ``worker`` is injectable
    for testing the failure paths; like the default
    ``_shared_context_worker`` it must be a picklable callable that takes
    one seed and may read the worker's shared context.

    Seeds that exhaust their retries are excluded from the aggregate and
    reported in the outcome's statuses; the sweep still completes unless
    *every* seed failed (then ``RuntimeError``).
    """
    return _outcome(*_execute(
        network, policy, traffic, config, traces=traces, parallel=parallel,
        max_workers=max_workers, seed_timeout=seed_timeout,
        max_seed_retries=max_seed_retries, worker=worker, workload=workload,
        backend=backend, on_result=lambda status, result: None,
    ))


def compare_policies(
    network: Network,
    policies: Mapping[str, RoutingPolicy],
    traffic: TrafficMatrix,
    config: ReplicationConfig = PAPER_CONFIG,
    parallel: bool = False,
    max_workers: int | None = None,
    seed_timeout: float | None = None,
    max_seed_retries: int = 1,
    backend: str = "auto",
) -> dict[str, SweepStatistic]:
    """Run several policies on *identical* traces and aggregate each.

    This is the paper's common-random-numbers comparison: differences
    between policies reflect routing decisions only, never sampling noise in
    the arrival processes.  Serially each seed's trace is generated once and
    replayed by every policy; ``parallel=True`` fans each policy's seeds
    over a process pool whose workers rebuild the same traces from the seed
    (and a retried seed rebuilds the same trace again).  ``backend``,
    ``seed_timeout`` and ``max_seed_retries`` mean what they mean for
    :func:`run_replications_detailed`; all engines are bit-identical.
    """
    runs = _run_policies(
        network, traffic, config,
        groups={label: config.seeds for label in policies},
        build_policy=policies.__getitem__,
        make_trace=partial(_make_trace, traffic, None, config.duration),
        parallel=parallel, max_workers=max_workers, seed_timeout=seed_timeout,
        max_seed_retries=max_seed_retries, workload=None, backend=backend,
    )
    return {label: _outcome(*run).stat for label, run in runs.items()}


@dataclass
class SweepPoint:
    """One load point of a sweep: the x-value plus per-policy statistics."""

    load: float
    blocking: dict[str, SweepStatistic] = field(default_factory=dict)
    erlang_bound: float | None = None
