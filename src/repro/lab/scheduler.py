"""Resumable study runner: decompose, cache-check, schedule, checkpoint.

A *study* (one :class:`~repro.api.Scenario`, one or more policies, one
replication window, N seeds) decomposes into per-``(policy, seed)`` *jobs*.
Each job is keyed by content (:mod:`repro.lab.hashing`) and looked up in the
:class:`~repro.lab.store.ResultStore` first; only misses are simulated.
Every finished job is checkpointed to the store *immediately* and the study
manifest rewritten, so a crash or interrupt loses at most the jobs that
were in flight — rerunning the identical call (or ``repro-routing lab
resume``) picks up exactly where the run stopped.

Determinism: a job is ``generate_trace(traffic, duration, seed)`` followed
by ``simulate(...)`` — fully determined by its key — so a resumed study is
bit-identical to an uninterrupted one, and a repeated study completes with
100% cache hits and zero simulation work (the common-random-numbers
discipline survives because traces are regenerated from the seed, never
stored).

Parallel scheduling reuses the hardened runner's pool-initializer worker
context (:func:`repro.experiments.runner._install_worker_context`): the
network/policy/traffic are pickled once per worker, payloads are bare
seeds, and per-job compute time is measured inside the worker for ETA
telemetry.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..experiments.runner import (
    PAPER_CONFIG,
    ReplicationConfig,
    ReplicationOutcome,
    SeedStatus,
    _install_worker_context,
    _shared_context_worker,
    _timed_call,
)
from ..sim.metrics import aggregate
from .config import LabConfig
from .events import EventBus
from .hashing import config_signature, job_key, scenario_signature, study_key
from .store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    repro_version,
    result_from_document,
)

__all__ = [
    "JobSpec",
    "LabRunReport",
    "LabInterrupted",
    "run_lab_study",
    "study_manifest_spec",
    "scenario_from_spec",
]


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit: a single policy x seed replication."""

    policy: str
    seed: int
    key: str


@dataclass
class LabRunReport:
    """What one lab pass did: cache reuse, simulation work, telemetry."""

    study: str
    store: str
    events: str | None
    total_jobs: int
    cache_hits: int = 0
    simulated: int = 0
    failed: int = 0
    interrupted: bool = False
    elapsed: float = 0.0
    job_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.cache_hits + self.simulated == self.total_jobs

    def describe(self) -> str:
        state = "interrupted" if self.interrupted else (
            "complete" if self.complete else "incomplete"
        )
        return (
            f"study {self.study}: {state} — {self.total_jobs} jobs, "
            f"{self.cache_hits} cache hits, {self.simulated} simulated, "
            f"{self.failed} failed, {self.elapsed:.2f}s"
        )


class LabInterrupted(RuntimeError):
    """A lab run stopped before finishing (``max_jobs`` cut or Ctrl-C).

    Carries the :class:`LabRunReport`; everything already finished is
    checkpointed, so rerunning the same study resumes it.
    """

    def __init__(self, report: LabRunReport):
        super().__init__(report.describe())
        self.report = report


def study_manifest_spec(scenario) -> dict:
    """The declarative scenario spec stored in a manifest for CLI resume.

    Only string/number specs survive the JSON round trip; studies built
    from concrete ``Network``/``TrafficMatrix`` objects are still resumable
    by re-invoking :func:`run_lab_study` with the same objects (the content
    hash matches), just not from the CLI alone.
    """
    workload = getattr(scenario, "workload", None)
    resumable = (
        isinstance(scenario.topology, str)
        and isinstance(scenario.traffic, (str, int, float))
        and (workload is None or isinstance(workload, str))
    )
    return {
        "resumable": resumable,
        "topology": scenario.topology if resumable else None,
        "traffic": scenario.traffic if resumable else None,
        "policy": scenario.policy,
        "max_hops": scenario.max_hops,
        "load_scale": scenario.load_scale,
        "workload": workload if resumable else None,
    }


def scenario_from_spec(spec: dict):
    """Rebuild a Scenario from a manifest spec (CLI ``lab resume``)."""
    from ..api import Scenario

    if not spec.get("resumable"):
        raise ValueError(
            "study was built from in-memory network/traffic objects; resume "
            "it by re-running the same repro.api.run_study(..., lab=...) call"
        )
    return Scenario(
        topology=spec["topology"],
        traffic=spec["traffic"],
        policy=spec["policy"],
        max_hops=spec["max_hops"],
        load_scale=spec["load_scale"],
        workload=spec.get("workload"),
    )


def _initial_manifest(
    scenario, names, config, jobs, skey, scenario_sig, config_sig
) -> dict:
    return {
        "study": skey,
        "repro_version": repro_version(),
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "spec": study_manifest_spec(scenario),
        "scenario_signature": scenario_sig,
        "config": {
            "measured_duration": config.measured_duration,
            "warmup": config.warmup,
            "seeds": list(config.seeds),
        },
        "config_signature": config_sig,
        "policies": list(names),
        "jobs": {
            job.key: {"policy": job.policy, "seed": job.seed, "status": "pending"}
            for job in jobs
        },
    }


class _StudyRun:
    """Mutable state of one scheduling pass over a study's job roster."""

    def __init__(self, store, bus, manifest, skey, lab, total_jobs):
        self.store = store
        self.bus = bus
        self.manifest = manifest
        self.skey = skey
        self.lab = lab
        self.report = LabRunReport(
            study=skey,
            store=str(store.root),
            events=None if bus.path is None else str(bus.path),
            total_jobs=total_jobs,
        )
        self._started = time.perf_counter()
        self._finished_since_progress = 0

    def job_entry(self, job: JobSpec) -> dict:
        return self.manifest["jobs"][job.key]

    def record_cache_hit(self, job: JobSpec) -> None:
        entry = self.job_entry(job)
        entry["status"] = "cached"
        self.report.cache_hits += 1
        self.bus.emit(
            "job_cache_hit", study=self.skey, job=job.key,
            policy=job.policy, seed=job.seed,
        )

    def record_started(self, job: JobSpec, worker: str) -> None:
        self.job_entry(job)["status"] = "running"
        self.bus.emit(
            "job_started", study=self.skey, job=job.key,
            policy=job.policy, seed=job.seed, worker=worker,
        )

    def record_finished(self, job: JobSpec, elapsed: float) -> None:
        entry = self.job_entry(job)
        entry["status"] = "done"
        entry["elapsed"] = elapsed
        self.report.simulated += 1
        self.report.job_seconds[job.key] = elapsed
        self.bus.emit(
            "job_finished", study=self.skey, job=job.key,
            policy=job.policy, seed=job.seed, elapsed=elapsed,
        )
        self.checkpoint()
        self._finished_since_progress += 1
        if self._finished_since_progress >= self.lab.progress_every:
            self._finished_since_progress = 0
            self.emit_progress()

    def record_failed(self, job: JobSpec, error: str, attempts: int) -> None:
        entry = self.job_entry(job)
        entry["status"] = "failed"
        entry["error"] = error
        self.report.failed += 1
        self.bus.emit(
            "job_failed", study=self.skey, job=job.key,
            policy=job.policy, seed=job.seed, error=error, attempts=attempts,
        )
        self.checkpoint()

    def checkpoint(self) -> None:
        self.store.save_manifest(self.skey, self.manifest)

    def emit_progress(self) -> None:
        done = self.report.cache_hits + self.report.simulated
        remaining = self.report.total_jobs - done - self.report.failed
        seconds = list(self.report.job_seconds.values())
        mean = sum(seconds) / len(seconds) if seconds else None
        elapsed = time.perf_counter() - self._started
        throughput = self.report.simulated / elapsed if elapsed > 0 else None
        self.bus.emit(
            "progress", study=self.skey, done=done,
            total=self.report.total_jobs, cache_hits=self.report.cache_hits,
            simulated=self.report.simulated, failed=self.report.failed,
            mean_job_seconds=mean, jobs_per_sec=throughput,
            eta_seconds=None if not throughput or remaining == 0
            else remaining / throughput,
        )

    @property
    def budget_left(self) -> bool:
        if self.lab.max_jobs is None:
            return True
        return self.report.simulated < self.lab.max_jobs


def _provenance(scenario_sig, config_sig, job: JobSpec, backend: str = "auto") -> dict:
    # The backend is recorded for provenance, never hashed into job_key:
    # every engine is bit-identical, so results produced by one backend must
    # keep cache-hitting runs requested under another.
    return {
        "repro_version": repro_version(),
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "scenario": scenario_sig,
        "policy": job.policy,
        "config": config_sig,
        "seed": job.seed,
        "backend": backend,
    }


def _simulate_job(scenario, policy_obj, config: ReplicationConfig, seed: int,
                  backend: str = "auto"):
    """One job, in-process: regenerate the trace, simulate, time it."""
    from ..sim.simulator import simulate

    def worker(seed):
        trace = scenario.make_trace(config.duration, seed)
        return simulate(scenario.network, policy_obj, trace, config.warmup,
                        backend=backend)

    return _timed_call(worker, seed)


def _run_group_batch(run, scenario, scenario_sig, config_sig, config,
                     policy_name, group) -> bool | None:
    """Try one policy's pending seeds as a single lockstep batch-kernel run.

    Returns ``True``/``False`` with the usual budget meaning when the batch
    kernel handled the group, ``None`` when it could not (inexpressible
    configuration, a lone seed, or a kernel error) — the caller then falls
    back to the per-seed serial path.  Respects ``max_jobs`` by truncating
    the group to the remaining budget; the cut seeds stay pending for the
    resume pass, exactly as the serial scheduler leaves them.
    """
    from ..sim.batch import batch_ineligibility, simulate_batch

    budget = None
    if run.lab.max_jobs is not None:
        budget = max(0, run.lab.max_jobs - run.report.simulated)
        if budget == 0:
            return False
    truncated = budget is not None and budget < len(group)
    batch_group = group[:budget] if truncated else list(group)
    if len(batch_group) < 2:
        return None
    policy_obj = scenario.build_policy(policy_name)
    traces = [scenario.make_trace(config.duration, job.seed)
              for job in batch_group]
    if batch_ineligibility(policy_obj, traces) is not None:
        return None
    for job in batch_group:
        run.record_started(job, worker="batch")
    start = time.perf_counter()
    try:
        results = simulate_batch(
            scenario.network, policy_obj, traces, config.warmup
        )
    except Exception:  # noqa: BLE001 - the serial path is the safety net
        for job in batch_group:
            run.job_entry(job)["status"] = "pending"
        return None
    share = (time.perf_counter() - start) / len(batch_group)
    for job, result in zip(batch_group, results):
        run.store.put_result(
            job.key, result,
            _provenance(scenario_sig, config_sig, job, backend="batch"),
        )
        run.record_finished(job, share)
    return not truncated


def _run_group_serial(run, scenario, scenario_sig, config_sig, config,
                      policy_name, group, max_seed_retries, backend="auto"):
    policy_obj = scenario.build_policy(policy_name)
    for job in group:
        if not run.budget_left:
            return False
        run.record_started(job, worker="serial")
        attempts = 0
        while True:
            attempts += 1
            try:
                elapsed, result = _simulate_job(
                    scenario, policy_obj, config, job.seed, backend=backend
                )
            except Exception as exc:  # noqa: BLE001 - report, keep scheduling
                if attempts > max_seed_retries:
                    run.record_failed(job, f"{type(exc).__name__}: {exc}", attempts)
                    break
            else:
                run.store.put_result(
                    job.key, result,
                    _provenance(scenario_sig, config_sig, job, backend=backend),
                )
                run.record_finished(job, elapsed)
                break
    return True


def _run_group_parallel(run, scenario, scenario_sig, config_sig, config,
                        policy_name, group, max_workers, max_seed_retries,
                        backend="auto"):
    """Fan one policy's pending seeds over the shared-context process pool."""
    policy_obj = scenario.build_policy(policy_name)
    attempts: dict[str, int] = {job.key: 0 for job in group}
    queue = list(group)
    budget_exhausted = False
    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_install_worker_context,
        initargs=(scenario.network, policy_obj, scenario.traffic_matrix,
                  config.duration, config.warmup,
                  scenario.resolved_workload(config.duration), backend),
    ) as pool:
        inflight = {}
        workers = max_workers or (os.cpu_count() or 1)

        def submit_next():
            while queue and len(inflight) < workers:
                job = queue.pop(0)
                attempts[job.key] += 1
                run.record_started(job, worker="pool")
                inflight[pool.submit(_timed_call, _shared_context_worker, job.seed)] = job

        submit_next()
        while inflight:
            done, __ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                job = inflight.pop(future)
                try:
                    elapsed, result = future.result()
                except Exception as exc:  # noqa: BLE001 - retry, then report
                    if attempts[job.key] <= max_seed_retries:
                        queue.append(job)
                    else:
                        run.record_failed(
                            job, f"{type(exc).__name__}: {exc}", attempts[job.key]
                        )
                else:
                    run.store.put_result(
                        job.key, result,
                        _provenance(scenario_sig, config_sig, job, backend=backend),
                    )
                    run.record_finished(job, elapsed)
            if not run.budget_left:
                budget_exhausted = True
                queue.clear()
                for future, job in list(inflight.items()):
                    if future.cancel():
                        run.job_entry(job)["status"] = "pending"
                        del inflight[future]
                # Futures already running cannot be cancelled; let them
                # finish and checkpoint rather than discarding real work.
            submit_next()
    return not budget_exhausted


def run_lab_study(
    scenario,
    *,
    policies: tuple[str, ...] | None = None,
    config: ReplicationConfig = PAPER_CONFIG,
    lab: LabConfig | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    max_seed_retries: int = 1,
    backend: str = "auto",
):
    """Run (or resume) a study through the content-addressed lab.

    The public entry point behind ``repro.api.run_study(..., lab=...)``.
    Returns the same :class:`~repro.api.StudyResult` a direct run produces
    — bit-identical, whatever mix of cache hits and fresh simulation served
    it — with the pass's :class:`LabRunReport` attached as ``.lab``
    (a :class:`~repro.api.BatchResult` when the lockstep batch kernel
    produced any of the results, this pass or a cached earlier one).

    ``backend`` selects the execution engine.  Under ``"auto"``/``"batch"``
    the serial scheduler runs each policy's pending seeds as one lockstep
    batch-kernel group when the configuration allows, falling back per seed
    otherwise; ``"fast"``/``"reference"`` force the per-seed loops.  Job
    keys never include the backend — every engine is bit-identical — so
    cached results keep hitting whatever backend produced them; the engine
    is recorded in each stored result's provenance instead.

    Raises :class:`LabInterrupted` when the pass stops early (``max_jobs``
    budget or ``KeyboardInterrupt``); completed jobs are already
    checkpointed, so the identical call resumes the study.
    """
    from ..api import BatchResult, StudyResult
    from .._compat import resolve_backend

    backend = resolve_backend(backend)
    per_seed = backend if backend in ("fast", "reference") else "auto"
    lab = lab if lab is not None else LabConfig()
    store = ResultStore(lab.store_path)
    names = (scenario.policy,) if policies is None else tuple(policies)
    scenario_sig = scenario_signature(scenario)
    config_sig = config_signature(config)
    jobs = [
        JobSpec(policy=name, seed=seed,
                key=job_key(scenario_sig, name, config_sig, seed,
                            RESULT_SCHEMA_VERSION))
        for name in names
        for seed in config.seeds
    ]
    skey = study_key(scenario_sig, names, config_sig, tuple(config.seeds),
                     RESULT_SCHEMA_VERSION)
    manifest = store.load_manifest(skey)
    if manifest is None:
        manifest = _initial_manifest(
            scenario, names, config, jobs, skey, scenario_sig, config_sig
        )
    events_path = (
        lab.events if lab.events is not None
        else store.root / "events" / f"{skey}.jsonl"
    )
    bus = EventBus(events_path)
    run = _StudyRun(store, bus, manifest, skey, lab, total_jobs=len(jobs))
    started = time.perf_counter()
    try:
        cached = [job for job in jobs if job.key in store]
        pending = [job for job in jobs if job.key not in store]
        bus.emit(
            "study_started", study=skey, total_jobs=len(jobs),
            cached=len(cached), pending=len(pending),
            policies=list(names), seeds=list(config.seeds),
            parallel=parallel, repro_version=repro_version(),
        )
        for job in cached:
            run.record_cache_hit(job)
        run.checkpoint()
        finished_all = True
        for name in names:
            group = [job for job in pending if job.policy == name]
            if not group:
                continue
            if parallel:
                ok = _run_group_parallel(
                    run, scenario, scenario_sig, config_sig, config,
                    name, group, max_workers, max_seed_retries, backend=per_seed,
                )
            else:
                ok = None
                if backend in ("auto", "batch"):
                    ok = _run_group_batch(
                        run, scenario, scenario_sig, config_sig, config,
                        name, group,
                    )
                if ok is None:
                    ok = _run_group_serial(
                        run, scenario, scenario_sig, config_sig, config,
                        name, group, max_seed_retries, backend=per_seed,
                    )
            if not ok:
                finished_all = False
                break
    except KeyboardInterrupt:
        run.report.interrupted = True
        run.report.elapsed = time.perf_counter() - started
        run.checkpoint()
        bus.emit("study_interrupted", study=skey, reason="keyboard-interrupt",
                 simulated=run.report.simulated, cache_hits=run.report.cache_hits)
        bus.close()
        raise LabInterrupted(run.report) from None
    run.report.elapsed = time.perf_counter() - started
    if not finished_all or not run.report.complete:
        run.report.interrupted = not finished_all
        run.checkpoint()
        bus.emit(
            "study_interrupted" if run.report.interrupted else "study_incomplete",
            study=skey, reason="max-jobs budget" if run.report.interrupted
            else "failed jobs", simulated=run.report.simulated,
            cache_hits=run.report.cache_hits, failed=run.report.failed,
        )
        bus.close()
        raise LabInterrupted(run.report)
    outcomes = {}
    for name in names:
        results, statuses = [], []
        for seed in config.seeds:
            job = next(j for j in jobs if j.policy == name and j.seed == seed)
            document = store.get(job.key)
            result = result_from_document(document)
            job_backend = (document.get("provenance") or {}).get("backend")
            entry = manifest["jobs"][job.key]
            cached_job = job.key not in run.report.job_seconds
            statuses.append(SeedStatus(
                seed=seed, completed=True,
                attempts=0 if cached_job else 1,
                cached=cached_job,
                wall_clock=entry.get("elapsed"),
                backend=job_backend,
            ))
            results.append(result)
        stat = aggregate([result.network_blocking for result in results])
        group_backend = (
            "batch" if any(s.backend == "batch" for s in statuses) else per_seed
        )
        outcomes[name] = ReplicationOutcome(
            stat, results, statuses, backend=group_backend
        )
    run.emit_progress()
    bus.emit(
        "study_finished", study=skey, total_jobs=len(jobs),
        cache_hits=run.report.cache_hits, simulated=run.report.simulated,
        elapsed=run.report.elapsed,
    )
    bus.close()
    cls = (
        BatchResult
        if any(outcome.backend == "batch" for outcome in outcomes.values())
        else StudyResult
    )
    return cls(outcomes=outcomes, config=config, lab=run.report)
