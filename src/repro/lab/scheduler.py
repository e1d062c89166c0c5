"""Resumable study runner: decompose, cache-check, schedule, checkpoint.

A *study* (one :class:`~repro.api.Scenario`, one or more policies, one
replication window, N seeds) decomposes into per-``(policy, seed)`` *jobs*.
Each job is keyed by content (:mod:`repro.lab.hashing`) and looked up in the
:class:`~repro.lab.store.ResultStore` first; only misses are simulated.
Every finished job is checkpointed to the store *immediately* and the study
manifest rewritten, so a crash or interrupt loses at most the jobs that
were in flight — rerunning the identical call (or ``repro-routing lab
resume``) picks up exactly where the run stopped.

Determinism: a job is one policy replaying its seed's trace, built by
``Scenario.make_trace(duration, seed)`` — fully determined by its key — so
a resumed study is bit-identical to an uninterrupted one, and a repeated
study completes with 100% cache hits and zero simulation work (the
common-random-numbers discipline survives because traces are regenerated
from the seed, never stored).

Execution is the replication runner's study loop, the one a direct
:func:`repro.api.run_study` uses: a pass allots its ``max_jobs`` budget up
front, builds one trace per seed that still has a job to run, and every
policy with pending jobs replays those traces as one seed group of the
runner's executor — the same lockstep batch kernel, pool timeouts, retries
and serial fallback as a direct study.  The executor reports each seed as
it finishes, and the scheduler checkpoints it there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..experiments.runner import (
    PAPER_CONFIG,
    ReplicationConfig,
    SeedStatus,
    _outcome,
    _run_policies,
)
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
        # Only an event: a manifest saved while the job runs keeps it
        # ``pending``, so a pass killed between two saves leaves no job
        # marked as held by a process that no longer exists.
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


def _provenance(scenario_sig, config_sig, job: JobSpec, backend: str) -> dict:
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


def run_lab_study(
    scenario,
    *,
    policies: tuple[str, ...] | None = None,
    config: ReplicationConfig = PAPER_CONFIG,
    lab: LabConfig | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    seed_timeout: float | None = None,
    max_seed_retries: int = 1,
    backend: str = "auto",
):
    """Run (or resume) a study through the content-addressed lab.

    The public entry point behind ``repro.api.run_study(..., lab=...)``.
    Returns the same :class:`~repro.api.StudyResult` a direct run produces
    — bit-identical, whatever mix of cache hits and fresh simulation served
    it — with the pass's :class:`LabRunReport` attached as ``.lab``.

    The policy list gets :func:`~repro.api.run_study`'s check first: an
    empty list, a repeated name or an unknown name raises ``ValueError``
    before the store, a manifest or a trace is touched.  A pass then takes
    the first ``max_jobs`` pending jobs (all of them by default), builds one
    trace per seed that still has a job to run, and each policy replays
    those traces as one seed group of the replication runner's executor,
    with the arguments of
    :func:`~repro.experiments.runner.run_replications_detailed`: under
    ``"auto"`` the serial path runs the group in one lockstep
    batch-kernel call when the configuration allows, falling back per seed
    otherwise, and ``parallel=True`` uses the runner's pool with its
    ``seed_timeout``, retries and serial fallback.  Job keys never include
    the backend — every engine is bit-identical — so cached results keep
    hitting whatever backend produced them; the engine is recorded in each
    stored result's provenance instead.

    Raises :class:`LabInterrupted` when the pass stops early (``max_jobs``
    budget or ``KeyboardInterrupt``); completed jobs are already
    checkpointed, so the identical call resumes the study.
    """
    from ..api import StudyResult, _policy_names
    from .._compat import resolve_backend

    names = _policy_names(scenario, policies)
    backend = resolve_backend(backend)
    lab = lab if lab is not None else LabConfig()
    store = ResultStore(lab.store_path)
    scenario_sig = scenario_signature(scenario)
    config_sig = config_signature(config)
    jobs = [
        JobSpec(policy=name, seed=seed,
                key=job_key(scenario_sig, name, config_sig, seed,
                            RESULT_SCHEMA_VERSION))
        for name in names
        for seed in config.seeds
    ]
    index = {(job.policy, job.seed): job for job in jobs}
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
        allowed = pending if lab.max_jobs is None else pending[:lab.max_jobs]
        for job in allowed:
            run.record_started(job, worker="pool" if parallel else "serial")

        def checkpoint(name, status, result):
            job = index[name, status.seed]
            store.put_result(
                job.key, result,
                _provenance(scenario_sig, config_sig, job, status.backend),
            )
            run.record_finished(job, status.wall_clock)

        runs = _run_policies(
            scenario.network, scenario.traffic_matrix, config,
            groups={
                name: [job.seed for job in allowed if job.policy == name]
                for name in names
            },
            build_policy=scenario.build_policy,
            make_trace=partial(scenario.make_trace, config.duration),
            parallel=parallel, max_workers=max_workers,
            seed_timeout=seed_timeout, max_seed_retries=max_seed_retries,
            workload=scenario.resolved_workload(config.duration),
            backend=backend, on_result=checkpoint,
        ) if allowed else {}
        for name, (statuses, *__) in runs.items():
            for status in statuses:
                if not status.completed:
                    run.record_failed(index[name, status.seed],
                                      status.errors[-1], status.attempts)
        finished_all = len(allowed) == len(pending)
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
            job = index[name, seed]
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
        outcomes[name] = _outcome(
            statuses, results, False,
            "batch" if any(s.backend == "batch" for s in statuses) else backend,
        )
    run.emit_progress()
    bus.emit(
        "study_finished", study=skey, total_jobs=len(jobs),
        cache_hits=run.report.cache_hits, simulated=run.report.simulated,
        elapsed=run.report.elapsed,
    )
    bus.close()
    return StudyResult(outcomes=outcomes, config=config, lab=run.report)
