"""repro.lab — content-addressed study orchestration.

The orchestration tier above :mod:`repro.api`: a content-addressed result
store so overlapping studies reuse finished replications
(:mod:`repro.lab.store`), a resumable per-job scheduler with crash-safe
checkpointing (:mod:`repro.lab.scheduler`), structured JSONL progress
telemetry (:mod:`repro.lab.events`), and the canonical hashing that keys it
all (:mod:`repro.lab.hashing`).  Entry points::

    from repro.api import Scenario, run_study, LabConfig

    study = run_study(Scenario(), parallel=True,
                      lab=LabConfig(store="results/lab"))
    print(study.lab.describe())     # cache hits vs simulated, elapsed

    study = run_study(Scenario(), lab=LabConfig(store="results/lab"))
    assert study.lab.cache_hits == study.lab.total_jobs   # second pass: free

or from the command line::

    repro-routing lab run --topology nsfnet --traffic nominal --seeds 10
    repro-routing lab status
    repro-routing lab resume
"""

from __future__ import annotations

from .config import DEFAULT_STORE, LabConfig
from .events import EventBus, read_events
from .hashing import (
    canonical_json,
    config_signature,
    content_hash,
    job_key,
    scenario_signature,
    study_key,
)
from .store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    result_from_document,
    result_to_document,
)

__all__ = [
    "LabConfig",
    "DEFAULT_STORE",
    "EventBus",
    "read_events",
    "canonical_json",
    "content_hash",
    "scenario_signature",
    "config_signature",
    "job_key",
    "study_key",
    "RESULT_SCHEMA_VERSION",
    "ResultStore",
    "result_to_document",
    "result_from_document",
    # lazy (see __getattr__): scheduler exports
    "JobSpec",
    "LabRunReport",
    "LabInterrupted",
    "run_lab_study",
]

_SCHEDULER_EXPORTS = {"JobSpec", "LabRunReport", "LabInterrupted", "run_lab_study",
                      "study_manifest_spec", "scenario_from_spec"}


def __getattr__(name: str):
    # The scheduler imports repro.api (for Scenario/StudyResult) while
    # repro.api imports repro.lab.config (for LabConfig); loading the
    # scheduler lazily breaks that cycle.
    if name in _SCHEDULER_EXPORTS:
        from . import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
