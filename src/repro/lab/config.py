"""Lab run configuration: the ``lab=`` knob of :func:`repro.api.run_study`.

Kept free of heavy imports so :mod:`repro.api` can re-export
:class:`LabConfig` without pulling the scheduler (and its process-pool
machinery) into every ``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["LabConfig", "DEFAULT_STORE"]

#: Default result-store root, relative to the current working directory.
DEFAULT_STORE = Path(".repro-lab")


@dataclass(frozen=True, kw_only=True)
class LabConfig:
    """How a study is orchestrated through the lab.

    ``store``
        Root directory of the content-addressed result store.  Created on
        first use; safe to share between studies (that sharing is the
        point — overlapping studies reuse each other's replications).
    ``events``
        JSONL telemetry path.  ``None`` places the log inside the store
        (``events/<study-key>.jsonl``); pass an explicit path to aggregate
        several studies into one stream.
    ``max_jobs``
        Cap on the jobs one pass attempts (cache hits are free; a job that
        fails after its retries counts), then stop and checkpoint.  The cap
        is applied before a policy's jobs start, so a pool never simulates
        past it.  ``None`` = run to completion.  This is the deterministic
        stand-in for an interrupt: the resume tests use it to stop a study
        halfway.
    ``progress_every``
        Emit a ``progress`` event (ETA, throughput) after every N finished
        jobs.
    """

    store: str | Path = DEFAULT_STORE
    events: str | Path | None = None
    max_jobs: int | None = None
    progress_every: int = 1

    def __post_init__(self):
        if self.max_jobs is not None and self.max_jobs < 0:
            raise ValueError("max_jobs must be non-negative")
        if self.progress_every < 1:
            raise ValueError("progress_every must be at least 1")

    @property
    def store_path(self) -> Path:
        return Path(self.store)
