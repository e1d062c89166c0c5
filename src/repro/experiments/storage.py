"""JSON persistence for experiment outputs.

Sweeps take minutes at paper fidelity; persisting them lets the CLI and
notebooks regenerate reports without re-simulating.  The format is plain
JSON — one document per sweep — with enough metadata (schema version,
config, provenance) to refuse incompatible files instead of misreading
them.

Documents are ``repro-sweep-v2``: they carry a provenance block (the
package version that produced them plus the canonical hash of the
replication config, via :mod:`repro.lab.hashing`) so :func:`load_sweep` can
*warn* when a file was produced by a different code version or under a
different config than its embedded one claims — a drifted sweep loads, but
never silently.  Any other schema is refused.  Per-replication caching
has moved to the lab's content-addressed store; these flat documents
remain the exchange format for aggregated sweeps.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Sequence

from ..sim.metrics import SweepStatistic
from .runner import ReplicationConfig, SweepPoint

__all__ = [
    "save_sweep",
    "load_sweep",
    "sweep_document",
    "statistic_to_dict",
    "ProvenanceWarning",
]

_SCHEMA = "repro-sweep-v2"


class ProvenanceWarning(UserWarning):
    """A sweep file's recorded provenance disagrees with this environment."""


def statistic_to_dict(stat: SweepStatistic) -> dict:
    """JSON-ready form of one aggregate statistic."""
    return {
        "mean": stat.mean,
        "std": stat.std,
        "half_width": stat.half_width,
        "num_runs": stat.num_runs,
        "values": list(stat.values),
    }


def _statistic_from_dict(data: dict) -> SweepStatistic:
    return SweepStatistic(
        mean=float(data["mean"]),
        std=float(data["std"]),
        half_width=float(data["half_width"]),
        num_runs=int(data["num_runs"]),
        values=tuple(float(v) for v in data.get("values", ())),
    )


def _config_dict(config: ReplicationConfig) -> dict:
    return {
        "measured_duration": config.measured_duration,
        "warmup": config.warmup,
        "seeds": list(config.seeds),
    }


def _config_hash(config: ReplicationConfig) -> str:
    from ..lab.hashing import content_hash

    return content_hash(_config_dict(config))


def _provenance(config: ReplicationConfig | None) -> dict:
    from ..lab.store import repro_version

    return {
        "repro_version": repro_version(),
        "config_hash": None if config is None else _config_hash(config),
    }


def sweep_document(
    points: Sequence[SweepPoint],
    config: ReplicationConfig | None = None,
    title: str = "",
) -> dict:
    """The JSON document form of a sweep (what :func:`save_sweep` writes)."""
    return {
        "schema": _SCHEMA,
        "title": title,
        "provenance": _provenance(config),
        "config": None if config is None else _config_dict(config),
        "points": [
            {
                "load": point.load,
                "erlang_bound": point.erlang_bound,
                "blocking": {
                    name: statistic_to_dict(stat)
                    for name, stat in point.blocking.items()
                },
            }
            for point in points
        ],
    }


def save_sweep(
    path: str | Path,
    points: Sequence[SweepPoint],
    config: ReplicationConfig | None = None,
    title: str = "",
) -> None:
    """Write a sweep to ``path`` as JSON (parents must exist)."""
    document = sweep_document(points, config, title)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def _check_provenance(document: dict, path: str | Path) -> None:
    """Warn (never fail) when a v2 file's provenance doesn't match us."""
    from ..lab.store import repro_version

    provenance = document.get("provenance")
    if not provenance:  # nothing recorded, nothing to check
        return
    recorded = provenance.get("repro_version")
    current = repro_version()
    if recorded is not None and recorded != current:
        warnings.warn(
            f"sweep file {path} was produced by repro {recorded}, but repro "
            f"{current} is loading it; regenerate if results look off",
            ProvenanceWarning,
            stacklevel=3,
        )
    recorded_hash = provenance.get("config_hash")
    config = document.get("config")
    if recorded_hash is not None and config is not None:
        actual = _config_hash(
            ReplicationConfig(
                measured_duration=float(config["measured_duration"]),
                warmup=float(config["warmup"]),
                seeds=tuple(int(s) for s in config["seeds"]),
            )
        )
        if actual != recorded_hash:
            warnings.warn(
                f"sweep file {path} embeds a config that no longer matches its "
                "recorded config hash; the file was edited after being saved",
                ProvenanceWarning,
                stacklevel=3,
            )


def load_sweep(path: str | Path) -> tuple[list[SweepPoint], ReplicationConfig | None, str]:
    """Read a sweep written by :func:`save_sweep`.

    Returns ``(points, config, title)``; the config is ``None`` when the
    file was saved without one.  Raises ``ValueError`` on schema mismatch;
    emits :class:`ProvenanceWarning` when the file records a different
    package version or a config hash that no longer matches its content.
    """
    document = json.loads(Path(path).read_text())
    schema = document.get("schema")
    if schema != _SCHEMA:
        raise ValueError(
            f"unrecognized sweep file schema {schema!r}; expected {_SCHEMA!r}"
        )
    _check_provenance(document, path)
    points = []
    for entry in document["points"]:
        point = SweepPoint(load=float(entry["load"]))
        bound = entry.get("erlang_bound")
        point.erlang_bound = None if bound is None else float(bound)
        point.blocking = {
            name: _statistic_from_dict(stat)
            for name, stat in entry["blocking"].items()
        }
        points.append(point)
    config = None
    if document.get("config"):
        raw = document["config"]
        config = ReplicationConfig(
            measured_duration=float(raw["measured_duration"]),
            warmup=float(raw["warmup"]),
            seeds=tuple(int(s) for s in raw["seeds"]),
        )
    return points, config, str(document.get("title", ""))
