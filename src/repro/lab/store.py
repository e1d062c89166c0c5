"""Content-addressed result store: finished replications, keyed by meaning.

Layout (all plain JSON, one document per file, atomic writes)::

    <root>/objects/<k[:2]>/<key>.json   one simulated replication
    <root>/studies/<study>.json         one study manifest (job roster)

Objects are immutable once written — the key *is* the content identity
(scenario + policy + window + seed + result-schema version, see
:mod:`repro.lab.hashing`), so a hit can be returned without re-simulating
and two overlapping studies share entries.  Manifests record which jobs a
study owns and their status; they are rewritten as jobs finish, which is
what makes a killed study resumable.  ``gc`` removes objects no manifest
references.

Serialization is exact: integer counter arrays round-trip with their dtype,
floats round-trip through JSON's shortest-repr form, so a cached result is
bit-identical to the freshly simulated one (the lab's core guarantee).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..sim.metrics import SimulationResult

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ResultStore",
    "result_to_document",
    "result_from_document",
]

#: Version of the simulated-result semantics baked into job keys.  Bump it
#: whenever the simulator's statistics change meaning: every cached result
#: keyed under the old version then misses, forcing re-simulation instead of
#: silently serving stale numbers.
RESULT_SCHEMA_VERSION = 1

_RESULT_SCHEMA = "repro-lab-result-v1"
_MANIFEST_SCHEMA = "repro-lab-study-v1"


def repro_version() -> str:
    """The installed package version (lazy: repro may be mid-import)."""
    import repro

    return getattr(repro, "__version__", "unknown")


def _int_array_to_doc(array: np.ndarray) -> dict:
    return {"dtype": str(array.dtype), "values": array.tolist()}


def _int_array_from_doc(doc: dict) -> np.ndarray:
    return np.asarray(doc["values"], dtype=np.dtype(doc["dtype"]))


def result_to_document(result: SimulationResult, provenance: dict | None = None) -> dict:
    """Exact JSON form of one simulation result (plus optional provenance)."""
    return {
        "schema": _RESULT_SCHEMA,
        "provenance": provenance or {},
        "od_pairs": [list(od) for od in result.od_pairs],
        "offered": _int_array_to_doc(result.offered),
        "blocked": _int_array_to_doc(result.blocked),
        "primary_carried": result.primary_carried,
        "alternate_carried": result.alternate_carried,
        "warmup": result.warmup,
        "duration": result.duration,
        "seed": result.seed,
        "class_names": list(result.class_names),
        "class_offered": _int_array_to_doc(result.class_offered),
        "class_blocked": _int_array_to_doc(result.class_blocked),
        "dropped": None if result.dropped is None else _int_array_to_doc(result.dropped),
    }


def result_from_document(document: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` bit-identically from its document."""
    if document.get("schema") != _RESULT_SCHEMA:
        raise ValueError(
            f"unrecognized result schema {document.get('schema')!r}; "
            f"expected {_RESULT_SCHEMA!r}"
        )
    dropped = document.get("dropped")
    return SimulationResult(
        od_pairs=tuple(tuple(od) for od in document["od_pairs"]),
        offered=_int_array_from_doc(document["offered"]),
        blocked=_int_array_from_doc(document["blocked"]),
        primary_carried=int(document["primary_carried"]),
        alternate_carried=int(document["alternate_carried"]),
        warmup=float(document["warmup"]),
        duration=float(document["duration"]),
        seed=int(document["seed"]),
        class_names=tuple(document.get("class_names", ())),
        class_offered=_int_array_from_doc(document["class_offered"]),
        class_blocked=_int_array_from_doc(document["class_blocked"]),
        dropped=None if dropped is None else _int_array_from_doc(dropped),
    )


def _write_atomic(path: Path, document: dict) -> None:
    """Write JSON via a temp file + rename so a kill never leaves half a doc."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True))
    os.replace(tmp, path)


class ResultStore:
    """Content-addressed replication results plus study manifests."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------- objects

    def object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.object_path(key).exists()

    def put(self, key: str, document: dict) -> None:
        """Store one object (idempotent: same key, same content)."""
        _write_atomic(self.object_path(key), document)

    def get(self, key: str) -> dict | None:
        path = self.object_path(key)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def put_result(
        self, key: str, result: SimulationResult, provenance: dict | None = None
    ) -> None:
        self.put(key, result_to_document(result, provenance))

    def get_result(self, key: str) -> SimulationResult | None:
        document = self.get(key)
        if document is None:
            return None
        return result_from_document(document)

    def keys(self) -> list[str]:
        objects = self.root / "objects"
        if not objects.exists():
            return []
        return sorted(path.stem for path in objects.glob("*/*.json"))

    # ----------------------------------------------------------- manifests

    def manifest_path(self, study: str) -> Path:
        return self.root / "studies" / f"{study}.json"

    def save_manifest(self, study: str, manifest: dict) -> None:
        manifest = {"schema": _MANIFEST_SCHEMA, **manifest}
        _write_atomic(self.manifest_path(study), manifest)

    def load_manifest(self, study: str) -> dict | None:
        path = self.manifest_path(study)
        if not path.exists():
            return None
        manifest = json.loads(path.read_text())
        if manifest.get("schema") != _MANIFEST_SCHEMA:
            raise ValueError(
                f"unrecognized study manifest schema {manifest.get('schema')!r}"
            )
        return manifest

    def list_studies(self) -> list[str]:
        studies = self.root / "studies"
        if not studies.exists():
            return []
        return sorted(path.stem for path in studies.glob("*.json"))

    # ------------------------------------------------------- maintenance

    def stats(self) -> dict:
        """Object/manifest counts and on-disk size, for ``lab ls``."""
        objects = self.keys()
        size = sum(self.object_path(key).stat().st_size for key in objects)
        return {
            "root": str(self.root),
            "objects": len(objects),
            "bytes": size,
            "studies": len(self.list_studies()),
        }

    def referenced_keys(self) -> set[str]:
        """Every object key referenced by any study manifest."""
        referenced: set[str] = set()
        for study in self.list_studies():
            manifest = self.load_manifest(study)
            if manifest is None:
                continue
            referenced.update(manifest.get("jobs", {}).keys())
        return referenced

    def gc(self) -> dict:
        """Delete objects no manifest references; returns removal counts."""
        referenced = self.referenced_keys()
        removed = 0
        for key in self.keys():
            if key not in referenced:
                self.object_path(key).unlink()
                removed += 1
        # Sweep now-empty fan-out directories so the tree stays tidy.
        objects = self.root / "objects"
        if objects.exists():
            for bucket in objects.iterdir():
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
        return {"removed": removed, "kept": len(self.keys())}
