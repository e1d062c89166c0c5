"""Engine selection for the simulation entry points.

Every simulation entry point (``simulate``, ``run_scenario``, ``run_study``,
the replication runner and the lab scheduler) takes one ``backend=``
keyword; :func:`resolve_backend` validates it in one place.
"""

from __future__ import annotations

__all__ = ["BACKENDS", "resolve_backend"]

#: Valid values for the unified ``backend=`` keyword: ``auto`` picks the
#: fastest exact engine for the job, ``fast`` the per-seed vectorized loop,
#: ``reference`` the general event-loop oracle.
BACKENDS = ("auto", "fast", "reference")


def resolve_backend(backend: str | None = None, *, default: str = "auto") -> str:
    """The engine ``backend`` names (``None`` means ``default``).

    Raises :class:`ValueError` for a name outside :data:`BACKENDS`.
    """
    if backend is None:
        backend = default
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend
