"""Regeneration of the paper's figures.

Each function returns the plotted series as plain data (the repository is
plot-library-free by design); the benchmark harnesses print the same rows.

* :func:`figure2_protection_levels` — Figure 2: ``r`` vs ``Lambda`` for
  ``C = 100`` and ``H in {2, 6, 120}``.
* :func:`quadrangle_sweep` — Figures 3 and 4: blocking vs offered load on
  the fully-connected quadrangle for single-path / uncontrolled /
  controlled routing, plus the Erlang bound (the two figures show the same
  data on linear and log scales).
* :func:`nsfnet_sweep` — Figures 6 and 7: blocking vs load multiplier on
  the NSFNet model (nominal load = 10), same four series, for a given ``H``.

Each sweep is defined once, as a job graph ``{load: (Scenario, policies)}``
(:func:`quadrangle_jobs`, :func:`nsfnet_jobs`) that :func:`run_sweep` runs
through :func:`repro.api.run_study`.  The experiment registry derives the
printed report, the ``--json`` document and the lab's job graph
(``repro-routing lab run --experiment FIG3``) from the same definition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.erlang_bound import erlang_bound
from ..core.protection import figure2_curve
from .runner import PAPER_CONFIG, ReplicationConfig, SweepPoint

__all__ = [
    "figure2_protection_levels",
    "quadrangle_jobs",
    "nsfnet_jobs",
    "run_sweep",
    "quadrangle_sweep",
    "nsfnet_sweep",
    "QUADRANGLE_LOADS",
    "NSFNET_LOAD_MULTIPLIERS",
]

#: Per-pair offered loads (Erlangs) spanning the paper's Figure 3/4 range,
#: bracketing the 85-95 Erlang crossover region it highlights.
QUADRANGLE_LOADS: tuple[float, ...] = (60.0, 70.0, 80.0, 85.0, 90.0, 95.0, 100.0, 110.0)

#: Load multipliers for Figures 6/7, as fractions of nominal (paper Load=10
#: is nominal; we express the x-axis in the paper's units).
NSFNET_LOAD_MULTIPLIERS: tuple[float, ...] = (6.0, 8.0, 9.0, 10.0, 11.0, 12.0, 14.0)


def figure2_protection_levels(
    capacity: int = 100,
    hops: Sequence[int] = (2, 6, 120),
    loads: Sequence[float] | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Figure 2's curves: ``{H: (loads, r_values)}``."""
    return {h: figure2_curve(capacity, h, loads) for h in hops}


def _policies(include_ott_krishnan: bool) -> tuple[str, ...]:
    base = ("single-path", "uncontrolled", "controlled")
    return base + (("ott-krishnan",) if include_ott_krishnan else ())


def quadrangle_jobs(
    loads: Sequence[float] = QUADRANGLE_LOADS,
    include_ott_krishnan: bool = False,
) -> dict[float, tuple]:
    """Figures 3/4's job graph: ``{load: (Scenario, policies)}``.

    One study per per-pair offered load on the quadrangle, every policy on
    common random numbers.  Protection levels are recomputed at every load
    point from that point's primary demands, exactly as a deployed link
    would ("based on its current estimate of the resource demand").
    """
    from ..api import Scenario

    policies = _policies(include_ott_krishnan)
    return {
        float(per_pair): (
            Scenario(topology="quadrangle", traffic=float(per_pair)), policies
        )
        for per_pair in loads
    }


def nsfnet_jobs(
    load_values: Sequence[float] = NSFNET_LOAD_MULTIPLIERS,
    max_hops: int | None = None,
    include_ott_krishnan: bool = False,
) -> dict[float, tuple]:
    """Figures 6/7's job graph: ``{load: (Scenario, policies)}``.

    ``load_values`` use the paper's axis units where 10 is the nominal
    (calibrated) matrix; other loads scale it linearly.  ``max_hops=None``
    reproduces the unlimited-alternates setting (``H = 11``); pass 6 for
    the Section-4.2.2 restriction.
    """
    from ..api import Scenario

    policies = _policies(include_ott_krishnan)
    return {
        float(load): (
            Scenario(topology="nsfnet", traffic="nominal",
                     load_scale=load / 10.0, max_hops=max_hops),
            policies,
        )
        for load in load_values
    }


def run_sweep(
    jobs: dict[float, tuple], config: ReplicationConfig = PAPER_CONFIG
) -> list[SweepPoint]:
    """Run a sweep's job graph through :func:`repro.api.run_study`.

    One :class:`SweepPoint` per load, with each policy's blocking and the
    Erlang cut-set bound of that point's network and traffic.
    """
    from ..api import run_study

    points: list[SweepPoint] = []
    for load, (scenario, policies) in jobs.items():
        study = run_study(scenario, policies=policies, config=config)
        points.append(SweepPoint(
            load=load, blocking=study.blocking(),
            erlang_bound=erlang_bound(scenario.network, scenario.traffic_matrix),
        ))
    return points


def quadrangle_sweep(
    loads: Sequence[float] = QUADRANGLE_LOADS,
    config: ReplicationConfig = PAPER_CONFIG,
    include_ott_krishnan: bool = False,
) -> list[SweepPoint]:
    """Figures 3/4: blocking vs per-pair offered load on the quadrangle."""
    return run_sweep(quadrangle_jobs(loads, include_ott_krishnan), config)


def nsfnet_sweep(
    load_values: Sequence[float] = NSFNET_LOAD_MULTIPLIERS,
    max_hops: int | None = None,
    config: ReplicationConfig = PAPER_CONFIG,
    include_ott_krishnan: bool = False,
) -> list[SweepPoint]:
    """Figures 6/7: blocking vs load on the NSFNet model.

    :func:`nsfnet_jobs` explains the load axis and ``max_hops``.
    """
    return run_sweep(
        nsfnet_jobs(load_values, max_hops, include_ott_krishnan), config
    )
