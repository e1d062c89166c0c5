"""Registry of the paper's experiments, keyed by DESIGN.md identifiers.

Maps each experiment id (``FIG3``, ``TAB1``, ``EXP-FAIL``, ...) to a
self-contained regeneration function returning a printable report, so the
CLI (``repro-routing experiment FIG3``) and scripts can reproduce any single
artifact without knowing which module implements it.  The benchmark files
under ``benchmarks/`` exercise the same code paths with assertions attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .figures import (
    figure2_protection_levels,
    nsfnet_jobs,
    quadrangle_jobs,
    run_sweep,
)
from .generalization import general_mesh_comparison
from .optimal_r import empirical_optimal_reservation
from .prose import fairness_comparison, link_failure_comparison, minloss_comparison
from .robustness import dynamic_failure_comparison, forecast_error_sweep
from .report import format_sweep, format_table, format_table1
from .runner import PAPER_CONFIG, ReplicationConfig
from .storage import statistic_to_dict, sweep_document
from .tables import regenerate_table1, table1_agreement

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiment_json",
    "experiment_job_graph",
    "lab_runnable_experiments",
    "list_experiments",
    "run_all",
]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact: id, description, and regeneration logic.

    ``run`` renders the printable report; ``data``, where provided, computes
    the same artifact as a JSON-ready dict for machine consumption (the
    CLI's ``experiment --json``).  Experiments without a ``data`` callable
    fall back to shipping the rendered report inside the JSON envelope.

    ``jobs``, where provided, decomposes the experiment into its lab job
    graph: a list of ``(Scenario, policies)`` studies covering every
    replication the artifact needs.  ``repro-routing lab run --experiment
    ID`` runs that graph through the content-addressed store, so the
    sweep's replications are checkpointed per seed, resumable, and shared
    with any other study touching the same points.
    """

    id: str
    title: str
    bench: str
    run: Callable[[ReplicationConfig], str]
    data: Callable[[ReplicationConfig], dict] | None = None
    jobs: Callable[[], list[tuple["Scenario", tuple[str, ...]]]] | None = None


def _sweep(
    experiment_id: str, title: str, bench: str, heading: str,
    jobs: Callable[[], dict], appendix: Callable[[], str] | None = None,
) -> Experiment:
    """A load sweep's registry entry, all derived from its job graph.

    ``jobs()`` is the sweep's one definition (``{load: (Scenario,
    policies)}``, from :mod:`repro.experiments.figures`): the report and the
    ``--json`` document run it through :func:`run_sweep`, and the lab runs
    its studies.  ``appendix``, if given, adds text below the report.
    """
    def report(config: ReplicationConfig) -> str:
        text = format_sweep(run_sweep(jobs(), config), heading)
        return text if appendix is None else text + appendix()

    def data(config: ReplicationConfig) -> dict:
        return sweep_document(run_sweep(jobs(), config), config, heading)

    return Experiment(experiment_id, title, bench, report, data,
                      lambda: list(jobs().values()))


def _fig2(config: ReplicationConfig) -> str:
    curves = figure2_protection_levels()
    loads = curves[2][0]
    rows = [
        [int(load)] + [int(curves[h][1][i]) for h in (2, 6, 120)]
        for i, load in enumerate(loads)
        if load % 10 == 0
    ]
    return "Figure 2: r vs Lambda (C=100)\n" + format_table(
        ["Lambda", "r(H=2)", "r(H=6)", "r(H=120)"], rows
    )


def _tab1(config: ReplicationConfig) -> str:
    rows = regenerate_table1()
    agreement = table1_agreement(rows)
    return (
        "Table 1: NSFNet under the calibrated nominal load\n"
        + format_table1(rows)
        + f"\nagreement: loads {agreement['load_match_fraction']:.0%}, "
        f"protection {agreement['protection_match_fraction']:.0%}"
    )


def _h6_census() -> str:
    from ..topology.nsfnet import nsfnet_backbone
    from ..topology.paths import alternate_path_census, build_path_table

    network = nsfnet_backbone()
    rows = []
    for hops in (6, 9, 11):
        census = alternate_path_census(build_path_table(network, max_hops=hops))
        rows.append([hops, census["mean"], int(census["max"]), int(census["min"])])
    return (
        "\n\nNSFNet alternate-path census by hop limit H\n"
        + format_table(["H", "mean", "max", "min"], rows)
    )


def _failures(config: ReplicationConfig) -> str:
    outcome = link_failure_comparison(config)
    rows = [
        [name, stats["single-path"].mean, stats["uncontrolled"].mean,
         stats["controlled"].mean]
        for name, stats in outcome.items()
    ]
    return "Section 4.2.2: link failures, NSFNet at load 12\n" + format_table(
        ["scenario", "single-path", "uncontrolled", "controlled"], rows
    )


def _fairness(config: ReplicationConfig) -> str:
    reports = fairness_comparison(config)
    rows = [
        [name, r.mean, r.coefficient_of_variation, r.gini, r.max]
        for name, r in reports.items()
    ]
    return "Section 4.2.2: per-O-D blocking skew, NSFNet H=6, load 11\n" + format_table(
        ["scheme", "mean", "cov", "gini", "max"], rows
    )


def _minloss(config: ReplicationConfig) -> str:
    stats, solution = minloss_comparison(config)
    rows = [[name, stat.mean, stat.half_width] for name, stat in stats.items()]
    return (
        "Section 4.2.2: min-link-loss vs min-hop primaries, NSFNet load 11\n"
        + format_table(["policy", "blocking", "ci"], rows)
        + f"\nflow deviation: {solution.bifurcated_pairs()} bifurcated pairs, "
        f"gap {solution.optimality_gap:.3f}"
    )


def _bistability(config: ReplicationConfig) -> str:
    from ..analysis.bistability import find_fixed_points
    from ..core.protection import min_protection_level

    rows = []
    for load in (90.0, 96.0, 100.0, 104.0, 108.0):
        unprotected = find_fixed_points(load, 120, 0, max_attempts=5)
        level = min_protection_level(load, 120, 2)
        protected = find_fixed_points(load, 120, level, max_attempts=5)
        rows.append(
            [load, len(unprotected), unprotected[-1].blocking, level,
             protected[-1].blocking]
        )
    return (
        "Mean-field bistability, C=120, 5 alternate attempts\n"
        + format_table(["load", "#fp(r=0)", "worst B(r=0)", "r(Eq15)", "B(r)"], rows)
    )


def _theorem1(config: ReplicationConfig) -> str:
    import numpy as np

    from ..core.theorem import verify_theorem1

    rng = np.random.default_rng(0)
    rows = []
    for __ in range(10):
        capacity = int(rng.integers(2, 60))
        protection = int(rng.integers(0, capacity + 1))
        demand = float(rng.uniform(0.1, 1.8)) * capacity
        nu = demand * float(rng.uniform(0.3, 1.0))
        overflow = np.sort(rng.uniform(0, 2.0 * capacity, size=capacity))[::-1].copy()
        check = verify_theorem1(demand, capacity, protection, overflow, primary_rate=nu)
        rows.append(
            [capacity, protection, round(demand, 1),
             check.worst_displacement, check.bound, "yes" if check.holds else "NO"]
        )
    return (
        "Theorem 1: exact displacement vs bound "
        "(random non-increasing overflow profiles)\n"
        + format_table(["C", "r", "Lambda", "L (exact)", "bound", "holds"], rows)
    )


def _ablation_r(config: ReplicationConfig) -> str:
    from ..topology.nsfnet import nsfnet_backbone
    from ..topology.paths import build_path_table
    from ..traffic.calibration import nsfnet_nominal_traffic
    from .ablations import protection_sensitivity

    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic().scaled(1.2)
    outcome = protection_sensitivity(
        network, table, traffic, offsets=(-100, -2, 0, 2, 4), config=config
    )
    rows = [[offset, stat.mean, stat.half_width] for offset, stat in outcome.items()]
    return "Ablation: protection-level offsets, NSFNet load 12\n" + format_table(
        ["r offset", "blocking", "ci"], rows
    )


def _ablation_estimator(config: ReplicationConfig) -> str:
    from ..topology.nsfnet import nsfnet_backbone
    from ..topology.paths import build_path_table
    from ..traffic.calibration import nsfnet_nominal_traffic
    from .ablations import estimator_ablation

    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic().scaled(1.1)
    outcome = estimator_ablation(network, table, traffic, config=config)
    rows = [
        ["known", outcome["known"].mean, outcome["known"].half_width],
        ["estimated", outcome["estimated"].mean, outcome["estimated"].half_width],
    ]
    return (
        "Ablation: known vs estimated primary loads, NSFNet load 11\n"
        + format_table(["variant", "blocking", "ci"], rows)
        + f"\nmax load error {outcome['max_load_error']:.2f} E, "
        f"max protection gap {outcome['max_protection_gap']}"
    )


def _optimal_r(config: ReplicationConfig) -> str:
    from ..topology.generators import quadrangle
    from ..topology.paths import build_path_table
    from ..traffic.generators import uniform_traffic

    network = quadrangle(100)
    table = build_path_table(network)
    sections = []
    for per_pair in (90.0, 95.0):
        result = empirical_optimal_reservation(
            network, table, uniform_traffic(4, per_pair),
            (0, 2, 4, 6, 8, 11, 15, 25, 100), config,
        )
        rows = [[r, s.mean] for r, s in sorted(result["sweep"].items())]
        sections.append(
            f"Uniform reservation sweep, quadrangle {per_pair:g} E\n"
            + format_table(["r", "blocking"], rows)
            + f"\nbest r = {result['best_r']}, Eq-15 r = {result['equation15_r']}, "
            f"penalty = {result['penalty']:.4f}"
        )
    return "\n\n".join(sections)


def _robustness(config: ReplicationConfig) -> str:
    from ..topology.nsfnet import nsfnet_backbone
    from ..topology.paths import build_path_table
    from ..traffic.calibration import nsfnet_nominal_traffic

    network = nsfnet_backbone()
    table = build_path_table(network)
    outcome = forecast_error_sweep(
        network, table, nsfnet_nominal_traffic(), sigmas=(0.0, 0.5, 1.0), config=config
    )
    rows = [
        [sigma, stats["single-path"].mean, stats["uncontrolled"].mean,
         stats["controlled"].mean]
        for sigma, stats in outcome.items()
    ]
    return "Forecast-error sweep, NSFNet engineered for nominal\n" + format_table(
        ["sigma", "single-path", "uncontrolled", "controlled"], rows
    )


def _dynamic_failures(config: ReplicationConfig) -> str:
    reports = dynamic_failure_comparison(config=config)
    rows = [
        [name, r.blocking.mean, r.drop_rate.mean, r.availability.mean,
         r.time_to_recover.mean]
        for name, r in reports.items()
    ]
    return (
        "Dynamic failure: NSFNet load 12, link 2<->3 fails mid-run and recovers\n"
        + format_table(
            ["policy", "blocking", "dropped", "availability", "t-recover"], rows
        )
    )


def _tab1_data(config: ReplicationConfig) -> dict:
    rows = regenerate_table1()
    agreement = table1_agreement(rows)
    return {
        "rows": [
            {
                "link": list(row.link), "capacity": row.capacity,
                "load": row.load, "paper_load": row.paper_load,
                "r_h6": row.r_h6, "paper_r_h6": row.paper_r_h6,
                "r_h11": row.r_h11, "paper_r_h11": row.paper_r_h11,
            }
            for row in rows
        ],
        "agreement": agreement,
    }


def _dynamic_failures_data(config: ReplicationConfig) -> dict:
    reports = dynamic_failure_comparison(config=config)
    return {
        "policies": {
            name: {
                "blocking": statistic_to_dict(r.blocking),
                "drop_rate": statistic_to_dict(r.drop_rate),
                "availability": statistic_to_dict(r.availability),
                "time_to_recover": statistic_to_dict(r.time_to_recover),
            }
            for name, r in reports.items()
        }
    }


def _adversarial_data(config: ReplicationConfig) -> dict:
    from .adversarial import adversarial_load_study

    return adversarial_load_study(config)


def _adversarial(config: ReplicationConfig) -> str:
    document = _adversarial_data(config)
    rows = [
        [
            name,
            entry["static_blocking"]["mean"],
            entry["adaptive_blocking"]["mean"],
            entry["erlang_bound"],
            entry["serve"]["recompute_on"]["recompute_count"],
            entry["serve"]["recompute_on"]["time_to_reconverge"],
        ]
        for name, entry in document["workloads"].items()
    ]
    return (
        "EXP-ADV: time-varying and adversarial workloads, NSFNet load 11\n"
        + format_table(
            ["workload", "static B", "adaptive B", "Erlang bound",
             "recomputes", "t-reconverge"],
            rows,
        )
    )


def _control_data(config: ReplicationConfig) -> dict:
    from .control import control_loop_study

    return control_loop_study(config)


def _control(config: ReplicationConfig) -> str:
    document = _control_data(config)
    rows = [
        [
            name,
            entry["static_blocking"]["mean"],
            entry["ewma_blocking"]["mean"],
            entry["online_blocking"]["mean"],
            entry["hindsight_blocking"]["mean"],
            "-" if entry["gap_closed"] is None
            else f"{entry['gap_closed']:.0%}",
            entry["clamp_violations"],
        ]
        for name, entry in document["workloads"].items()
    ]
    return (
        "EXP-CTL: online protection-level control, NSFNet load 11\n"
        + format_table(
            ["workload", "static B", "ewma B", "online B", "hindsight B",
             "gap closed", "clamp viol"],
            rows,
        )
    )


def _adv_jobs() -> list:
    from .adversarial import adversarial_load_scenarios

    return adversarial_load_scenarios()


def _general_mesh(config: ReplicationConfig) -> str:
    outcome = general_mesh_comparison(config)
    rows = [
        [name, stats["single-path"].mean, stats["uncontrolled"].mean,
         stats["controlled"].mean]
        for name, stats in outcome.items()
    ]
    return "General meshes, gravity demand\n" + format_table(
        ["mesh", "single-path", "uncontrolled", "controlled"], rows
    )


EXPERIMENTS: dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        Experiment("FIG2", "protection level vs primary load",
                   "bench_fig2_protection_levels.py", _fig2),
        Experiment("TAB1", "NSFNet loads and protection levels",
                   "bench_table1_protection_levels.py", _tab1, _tab1_data),
        _sweep("FIG3", "quadrangle blocking sweep (also Figure 4)",
               "bench_fig3_quadrangle.py",
               "Figures 3/4: quadrangle blocking vs per-pair load",
               quadrangle_jobs),
        _sweep("FIG6", "NSFNet blocking sweep, H=11 (also Figure 7)",
               "bench_fig6_nsfnet.py",
               "Figures 6/7: NSFNet blocking vs load (nominal=10), H=11",
               nsfnet_jobs),
        _sweep("EXP-H6", "NSFNet blocking sweep, H=6",
               "bench_h6_restriction.py", "Section 4.2.2: NSFNet with H=6",
               lambda: nsfnet_jobs(max_hops=6), appendix=_h6_census),
        _sweep("EXP-OK", "Ott-Krishnan shadow-price comparator",
               "bench_ott_krishnan.py",
               "Section 4.2: Ott-Krishnan comparator on NSFNet",
               lambda: nsfnet_jobs((10.0, 12.0), include_ott_krishnan=True)),
        Experiment("EXP-FAIL", "link failures preserve the ordering",
                   "bench_link_failures.py", _failures),
        Experiment("EXP-DYNFAIL", "mid-run link failure, drop and recovery",
                   "bench_dynamic_failures.py", _dynamic_failures,
                   _dynamic_failures_data),
        Experiment("EXP-FAIR", "per-O-D blocking skew",
                   "bench_fairness_skew.py", _fairness),
        Experiment("EXP-MINLOSS", "min-link-loss primary paths",
                   "bench_minloss_primaries.py", _minloss),
        Experiment("EXT-BIST", "mean-field bistability analysis",
                   "bench_bistability.py", _bistability),
        Experiment("THM1", "Theorem 1: exact displacement vs its bound",
                   "bench_theorem1_bound.py", _theorem1),
        Experiment("ABL-R", "protection-level robustness",
                   "bench_ablation_r_sensitivity.py", _ablation_r),
        Experiment("ABL-EST", "known vs estimated primary loads",
                   "bench_ablation_estimator.py", _ablation_estimator),
        Experiment("EXP-MG-SIM", "Equation 15 vs empirical optimal reservation",
                   "bench_optimal_reservation.py", _optimal_r),
        Experiment("EXP-ROBUST", "insensitivity to traffic-forecast error",
                   "bench_forecast_robustness.py", _robustness),
        Experiment("EXT-GEN", "general-mesh generality check",
                   "bench_general_mesh.py", _general_mesh),
        Experiment("EXP-ADV", "adversarial & time-varying workloads vs the bound",
                   "bench_adversarial_load.py", _adversarial, _adversarial_data,
                   _adv_jobs),
        Experiment("EXP-CTL", "online protection-level control loop",
                   "bench_control_loop.py", _control, _control_data),
    )
}

#: Alternate spellings accepted by the CLI (``experiment adversarial-load``),
#: including the names of the artifact subcommands the CLI used to have.
ALIASES: dict[str, str] = {
    "ADVERSARIAL-LOAD": "EXP-ADV",
    "BISTABILITY": "EXT-BIST",
    "CONTROL": "EXP-CTL",
    "CONTROL-LOOP": "EXP-CTL",
    "DYNAMIC-FAILURES": "EXP-DYNFAIL",
    "FIGURE2": "FIG2",
    "NSFNET": "FIG6",
    "QUADRANGLE": "FIG3",
    "TABLE1": "TAB1",
    "THEOREM1": "THM1",
}


def _resolve(experiment_id: str) -> str:
    """Canonical experiment id, or raise ``KeyError`` listing what exists."""
    key = experiment_id.upper()
    key = ALIASES.get(key, key)
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return key


def lab_runnable_experiments() -> tuple[str, ...]:
    """Ids of experiments that decompose into lab job graphs."""
    return tuple(
        experiment.id for experiment in EXPERIMENTS.values()
        if experiment.jobs is not None
    )


def experiment_job_graph(experiment_id: str) -> list:
    """The lab job graph of one experiment: ``[(Scenario, policies), ...]``.

    Raises ``KeyError`` for unknown ids and ``ValueError`` for experiments
    that don't decompose into replication studies (analytic artifacts like
    FIG2/EXT-BIST need no simulation, so there is nothing to cache).
    """
    key = _resolve(experiment_id)
    experiment = EXPERIMENTS[key]
    if experiment.jobs is None:
        runnable = ", ".join(lab_runnable_experiments())
        raise ValueError(
            f"experiment {key} has no lab job graph; lab-runnable: {runnable}"
        )
    return experiment.jobs()


def list_experiments() -> str:
    """One line per registered experiment."""
    rows = [
        [experiment.id, experiment.title, experiment.bench]
        for experiment in EXPERIMENTS.values()
    ]
    return format_table(["id", "title", "benchmark"], rows)


def run_experiment(
    experiment_id: str, config: ReplicationConfig = PAPER_CONFIG
) -> str:
    """Regenerate one experiment and return its printable report."""
    return EXPERIMENTS[_resolve(experiment_id)].run(config)


def run_experiment_json(
    experiment_id: str, config: ReplicationConfig = PAPER_CONFIG
) -> dict:
    """Regenerate one experiment as a JSON-ready document.

    Experiments with a structured ``data`` callable return their numbers
    under ``"data"``; the rest carry the rendered report under ``"report"``
    so the envelope is uniform either way.
    """
    experiment = EXPERIMENTS[_resolve(experiment_id)]
    document = {
        "schema": "repro-experiment-v1",
        "id": experiment.id,
        "title": experiment.title,
        "bench": experiment.bench,
        "config": {
            "measured_duration": config.measured_duration,
            "warmup": config.warmup,
            "seeds": list(config.seeds),
        },
        "data": None,
        "report": None,
    }
    if experiment.data is not None:
        document["data"] = experiment.data(config)
    else:
        document["report"] = experiment.run(config)
    return document


def run_all(config: ReplicationConfig = PAPER_CONFIG) -> str:
    """Regenerate every registered experiment into one markdown report."""
    sections = [
        "# Regenerated paper artifacts",
        "",
        f"Replications: {len(config.seeds)} seeds x "
        f"{config.measured_duration:g} measured time units "
        f"(+{config.warmup:g} warm-up).",
        "",
    ]
    for experiment in EXPERIMENTS.values():
        sections.append(f"## {experiment.id} — {experiment.title}")
        sections.append("")
        sections.append("```")
        sections.append(experiment.run(config))
        sections.append("```")
        sections.append("")
    return "\n".join(sections)
