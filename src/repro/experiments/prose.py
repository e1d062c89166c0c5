"""The prose experiments of Section 4.2.2, as reusable library functions.

The paper reports several experiments in prose rather than figures: link
failures, per-O-D blocking skew, and the min-link-loss primary rule.  The
benchmark harnesses and the experiment registry both drive the functions
here, so every artifact has exactly one implementation.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.fairness import FairnessReport, fairness_report
from ..routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from ..routing.minloss import MinLossSolution, optimize_primary_flows
from ..routing.single_path import SinglePathRouting
from ..sim.failures import FailureScenario, apply_failures
from ..sim.metrics import SweepStatistic
from ..topology.nsfnet import nsfnet_backbone
from ..topology.paths import build_path_table
from ..traffic.calibration import nsfnet_nominal_traffic
from ..traffic.demand import bifurcated_link_loads, primary_link_loads
from .runner import PAPER_CONFIG, ReplicationConfig, compare_policies

__all__ = [
    "PAPER_FAILURE_SCENARIOS",
    "link_failure_comparison",
    "fairness_comparison",
    "minloss_comparison",
]

#: The paper's two failure experiments plus the intact reference.
PAPER_FAILURE_SCENARIOS: tuple[FailureScenario, ...] = (
    FailureScenario((), name="intact"),
    FailureScenario(((2, 3),), name="fail 2<->3"),
    FailureScenario(((7, 9),), name="fail 7<->9"),
)


def link_failure_comparison(
    config: ReplicationConfig = PAPER_CONFIG,
    load_scale: float = 1.2,
    scenarios: Sequence[FailureScenario] = PAPER_FAILURE_SCENARIOS,
) -> dict[str, dict[str, SweepStatistic]]:
    """Blocking of the three schemes under each failure scenario (NSFNet)."""
    network = nsfnet_backbone()
    traffic = nsfnet_nominal_traffic().scaled(load_scale)
    outcome: dict[str, dict[str, SweepStatistic]] = {}
    for scenario in scenarios:
        failed = apply_failures(network, traffic, scenario)
        policies = {
            "single-path": SinglePathRouting(failed.network, failed.table),
            "uncontrolled": UncontrolledAlternateRouting(failed.network, failed.table),
            "controlled": ControlledAlternateRouting(
                failed.network, failed.table, failed.primary_loads
            ),
        }
        outcome[scenario.name] = compare_policies(
            failed.network, policies, traffic, config
        )
    return outcome


def fairness_comparison(
    config: ReplicationConfig = PAPER_CONFIG,
    max_hops: int = 6,
    load_scale: float = 1.1,
) -> dict[str, FairnessReport]:
    """Per-O-D blocking-skew reports for the three schemes (NSFNet, H=6).

    Counts are pooled across seeds before forming per-pair probabilities,
    since individual pairs see few calls per run.
    """
    from ..api import Scenario, run_study

    names = ("single-path", "uncontrolled", "controlled")
    scenario = Scenario(topology="nsfnet", traffic="nominal",
                        max_hops=max_hops, load_scale=load_scale)
    study = run_study(scenario, policies=names, config=config)
    reports: dict[str, FairnessReport] = {}
    for name in names:
        od_pairs = study.outcomes[name].results[0].od_pairs
        blocked = study.blocked_matrix(name).sum(axis=0)
        offered = study.offered_matrix(name).sum(axis=0)
        reports[name] = fairness_report({
            od: blocked[i] / offered[i]
            for i, od in enumerate(od_pairs)
            if offered[i] > 0
        })
    return reports


def minloss_comparison(
    config: ReplicationConfig = PAPER_CONFIG,
    load_scale: float = 1.1,
    max_iterations: int = 80,
) -> tuple[dict[str, SweepStatistic], MinLossSolution]:
    """Min-hop vs min-link-loss primaries, with and without the control."""
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic().scaled(load_scale)

    minhop_loads = primary_link_loads(network, table, traffic)
    solution = optimize_primary_flows(
        network, table, traffic, max_iterations=max_iterations
    )
    minloss_loads = bifurcated_link_loads(network, solution.splits, traffic)
    policies = {
        "single/min-hop": SinglePathRouting(network, table),
        "single/min-loss": SinglePathRouting(network, table, splits=solution.splits),
        "controlled/min-hop": ControlledAlternateRouting(network, table, minhop_loads),
        "controlled/min-loss": ControlledAlternateRouting(
            network, table, minloss_loads, splits=solution.splits
        ),
    }
    stats = compare_policies(network, policies, traffic, config)
    return stats, solution
