"""Experiment harness: replication runner, figure/table regeneration, ablations."""

from .ablations import estimator_ablation, protection_sensitivity
from .convergence import seed_convergence, warmup_sensitivity
from .optimal_r import empirical_optimal_reservation, uniform_reservation_sweep
from .storage import load_sweep, save_sweep
from .figures import (
    NSFNET_LOAD_MULTIPLIERS,
    QUADRANGLE_LOADS,
    figure2_protection_levels,
    nsfnet_sweep,
    quadrangle_sweep,
)
from .registry import EXPERIMENTS, Experiment, list_experiments, run_experiment
from .report import format_sweep, format_table, format_table1
from .robustness import forecast_error_sweep, perturbed_traffic
from .runner import (
    PAPER_CONFIG,
    ReplicationConfig,
    ReplicationOutcome,
    SeedStatus,
    SweepPoint,
    compare_policies,
    run_replications_detailed,
)
from .tables import Table1Row, regenerate_table1, table1_agreement

__all__ = [
    "PAPER_CONFIG",
    "ReplicationConfig",
    "SweepPoint",
    "compare_policies",
    "run_replications_detailed",
    "ReplicationOutcome",
    "SeedStatus",
    "figure2_protection_levels",
    "quadrangle_sweep",
    "nsfnet_sweep",
    "QUADRANGLE_LOADS",
    "NSFNET_LOAD_MULTIPLIERS",
    "Table1Row",
    "regenerate_table1",
    "table1_agreement",
    "protection_sensitivity",
    "seed_convergence",
    "warmup_sensitivity",
    "empirical_optimal_reservation",
    "uniform_reservation_sweep",
    "load_sweep",
    "save_sweep",
    "estimator_ablation",
    "format_table",
    "format_sweep",
    "format_table1",
    "EXPERIMENTS",
    "Experiment",
    "list_experiments",
    "run_experiment",
    "forecast_error_sweep",
    "perturbed_traffic",
]
