"""Wiring helpers: build a ready-to-run control loop from serve pieces."""

from __future__ import annotations

import numpy as np

from ..serve.state import NetworkState
from ..serve.telemetry import MetricsRegistry
from ..topology.paths import PathTable
from ..traffic.matrix import TrafficMatrix
from .controllers import (
    ErlangGradientController,
    MarkovApproximationController,
)
from .estimator import DemandEstimator
from .loop import ControlLoop

__all__ = ["CONTROLLER_NAMES", "make_control_loop"]

CONTROLLER_NAMES = ("gradient", "markov")


def make_control_loop(
    state: NetworkState,
    table: PathTable,
    traffic: TrafficMatrix,
    *,
    controller: str = "gradient",
    interval: float = 5.0,
    prior_strength: float = 400.0,
    volatility_boost: float = 8.0,
    trust_radius: int = 4,
    beta: float = 4.0,
    seed: int = 0,
    telemetry: MetricsRegistry | None = None,
) -> ControlLoop:
    """Build estimator + controller + clamp for ``state``'s discipline.

    ``controller`` is one of :data:`CONTROLLER_NAMES`; the prior demand
    (the deployed matrix the static levels were provisioned from) seeds
    the estimator, and the controller starts from the levels currently
    in force so the loop's first steps are small.
    """
    if controller not in CONTROLLER_NAMES:
        raise ValueError(
            f"unknown controller {controller!r}; expected one of "
            f"{CONTROLLER_NAMES}"
        )
    estimator = DemandEstimator(
        state.network,
        table,
        traffic,
        prior_strength=prior_strength,
        volatility_boost=volatility_boost,
    )
    # One hop family per row the route table keys its bounds by (the
    # scalar discipline has exactly one), starting from the levels in force.
    hop_lengths = tuple(sorted(state.table.rows))
    if controller == "gradient":
        levels = {
            h: state.capacities - np.asarray(row, dtype=np.int64)
            for h, row in state.table.rows.items()
        }
        strategy = ErlangGradientController(
            state.network, hop_lengths, levels, trust_radius=trust_radius
        )
    else:
        alternates = {
            od: entries[0].alternates
            for od, entries in state.policy.choices.items()
            if entries and entries[0].alternates
        }
        strategy = MarkovApproximationController(
            state.network,
            hop_lengths,
            alternates,
            beta=beta,
            seed=seed,
        )
    return ControlLoop(
        state,
        estimator,
        strategy,
        interval=interval,
        telemetry=telemetry,
    )
