"""Ablations of the design choices DESIGN.md calls out.

* :func:`protection_sensitivity` — how blocking responds to perturbing every
  link's protection level away from the Theorem-1 value (the robustness
  property the paper leans on, after Key [21] Section 2.2);
* :func:`estimator_ablation` — a priori knowledge of ``Lambda^k`` versus an
  online measurement from observed primary call set-ups (the paper assumes
  the former and argues the difference is benign).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..routing.alternate import ControlledAlternateRouting
from ..routing.estimator import estimate_loads_from_trace
from ..sim.metrics import SweepStatistic
from ..sim.trace import generate_trace
from ..topology.graph import Network
from ..topology.paths import PathTable
from ..traffic.demand import primary_link_loads
from ..traffic.matrix import TrafficMatrix
from .runner import PAPER_CONFIG, ReplicationConfig, compare_policies

__all__ = ["protection_sensitivity", "estimator_ablation"]


def protection_sensitivity(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    offsets: Sequence[int] = (-4, -2, -1, 0, 1, 2, 4),
    config: ReplicationConfig = PAPER_CONFIG,
) -> dict[int, SweepStatistic]:
    """Blocking of controlled routing with every ``r`` shifted by an offset.

    Offsets are clipped to ``[0, C]`` per link.  A flat response around
    offset 0 is the robustness the paper claims for state protection.
    """
    loads = primary_link_loads(network, table, traffic)
    reference = ControlledAlternateRouting(network, table, loads)
    capacities = network.capacities()
    policies = {
        int(offset): ControlledAlternateRouting(
            network, table, loads,
            protection_override=np.clip(
                reference.protection_levels + offset, 0, capacities
            ).astype(np.int64),
        )
        for offset in offsets
    }
    return compare_policies(network, policies, traffic, config)


def estimator_ablation(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    config: ReplicationConfig = PAPER_CONFIG,
    measurement_seed: int = 9_999,
    measurement_duration: float = 50.0,
) -> dict[str, object]:
    """Known vs estimated primary loads feeding the protection levels.

    The estimated variant measures primary set-up rates on an *independent*
    trace (seed disjoint from the evaluation seeds) of ``measurement_duration``
    time units, then builds the controlled policy from those noisy loads.
    Returns both policies' aggregated blocking plus the worst per-link
    protection-level discrepancy the estimation error induced.
    """
    true_loads = primary_link_loads(network, table, traffic)
    known = ControlledAlternateRouting(network, table, true_loads)

    measurement_trace = generate_trace(
        traffic, measurement_duration + config.warmup, measurement_seed
    )
    estimated_loads = estimate_loads_from_trace(
        network, known, measurement_trace, warmup=config.warmup
    )
    estimated = ControlledAlternateRouting(network, table, estimated_loads)

    stats = compare_policies(
        network, {"known": known, "estimated": estimated}, traffic, config
    )
    level_gap = int(
        np.abs(known.protection_levels - estimated.protection_levels).max()
    )
    load_error = float(np.abs(true_loads - estimated_loads).max())
    return {
        "known": stats["known"],
        "estimated": stats["estimated"],
        "max_protection_gap": level_gap,
        "max_load_error": load_error,
    }
