"""Generality check: the control scheme on arbitrary meshes.

The paper's title claims *general-mesh* applicability; its evaluation shows
two topologies.  This module runs the three routing schemes on a family of
synthetic meshes (torus, Waxman internetworks, dense random meshes) under
skewed gravity traffic, checking the two structural claims on each:

* controlled alternate routing never does (statistically) worse than
  single-path routing — the Theorem-1 guarantee is topology-free;
* wherever uncontrolled routing beats single-path, controlled routing keeps
  (most of) that win.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.metrics import SweepStatistic
from ..topology.generators import random_mesh, torus, waxman_mesh
from ..topology.graph import Network
from ..traffic.generators import gravity_traffic
from .runner import PAPER_CONFIG, ReplicationConfig

__all__ = ["MeshCase", "STANDARD_MESH_CASES", "general_mesh_comparison"]


@dataclass(frozen=True)
class MeshCase:
    """One synthetic scenario: a named topology plus an offered load."""

    name: str
    network: Network
    total_erlangs: float

    def traffic(self):
        # Skewed gravity demand: node weight grows with index, so the mesh
        # sees the "wide disparities" the paper's NSFNet matrix exhibits.
        weights = [1.0 + 0.35 * node for node in self.network.nodes()]
        return gravity_traffic(weights, total=self.total_erlangs)


def _standard_cases() -> tuple[MeshCase, ...]:
    return (
        MeshCase("torus-3x3", torus(3, 3, capacity=40), total_erlangs=460.0),
        MeshCase("waxman-10", waxman_mesh(10, capacity=40, seed=3), total_erlangs=420.0),
        MeshCase("random-8+6", random_mesh(8, 6, capacity=40, seed=1), total_erlangs=400.0),
    )


STANDARD_MESH_CASES: tuple[MeshCase, ...] = _standard_cases()


def general_mesh_comparison(
    config: ReplicationConfig = PAPER_CONFIG,
    cases: tuple[MeshCase, ...] = STANDARD_MESH_CASES,
    max_hops: int = 5,
) -> dict[str, dict[str, SweepStatistic]]:
    """Run the three schemes on every mesh case; returns per-case statistics.

    Alternate paths are capped at ``max_hops`` hops (the denser synthetic
    meshes have exponentially many loop-free paths, unlike the paper's
    sparse NSFNet, so a hop cap is the realistic configuration — and lowers
    the protection levels per Section 3.2).
    """
    from ..api import Scenario, run_study

    return {
        case.name: run_study(
            Scenario(topology=case.network, traffic=case.traffic(),
                     max_hops=max_hops),
            policies=("single-path", "uncontrolled", "controlled"),
            config=config,
        ).blocking()
        for case in cases
    }
