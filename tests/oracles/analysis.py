"""Loop oracles for the vectorized analysis kernels in ``repro.analysis``.

These are the original per-link / per-pair / cut-by-cut Python loops that
:func:`~repro.analysis.fixed_point.erlang_fixed_point`,
:func:`~repro.analysis.alternate_fixed_point.alternate_routing_fixed_point`
and :func:`~repro.analysis.erlang_bound.erlang_bound` replaced.  The
vectorized kernels reorder floating-point work (batch Erlang kernel,
log-space chain solves), so the equivalence tests compare against these
under a relative tolerance, and ``benchmarks/bench_perf_core.py`` times the
fixed-point sweep against them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from repro.analysis.alternate_fixed_point import (
    AlternateFixedPointResult,
    _resolve_routes,
)
from repro.analysis.erlang_bound import cut_bound_term
from repro.analysis.fixed_point import FixedPointResult
from repro.core.erlang import erlang_b
from repro.core.markov import link_chain
from repro.topology.graph import Network
from repro.topology.paths import PathTable
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "alternate_routing_fixed_point_reference",
    "erlang_bound_reference",
    "erlang_fixed_point_reference",
]


def _primary_paths(
    network: Network, table: PathTable, traffic: TrafficMatrix
) -> tuple[list[tuple[tuple[int, int], float]], list[tuple[int, ...]]]:
    """Resolve each positive-demand pair's primary path to link indices."""
    demands = list(traffic.positive_pairs())
    paths = []
    for od, __ in demands:
        primary = table.primary.get(od)
        if primary is None:
            raise ValueError(f"O-D pair {od} has demand but no primary path")
        paths.append(network.path_links(primary))
    return demands, paths


def erlang_fixed_point_reference(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
    damping: float = 0.5,
) -> FixedPointResult:
    """The reduced-load fixed point as per-link Python loops."""
    demands, paths = _primary_paths(network, table, traffic)
    capacities = network.capacities()
    blocking = np.zeros(network.num_links, dtype=float)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        loads = np.zeros(network.num_links, dtype=float)
        for (od, demand), links in zip(demands, paths):
            passing = 1.0
            for link in links:
                passing *= 1.0 - blocking[link]
            for link in links:
                own = 1.0 - blocking[link]
                thinned = demand * (passing / own if own > 0 else 0.0)
                loads[link] += thinned
        updated = np.array(
            [
                erlang_b(loads[i], int(capacities[i])) if capacities[i] > 0 else 1.0
                for i in range(network.num_links)
            ]
        )
        step = damping * (updated - blocking)
        blocking = blocking + step
        if np.abs(step).max() < tolerance:
            converged = True
            break
    pair_blocking: dict[tuple[int, int], float] = {}
    weighted = 0.0
    total_demand = 0.0
    for (od, demand), links in zip(demands, paths):
        passing = 1.0
        for link in links:
            passing *= 1.0 - blocking[link]
        loss = 1.0 - passing
        pair_blocking[od] = loss
        weighted += demand * loss
        total_demand += demand
    network_blocking = weighted / total_demand if total_demand else 0.0
    return FixedPointResult(
        link_blocking=blocking,
        pair_blocking=pair_blocking,
        network_blocking=network_blocking,
        iterations=iterations,
        converged=converged,
    )


def alternate_routing_fixed_point_reference(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    protection_levels: np.ndarray,
    damping: float = 0.3,
    tolerance: float = 1e-8,
    max_iterations: int = 2_000,
) -> AlternateFixedPointResult:
    """The two-tier reduced-load fixed point as per-pair/per-link loops."""
    capacities = network.capacities()
    levels = np.asarray(protection_levels, dtype=np.int64)
    demands = _resolve_routes(network, table, traffic)

    num_links = network.num_links
    full = np.zeros(num_links)       # E_l
    protected = np.zeros(num_links)  # F_l
    overflow = np.zeros(num_links)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        # --- demand side: thinned primary rates and overflow attempt rates.
        nu = np.zeros(num_links)
        attempts = np.zeros(num_links)
        for __, demand, primary_links, alternates in demands:
            pass_primary = 1.0
            for link in primary_links:
                pass_primary *= 1.0 - full[link]
            for link in primary_links:
                own = 1.0 - full[link]
                nu[link] += demand * (pass_primary / own if own > 0 else 0.0)
            reach = demand * (1.0 - pass_primary)  # traffic entering tier 2
            for alt in alternates:
                accept = 1.0
                for link in alt:
                    accept *= 1.0 - protected[link]
                for link in alt:
                    own = 1.0 - protected[link]
                    attempts[link] += reach * (accept / own if own > 0 else 0.0)
                reach *= 1.0 - accept  # next alternate sees the failures
        # --- link side: solve each protected chain.
        new_full = np.empty(num_links)
        new_protected = np.empty(num_links)
        for link in range(num_links):
            capacity = int(capacities[link])
            if capacity == 0:
                new_full[link] = 1.0
                new_protected[link] = 1.0
                continue
            chain = link_chain(
                float(nu[link]),
                capacity,
                int(levels[link]),
                [float(attempts[link])] * capacity,
            )
            pi = chain.stationary_distribution()
            new_full[link] = float(pi[capacity])
            new_protected[link] = float(pi[capacity - int(levels[link]) :].sum())
        step = max(
            np.abs(new_full - full).max(), np.abs(new_protected - protected).max()
        )
        full = full + damping * (new_full - full)
        protected = protected + damping * (new_protected - protected)
        overflow = attempts
        if step < tolerance:
            converged = True
            break

    pair_blocking: dict[tuple[int, int], float] = {}
    weighted = 0.0
    total_demand = 0.0
    for od, demand, primary_links, alternates in demands:
        pass_primary = 1.0
        for link in primary_links:
            pass_primary *= 1.0 - full[link]
        lost = 1.0 - pass_primary
        for alt in alternates:
            accept = 1.0
            for link in alt:
                accept *= 1.0 - protected[link]
            lost *= 1.0 - accept
        pair_blocking[od] = lost
        weighted += demand * lost
        total_demand += demand
    return AlternateFixedPointResult(
        full_probability=full,
        protected_probability=protected,
        overflow_rates=overflow,
        pair_blocking=pair_blocking,
        network_blocking=weighted / total_demand if total_demand else 0.0,
        iterations=iterations,
        converged=converged,
    )


def _proper_subsets(num_nodes: int) -> Iterator[frozenset[int]]:
    """All proper non-empty node subsets, one representative per complement pair.

    The bound expression is symmetric under complementation (it sums both
    directions), so enumerating half the subsets suffices.
    """
    nodes = list(range(num_nodes))
    for size in range(1, num_nodes // 2 + 1):
        for combo in combinations(nodes, size):
            if 2 * size == num_nodes and 0 not in combo:
                continue  # complement already seen
            yield frozenset(combo)


def erlang_bound_reference(network: Network, traffic: TrafficMatrix) -> float:
    """The Erlang Bound, one :func:`cut_bound_term` per cut."""
    best = 0.0
    for cut in _proper_subsets(network.num_nodes):
        best = max(best, cut_bound_term(network, traffic, cut))
    return best
