"""Reduced-load fixed point for (controlled) alternate routing on a mesh.

The classical Erlang fixed point (:mod:`repro.analysis.fixed_point`) covers
single-path routing.  This module extends it to the paper's two-tier scheme
on a *general* mesh, generalizing the symmetric mean-field of
:mod:`repro.analysis.bistability`:

* every link ``l`` is a birth-death chain with a state-independent primary
  rate ``nu_l`` plus an overflow rate ``a_l`` admitted only below the
  protection threshold ``C_l - r_l`` (the chain of the paper's Figure 1);
* the chain yields two per-link probabilities: ``E_l`` (full — blocks a
  primary set-up) and ``F_l`` (at/above the threshold — blocks an
  alternate);
* per O-D pair, the primary path blocks with ``1 - prod(1 - E)``; blocked
  traffic attempts the alternates in order, each failing with
  ``1 - prod(1 - F)`` (link independence throughout);
* consistency closes the loop: ``nu_l`` is the primary demand thinned by
  the *other* links of each primary path, and ``a_l`` sums, over every
  alternate route through ``l``, the pair's demand times the probability
  the attempt reaches that alternate times the acceptance probability of
  the route's other links.

Damped successive substitution converges in the paper's regimes (the
bistable regimes of the symmetric model can make the iterate start-
dependent — by design; see the bistability module).  Setting every ``r`` to
0 models uncontrolled alternate routing; an empty alternate table recovers
the classical single-path fixed point.

Both halves of each sweep are vectorized: primary and alternate routes
are flattened once into link-index arrays (``np.multiply.reduceat`` for
path products, ``np.bincount`` for the rate accumulations, a short stage
loop to chain ``reach`` across each pair's ordered alternates), and the
per-link birth-death chains are solved per capacity group in log space —
one ``cumsum`` of log birth-rate ratios replaces ``num_links`` sequential
chain solves, with a max-shift before exponentiating standing in for the
sequential solve's on-the-fly renormalization.  The log-space solve
reorders floating-point work, so results match the original per-pair /
per-link loops (kept as the oracle in ``tests/oracles/analysis.py``) to
~1e-10 relative rather than bit for bit; the equivalence tests pin the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.graph import Network
from ..topology.paths import PathTable
from ..traffic.matrix import TrafficMatrix

__all__ = ["AlternateFixedPointResult", "alternate_routing_fixed_point"]


@dataclass(frozen=True)
class AlternateFixedPointResult:
    """Converged reduced-load model of the two-tier scheme.

    ``full_probability`` is ``E_l`` per link; ``protected_probability`` is
    ``F_l``; ``overflow_rates`` the converged per-link alternate arrival
    rates; ``pair_blocking`` the end-to-end per-O-D estimate and
    ``network_blocking`` its demand-weighted average.
    """

    full_probability: np.ndarray
    protected_probability: np.ndarray
    overflow_rates: np.ndarray
    pair_blocking: dict[tuple[int, int], float]
    network_blocking: float
    iterations: int
    converged: bool


def _resolve_routes(
    network: Network, table: PathTable, traffic: TrafficMatrix
) -> list[tuple[tuple[int, int], float, tuple[int, ...], list[tuple[int, ...]]]]:
    """Resolve each positive-demand pair's primary and alternates to links."""
    demands = []
    for od, demand in traffic.positive_pairs():
        primary = table.primary.get(od)
        if primary is None:
            raise ValueError(f"O-D pair {od} has demand but no primary path")
        primary_links = network.path_links(primary)
        alternate_links = [
            network.path_links(path) for path in table.alternates.get(od, ())
        ]
        demands.append((od, demand, primary_links, alternate_links))
    return demands


def _flatten(paths: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a path list to (flat_links, starts, entry_path) index arrays."""
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    flat = np.array([link for path in paths for link in path], dtype=np.int64)
    starts = np.zeros(len(paths), dtype=np.int64)
    if paths:
        starts[1:] = np.cumsum(lengths)[:-1]
    entry = np.repeat(np.arange(len(paths), dtype=np.int64), lengths)
    return flat, starts, entry


def alternate_routing_fixed_point(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    protection_levels: np.ndarray,
    damping: float = 0.3,
    tolerance: float = 1e-8,
    max_iterations: int = 2_000,
) -> AlternateFixedPointResult:
    """Iterate the two-tier reduced-load equations to a fixed point."""
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    capacities = network.capacities()
    levels = np.asarray(protection_levels, dtype=np.int64)
    if levels.shape != (network.num_links,):
        raise ValueError("protection_levels must be per-link")
    if (levels < 0).any() or (levels > capacities).any():
        raise ValueError("protection levels must lie in [0, capacity]")

    demands = _resolve_routes(network, table, traffic)
    num_links = network.num_links
    num_pairs = len(demands)
    demand_arr = np.array([demand for __, demand, __, __ in demands], dtype=float)

    # Primary paths, flattened pair-major so bincount accumulates rates in
    # the same order as the reference loops.
    p_flat, p_starts, p_entry = _flatten([links for __, __, links, __ in demands])
    p_demand_entry = demand_arr[p_entry]

    # Alternate routes, flattened route-major: route order is (pair, stage)
    # lexicographic, again matching the reference accumulation order.  The
    # stage index arrays drive the short reach-chaining loop.
    routes: list[tuple[int, ...]] = []
    route_pair: list[int] = []
    route_stage: list[int] = []
    for pair_index, (__, __, __, alternates) in enumerate(demands):
        for stage, alt in enumerate(alternates):
            routes.append(alt)
            route_pair.append(pair_index)
            route_stage.append(stage)
    a_flat, a_starts, a_entry = _flatten(routes)
    route_pair_arr = np.array(route_pair, dtype=np.int64)
    num_stages = max(route_stage) + 1 if route_stage else 0
    stage_routes = [
        np.flatnonzero(np.array(route_stage, dtype=np.int64) == s)
        for s in range(num_stages)
    ]

    # Link side: group links by capacity; zero-capacity links are pinned.
    zero_cap = np.flatnonzero(capacities == 0)
    cap_groups = []
    for capacity in np.unique(capacities):
        if capacity == 0:
            continue
        indices = np.flatnonzero(capacities == capacity)
        group_levels = levels[indices]
        # log((s+1)!) offsets and the per-state overflow-admission mask
        # (state s admits overflow iff s < C - r) are iteration-invariant.
        capacity = int(capacity)
        states = np.arange(capacity, dtype=float)
        log_service = np.log(states + 1.0)
        admit = states[np.newaxis, :] < (capacity - group_levels)[:, np.newaxis]
        cap_groups.append((capacity, indices, group_levels, log_service, admit))

    full = np.zeros(num_links)       # E_l
    protected = np.zeros(num_links)  # F_l
    overflow = np.zeros(num_links)
    iterations = 0
    converged = False
    row_index = {
        capacity: np.arange(indices.size)
        for capacity, indices, __, __, __ in cap_groups
    }
    with np.errstate(divide="ignore", invalid="ignore"):
        while iterations < max_iterations:
            iterations += 1
            # --- demand side: thinned primary rates and overflow attempts.
            p_pass_factors = 1.0 - full[p_flat]
            pass_primary = np.multiply.reduceat(p_pass_factors, p_starts) \
                if p_flat.size else np.empty(0)
            ratio = np.where(
                p_pass_factors > 0.0,
                pass_primary[p_entry] / p_pass_factors,
                0.0,
            )
            nu = np.bincount(
                p_flat, weights=p_demand_entry * ratio, minlength=num_links
            )
            reach_pair = demand_arr * (1.0 - pass_primary)
            if a_flat.size:
                a_pass_factors = 1.0 - protected[a_flat]
                accept_route = np.multiply.reduceat(a_pass_factors, a_starts)
                reach_route = np.empty(len(routes))
                for idx in stage_routes:
                    reach_route[idx] = reach_pair[route_pair_arr[idx]]
                    reach_pair[route_pair_arr[idx]] *= 1.0 - accept_route[idx]
                route_weight = reach_route * accept_route
                entry_weight = np.where(
                    a_pass_factors > 0.0,
                    route_weight[a_entry] / a_pass_factors,
                    0.0,
                )
                attempts = np.bincount(
                    a_flat, weights=entry_weight, minlength=num_links
                )
            else:
                attempts = np.zeros(num_links)
            # --- link side: all protected chains of one capacity at once.
            new_full = np.empty(num_links)
            new_protected = np.empty(num_links)
            new_full[zero_cap] = 1.0
            new_protected[zero_cap] = 1.0
            for capacity, indices, group_levels, log_service, admit in cap_groups:
                rates = nu[indices, np.newaxis] + np.where(
                    admit, attempts[indices, np.newaxis], 0.0
                )
                # Unnormalized log weights: log pi_{s+1} - log pi_s
                # = log rate_s - log(s+1); cumsum replaces the sequential
                # renormalizing product of BirthDeathChain.
                log_w = np.empty((indices.size, capacity + 1))
                log_w[:, 0] = 0.0
                np.cumsum(np.log(rates) - log_service, axis=1, out=log_w[:, 1:])
                log_w -= log_w.max(axis=1, keepdims=True)
                w = np.exp(log_w)
                total = w.sum(axis=1)
                tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
                new_full[indices] = w[:, capacity] / total
                new_protected[indices] = (
                    tail[row_index[capacity], capacity - group_levels] / total
                )
            step = max(
                np.abs(new_full - full).max(),
                np.abs(new_protected - protected).max(),
            )
            full = full + damping * (new_full - full)
            protected = protected + damping * (new_protected - protected)
            overflow = attempts
            if step < tolerance:
                converged = True
                break

        # --- final per-pair estimate from the converged probabilities.
        pass_primary = np.multiply.reduceat(1.0 - full[p_flat], p_starts) \
            if p_flat.size else np.empty(0)
        lost = 1.0 - pass_primary
        if a_flat.size:
            accept_route = np.multiply.reduceat(1.0 - protected[a_flat], a_starts)
            for idx in stage_routes:
                lost[route_pair_arr[idx]] *= 1.0 - accept_route[idx]
    pair_blocking: dict[tuple[int, int], float] = {}
    weighted = 0.0
    total_demand = 0.0
    for index, (od, demand, __, __) in enumerate(demands):
        pair_blocking[od] = float(lost[index])
        weighted += demand * lost[index]
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

