"""Erlang fixed-point (reduced-load) approximation for single-path routing.

The classical analytic companion to the simulator: under the independent-link
assumption, each link ``k`` sees a thinned Poisson load

    rho_k = sum over O-D pairs routed over k of
            T(i, j) * prod over other links l on the path of (1 - B_l)

and ``B_k = ErlangB(rho_k, C_k)``.  Iterating to a fixed point gives per-link
and per-O-D blocking estimates for the single-path policy — the scheme
Kelly's analyses build on, and a useful cross-check on the simulator (the
tests compare the two at moderate loads).

Also exposes the *unreduced* per-O-D estimate (no thinning) used when the
paper says it feeds "the unreduced primary load intensities" to the
Ott-Krishnan comparator.

Each iteration sweeps the whole network with NumPy: paths are flattened
into link-index arrays once (and memoized across calls, so load sweeps pay
the path resolution once), path products come from ``np.multiply.reduceat``,
thinned loads accumulate through ``np.bincount``, and the Erlang update
groups links by capacity and evaluates each group with
:func:`repro.core.erlang.erlang_b_batch` through the shared memoized table
(:data:`repro.core.erlang.shared_erlang_table`).  The batch kernel
accumulates the Erlang sum in a different (vectorized) order than the scalar
recursion, so the result agrees with the original per-link loops (kept as
the oracle in ``tests/oracles/analysis.py``) to ~1e-12 relative rather than
bit for bit; the equivalence tests pin the tolerance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..core.erlang import shared_erlang_table
from ..topology.graph import Network
from ..topology.paths import PathTable
from ..traffic.matrix import TrafficMatrix

__all__ = ["FixedPointResult", "erlang_fixed_point"]


@dataclass(frozen=True)
class FixedPointResult:
    """Converged reduced-load approximation.

    ``link_blocking`` is indexed by link index; ``pair_blocking`` keyed by
    O-D pair; ``network_blocking`` is the demand-weighted average;
    ``iterations`` the number of damped sweeps used.
    """

    link_blocking: np.ndarray
    pair_blocking: dict[tuple[int, int], float]
    network_blocking: float
    iterations: int
    converged: bool


# (network, table) -> (weakrefs, od order, flattened link-index arrays).  Load
# sweeps call the fixed point with fresh (scaled) traffic but the same network
# and path table; resolving every primary path to link indices costs more than
# a converged sweep once the numerics are vectorized, so the flattening is
# memoized.  Keys are object ids guarded by weakrefs (a dead referent, or an
# od order that no longer matches the traffic, invalidates the entry).
_FLATTEN_CACHE: dict[tuple[int, int], tuple] = {}
_FLATTEN_CACHE_MAX = 64


def _flatten_paths(
    network: Network, table: PathTable, demands: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten primary paths to (flat_links, starts, entry_pair) arrays.

    The flattening lists link entries in (pair, hop) order, so every
    reduceat/bincount over them touches memory in exactly the order the
    per-link oracle loops do — float accumulation order is preserved.
    """
    ods = [od for od, __ in demands]
    key = (id(network), id(table))
    cached = _FLATTEN_CACHE.get(key)
    if cached is not None:
        net_ref, table_ref, cached_ods, arrays = cached
        if net_ref() is network and table_ref() is table and cached_ods == ods:
            return arrays
    paths = []
    for od in ods:
        primary = table.primary.get(od)
        if primary is None:
            raise ValueError(f"O-D pair {od} has demand but no primary path")
        paths.append(network.path_links(primary))
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    flat_links = np.array(
        [link for path in paths for link in path], dtype=np.int64
    )
    starts = np.zeros(len(paths), dtype=np.int64)
    if paths:
        starts[1:] = np.cumsum(lengths)[:-1]
    entry_pair = np.repeat(np.arange(len(paths), dtype=np.int64), lengths)
    arrays = (flat_links, starts, entry_pair)
    if len(_FLATTEN_CACHE) >= _FLATTEN_CACHE_MAX:
        _FLATTEN_CACHE.clear()
    try:
        _FLATTEN_CACHE[key] = (
            weakref.ref(network),
            weakref.ref(table),
            ods,
            arrays,
        )
    except TypeError:
        pass  # non-weakrefable objects simply skip the cache
    return arrays


def erlang_fixed_point(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
    damping: float = 0.5,
) -> FixedPointResult:
    """Iterate the reduced-load equations to a fixed point.

    Damped successive substitution: ``B <- (1-d) * B + d * ErlangB(rho(B))``.
    The map is continuous on ``[0, 1]^L`` so a fixed point exists (Brouwer);
    damping keeps the iteration from oscillating at high loads.
    """
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    demands = list(traffic.positive_pairs())
    num_links = network.num_links
    capacities = network.capacities()
    flat_links, starts, entry_pair = _flatten_paths(network, table, demands)
    demand_arr = np.array([demand for __, demand in demands], dtype=float)
    demand_entry = demand_arr[entry_pair]
    cap_groups = [
        (int(capacity), np.flatnonzero(capacities == capacity))
        for capacity in np.unique(capacities)
    ]
    single_group = len(cap_groups) == 1 and cap_groups[0][1].size == num_links

    blocking = np.zeros(num_links, dtype=float)
    iterations = 0
    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while iterations < max_iterations:
            iterations += 1
            if flat_links.size:
                passing_factors = 1.0 - blocking[flat_links]
                path_passing = np.multiply.reduceat(passing_factors, starts)
                ratio = np.where(
                    passing_factors > 0.0,
                    path_passing[entry_pair] / passing_factors,
                    0.0,
                )
                thinned = demand_entry * ratio
                loads = np.bincount(
                    flat_links, weights=thinned, minlength=num_links
                )
            else:
                loads = np.zeros(num_links, dtype=float)
            if single_group:
                updated = shared_erlang_table.blocking_batch(
                    loads, cap_groups[0][0]
                )
            else:
                updated = np.empty(num_links, dtype=float)
                for capacity, indices in cap_groups:
                    updated[indices] = shared_erlang_table.blocking_batch(
                        loads[indices], capacity
                    )
            step = damping * (updated - blocking)
            blocking = blocking + step
            if np.abs(step).max() < tolerance:
                converged = True
                break
    if flat_links.size:
        path_passing = np.multiply.reduceat(1.0 - blocking[flat_links], starts)
    else:
        path_passing = np.empty(0)
    pair_blocking: dict[tuple[int, int], float] = {}
    weighted = 0.0
    total_demand = 0.0
    for index, (od, demand) in enumerate(demands):
        loss = 1.0 - path_passing[index]
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

