"""The cut-set Erlang lower bound on network blocking (Section 4).

For every node cut ``(S, complement)`` the traffic crossing the cut in each
direction cannot do better than a single pooled Erlang link of the cut's
total capacity — even if calls could be re-packed.  The paper evaluates, for
each cut ``S``::

    T(S->S') / T_total * B(T(S->S'), C(S->S'))
  + T(S'->S) / T_total * B(T(S'->S), C(S'->S))

and takes the maximum over cuts as a lower bound on the average network
blocking (after Gibbens & Kelly's direction-less argument).  On the paper's
small meshes exhaustive enumeration of the ``2^N - 2`` cuts is cheap; a
restriction to single-node cuts is provided for larger networks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.erlang import erlang_b, shared_erlang_table
from ..topology.graph import Network
from ..traffic.matrix import TrafficMatrix

__all__ = ["cut_bound_term", "erlang_bound", "single_node_cut_bound"]

#: Cuts evaluated per vectorized block; bounds the ``(block, nodes)``
#: membership matrix for the 2^21-cut worst case at ~22 nodes.
_CUT_BLOCK = 8192


def _cut_quantities(
    network: Network, traffic: TrafficMatrix, cut: frozenset[int]
) -> tuple[float, int, float, int]:
    """Traffic and capacity crossing the cut, in both directions.

    Returns ``(traffic_out, capacity_out, traffic_in, capacity_in)`` where
    "out" means from ``cut`` to its complement.
    """
    matrix = traffic.as_array()
    inside = sorted(cut)
    outside = [n for n in network.nodes() if n not in cut]
    traffic_out = float(matrix[np.ix_(inside, outside)].sum())
    traffic_in = float(matrix[np.ix_(outside, inside)].sum())
    capacity_out = 0
    capacity_in = 0
    for link in network.links:
        if network.is_failed(link.index):
            continue
        if link.src in cut and link.dst not in cut:
            capacity_out += link.capacity
        elif link.src not in cut and link.dst in cut:
            capacity_in += link.capacity
    return traffic_out, capacity_out, traffic_in, capacity_in


def cut_bound_term(
    network: Network, traffic: TrafficMatrix, cut: Iterable[int]
) -> float:
    """The paper's bound expression evaluated for one cut set ``S``."""
    cut_set = frozenset(cut)
    if not cut_set or cut_set >= set(network.nodes()):
        raise ValueError("cut must be a proper non-empty subset of the nodes")
    total = traffic.total
    if total == 0.0:
        return 0.0
    t_out, c_out, t_in, c_in = _cut_quantities(network, traffic, cut_set)
    term = 0.0
    if t_out > 0.0:
        term += (t_out / total) * erlang_b(t_out, c_out)
    if t_in > 0.0:
        term += (t_in / total) * erlang_b(t_in, c_in)
    return term


def erlang_bound(network: Network, traffic: TrafficMatrix) -> float:
    """Maximum of the cut bound over all cuts — the paper's Erlang Bound.

    A loose lower bound on the average network blocking of *any* routing
    scheme (it even allows re-packing).  Exhaustive over the ``2^(N-1) - 1``
    complement-distinct cuts; fine for the paper's 4- and 12-node networks.

    Cuts are evaluated in vectorized blocks: each block's node membership
    matrix turns the directional cut traffics into two matrix products,
    crossing capacities into masked sums over the link arrays, and the
    Erlang evaluations batch by capacity through the shared memoized table.
    This agrees with taking :func:`cut_bound_term` one cut at a time (the
    oracle in ``tests/oracles/analysis.py``) to ~1e-12 relative.
    """
    if network.num_nodes > 22:
        raise ValueError(
            "exhaustive cut enumeration is impractical beyond ~22 nodes; "
            "use single_node_cut_bound"
        )
    total = traffic.total
    if total == 0.0:
        return 0.0
    num_nodes = network.num_nodes
    matrix = traffic.as_array().astype(float)
    live = [link for link in network.links if not network.is_failed(link.index)]
    src = np.array([link.src for link in live], dtype=np.int64)
    dst = np.array([link.dst for link in live], dtype=np.int64)
    caps = np.array([link.capacity for link in live], dtype=float)
    # One representative per complement pair: every subset containing node 0
    # except the full node set.  The bound term is complement-symmetric, so
    # the maximum over these equals the maximum over all proper cuts.
    all_masks = np.arange((1 << (num_nodes - 1)) - 1, dtype=np.int64) * 2 + 1
    node_bits = np.arange(num_nodes, dtype=np.int64)
    best = 0.0
    for start in range(0, all_masks.size, _CUT_BLOCK):
        masks = all_masks[start : start + _CUT_BLOCK]
        inside = ((masks[:, np.newaxis] >> node_bits) & 1).astype(float)
        outside = 1.0 - inside
        row_sums = inside @ matrix  # (cuts, nodes): traffic from S to each node
        t_out = (row_sums * outside).sum(axis=1)
        col_sums = inside @ matrix.T
        t_in = (col_sums * outside).sum(axis=1)
        c_out = (inside[:, src] * outside[:, dst]) @ caps
        c_in = (outside[:, src] * inside[:, dst]) @ caps
        loads = np.concatenate([t_out, t_in])
        cut_caps = np.concatenate([c_out, c_in]).astype(np.int64)
        blocking = np.empty(loads.size)
        for capacity in np.unique(cut_caps):
            group = cut_caps == capacity
            blocking[group] = shared_erlang_table.blocking_batch(
                loads[group], int(capacity)
            )
        terms = np.where(loads > 0.0, (loads / total) * blocking, 0.0)
        block_best = (terms[: masks.size] + terms[masks.size :]).max()
        best = max(best, float(block_best))
    return best


def single_node_cut_bound(network: Network, traffic: TrafficMatrix) -> float:
    """The bound restricted to single-node cuts (cheap, weaker)."""
    best = 0.0
    for node in network.nodes():
        best = max(best, cut_bound_term(network, traffic, {node}))
    return best
