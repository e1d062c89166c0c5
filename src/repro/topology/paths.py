"""Path computation: min-hop primaries and loop-free alternates by length.

The paper's routing scheme needs, per ordered O-D pair:

* a unique minimum-hop **primary path** ``P*(i, j)`` (its base
  state-independent rule), and
* the **loop-free alternate paths**, attempted in order of increasing hop
  length, optionally truncated at ``H`` hops (the design parameter of
  Section 3).

The paper computes these with a K-shortest-path algorithm; we provide BFS
min-hop routing with a deterministic lexicographic tie-break, Yen-style
K-shortest simple paths, exhaustive simple-path enumeration ordered by
``(length, lexicographic)``, and the :class:`PathTable` bundling primaries
and alternates for the whole network.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Network

__all__ = [
    "min_hop_distances",
    "min_hop_path",
    "all_min_hop_paths",
    "simple_paths_by_length",
    "k_shortest_paths",
    "PathTable",
    "build_path_table",
    "alternate_path_census",
]

Path = tuple[int, ...]


def min_hop_distances(network: Network, source: int) -> list[float]:
    """Hop distance from ``source`` to every node (``inf`` if unreachable)."""
    dist: list[float] = [float("inf")] * network.num_nodes
    dist[source] = 0
    frontier = [source]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in network.neighbors(node):
                if dist[neighbor] == float("inf"):
                    dist[neighbor] = dist[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return dist


def min_hop_path(network: Network, src: int, dst: int) -> Path | None:
    """The lexicographically smallest minimum-hop path ``src -> dst``.

    The lexicographic tie-break makes the paper's "unique primary path"
    deterministic and reproducible.  Returns ``None`` when ``dst`` is
    unreachable.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    # Distances *to* dst over forward links: BFS on the reverse graph.
    dist_to = _distances_to(network, dst)
    if dist_to[src] == float("inf"):
        return None
    # Greedy descent: at each step take the smallest-numbered neighbor that
    # lies on some shortest path (dist decreases by one).  This yields the
    # lexicographically smallest shortest path.
    path = [src]
    node = src
    while node != dst:
        candidates = [
            neighbor
            for neighbor in network.neighbors(node)
            if dist_to[neighbor] == dist_to[node] - 1
        ]
        node = min(candidates)
        path.append(node)
    return tuple(path)


def all_min_hop_paths(network: Network, src: int, dst: int) -> list[Path]:
    """Every minimum-hop path ``src -> dst`` in lexicographic order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    dist_to = _distances_to(network, dst)
    if dist_to[src] == float("inf"):
        return []
    results: list[Path] = []

    def extend(path: list[int]) -> None:
        node = path[-1]
        if node == dst:
            results.append(tuple(path))
            return
        for neighbor in sorted(network.neighbors(node)):
            if dist_to[neighbor] == dist_to[node] - 1:
                path.append(neighbor)
                extend(path)
                path.pop()

    extend([src])
    return results


def _distances_to(network: Network, dst: int) -> list[float]:
    """Hop distance from every node to ``dst`` over forward links."""
    reverse_adj: list[list[int]] = [[] for _ in range(network.num_nodes)]
    for link in network.links:
        if not network.is_failed(link.index):
            reverse_adj[link.dst].append(link.src)
    dist: list[float] = [float("inf")] * network.num_nodes
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        next_frontier = []
        for node in frontier:
            for upstream in reverse_adj[node]:
                if dist[upstream] == float("inf"):
                    dist[upstream] = dist[node] + 1
                    next_frontier.append(upstream)
        frontier = next_frontier
    return dist


def simple_paths_by_length(
    network: Network,
    src: int,
    dst: int,
    max_hops: int | None = None,
) -> list[Path]:
    """All simple (loop-free) paths ``src -> dst``, sorted by (length, lex).

    ``max_hops`` bounds the hop count (the paper's ``H``); ``None`` allows
    any loop-free length, i.e. up to ``num_nodes - 1`` hops.  Exhaustive DFS
    is practical here because the paper's meshes are sparse — NSFNet has a
    cycle-space dimension of 4, so no pair has more than a couple dozen
    simple paths.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    if limit < 1:
        return []
    results: list[Path] = []
    on_path = [False] * network.num_nodes
    on_path[src] = True
    # Prune branches that cannot reach dst within the remaining hop budget.
    dist_to = _distances_to(network, dst)

    def extend(path: list[int]) -> None:
        node = path[-1]
        remaining = limit - (len(path) - 1)
        if node == dst:
            results.append(tuple(path))
            return
        if remaining <= 0 or dist_to[node] > remaining:
            return
        for neighbor in sorted(network.neighbors(node)):
            if not on_path[neighbor]:
                on_path[neighbor] = True
                path.append(neighbor)
                extend(path)
                path.pop()
                on_path[neighbor] = False

    extend([src])
    results.sort(key=lambda p: (len(p), p))
    return results


def k_shortest_paths(
    network: Network,
    src: int,
    dst: int,
    k: int,
    max_hops: int | None = None,
) -> list[Path]:
    """Yen's algorithm: the ``k`` shortest simple paths by hop count.

    Ties are broken lexicographically, so the output is a prefix of
    :func:`simple_paths_by_length`'s ordering.  Provided as the scalable
    route-computation the paper mentions; on the paper's small meshes the
    exhaustive enumeration is equally usable and the two are cross-checked
    in the tests.
    """
    if k < 1:
        return []
    first = min_hop_path(network, src, dst)
    if first is None:
        return []
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    if len(first) - 1 > limit:
        return []
    found: list[Path] = [first]
    # Candidate heap keyed by (length, path) for deterministic ordering.
    candidates: list[tuple[int, Path]] = []
    seen: set[Path] = {first}
    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            removed: list[tuple[int, int]] = []
            for path in found:
                if len(path) > i and path[: i + 1] == root:
                    a, b = path[i], path[i + 1]
                    if network.has_link(a, b):
                        network.fail_link(a, b)
                        removed.append((a, b))
            blocked_nodes = set(root[:-1])
            spur = _min_hop_path_avoiding(network, spur_node, dst, blocked_nodes)
            for a, b in removed:
                network.restore_link(a, b)
            if spur is None:
                continue
            total = root[:-1] + spur
            if len(total) - 1 > limit or total in seen:
                continue
            if len(set(total)) != len(total):
                continue
            seen.add(total)
            heapq.heappush(candidates, (len(total), total))
        if not candidates:
            break
        __, best = heapq.heappop(candidates)
        found.append(best)
    return found[:k]


def _min_hop_path_avoiding(
    network: Network, src: int, dst: int, blocked: set[int]
) -> Path | None:
    """Lexicographically smallest min-hop path avoiding ``blocked`` nodes."""
    if src in blocked or dst in blocked:
        return None
    # BFS from dst on the reverse graph, skipping blocked nodes.
    reverse_adj: list[list[int]] = [[] for _ in range(network.num_nodes)]
    for link in network.links:
        if network.is_failed(link.index):
            continue
        if link.src in blocked or link.dst in blocked:
            continue
        reverse_adj[link.dst].append(link.src)
    dist: list[float] = [float("inf")] * network.num_nodes
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        next_frontier = []
        for node in frontier:
            for upstream in reverse_adj[node]:
                if dist[upstream] == float("inf"):
                    dist[upstream] = dist[node] + 1
                    next_frontier.append(upstream)
        frontier = next_frontier
    if dist[src] == float("inf"):
        return None
    path = [src]
    node = src
    while node != dst:
        candidates = [
            neighbor
            for neighbor in network.neighbors(node)
            if neighbor not in blocked and dist[neighbor] == dist[node] - 1
        ]
        node = min(candidates)
        path.append(node)
    return tuple(path)


@dataclass(frozen=True)
class PathTable:
    """Primary and alternate paths for every ordered O-D pair.

    ``primary[(i, j)]`` is the unique primary path and
    ``alternates[(i, j)]`` the loop-free alternates in increasing-length
    order, primary excluded, truncated at ``max_hops`` hops.  Pairs that are
    disconnected are absent from ``primary``.
    """

    primary: dict[tuple[int, int], Path]
    alternates: dict[tuple[int, int], tuple[Path, ...]]
    max_hops: int

    def routes(self, od: tuple[int, int]) -> tuple[Path, ...]:
        """Primary followed by alternates for an O-D pair."""
        if od not in self.primary:
            return ()
        return (self.primary[od],) + self.alternates.get(od, ())

    def od_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.primary)


def build_path_table(
    network: Network,
    max_hops: int | None = None,
    primary: dict[tuple[int, int], Path] | None = None,
) -> PathTable:
    """Build the :class:`PathTable` for a network.

    ``max_hops`` is the paper's ``H`` (maximum alternate-path hop length);
    ``None`` means unrestricted, i.e. ``num_nodes - 1``.  A custom
    ``primary`` mapping may be supplied (the min-link-loss experiments pick
    primaries by optimization); by default the lexicographic min-hop path is
    used.  Primaries longer than ``H`` are allowed — such pairs simply get no
    alternates, as Section 3.2 discusses.
    """
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    primaries: dict[tuple[int, int], Path] = {}
    alternates: dict[tuple[int, int], tuple[Path, ...]] = {}
    for od in network.node_pairs():
        if primary is not None and od in primary:
            chosen = tuple(primary[od])
            if not network.is_valid_path(chosen):
                raise ValueError(f"supplied primary for {od} is not a valid path")
        else:
            found = min_hop_path(network, *od)
            if found is None:
                continue
            chosen = found
        primaries[od] = chosen
        pool = simple_paths_by_length(network, od[0], od[1], max_hops=limit)
        alternates[od] = tuple(p for p in pool if p != chosen)
    return PathTable(primary=primaries, alternates=alternates, max_hops=limit)


def alternate_path_census(table: PathTable) -> dict[str, float]:
    """Summary statistics of alternate-path counts per O-D pair.

    The paper reports, for the NSFNet model: about 9 alternates on average
    (max 15, min 5) when ``H = 11`` and about 7 (max 13, min 5) when
    ``H = 6``.
    """
    counts = [len(table.alternates.get(od, ())) for od in table.od_pairs()]
    if not counts:
        return {"mean": 0.0, "max": 0.0, "min": 0.0, "pairs": 0.0}
    return {
        "mean": sum(counts) / len(counts),
        "max": float(max(counts)),
        "min": float(min(counts)),
        "pairs": float(len(counts)),
    }
