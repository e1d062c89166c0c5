"""The compiled route table: the admission data every engine reads.

The paper admits a call by one rule: the primary path if every link has a
free circuit, else the first loop-free alternate (in increasing hop order)
whose links are all below their bound ``C - r`` (Theorem 1).
:class:`RouteTable` is the only code that turns a policy's ``choices``,
``cum_probs`` and thresholds into that data.  Per O-D pair it holds the
candidate *chains* — one ``(primary, alternates)`` pair per route choice,
each alternate a ``(links, bounds)`` pair naming the per-link row it is
tested against — and the cumulative choice probabilities, resolved per call
by :func:`choice_index`, the one scalar bifurcation pick.

Both threshold forms compile to this shape: a ``threshold`` policy shares
one row across all its alternates (keyed by its hop family ``H``), a
``length-threshold`` policy binds each alternate to the row of its hop
count, so no consumer branches on the form to admit a call.  Tables are
never mutated: hot swaps build a replacement with :meth:`RouteTable.replaced`
and fault planes zero rows in a per-run copy from :meth:`RouteTable.writable`.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .base import RoutingPolicy

__all__ = ["FIRST_FEASIBLE", "RouteTable", "choice_index", "pick"]

#: Disciplines admitted by the table's own first-feasible rule.
FIRST_FEASIBLE = ("threshold", "length-threshold")


def choice_index(cum: Sequence[float], uniform: float) -> int:
    """Index of the route choice a call's uniform variate selects.

    The first choice whose cumulative probability exceeds ``uniform``; the
    last absorbs rounding at the top.
    """
    index = 0
    last = len(cum) - 1
    while index < last and uniform >= cum[index]:
        index += 1
    return index


def pick(entry: tuple, uniform: float) -> tuple:
    """The chain a ``("multi", chains, cum)`` route entry gives ``uniform``."""
    return entry[1][choice_index(entry[2], uniform)]


class RouteTable:
    """Per-pair candidate chains bound to their per-link admission rows.

    ``routes[od]`` is ``("single", primary, alternates)`` for a pair with
    one route choice, ``("multi", chains, cum)`` for a bifurcated one, and
    absent for a disconnected one.  ``rows`` maps each row key (a hop
    length, or the hop family ``H`` of a shared-row table) to its per-link
    bounds.  Every attribute is read-only.
    """

    def __init__(self, policy: RoutingPolicy):
        self.capacities = tuple(int(c) for c in policy.network.capacities())
        self.per_length = policy.discipline == "length-threshold"
        self._skeleton = {
            od: (
                tuple(
                    (tuple(choice.primary), tuple(map(tuple, choice.alternates)))
                    for choice in options
                ),
                tuple(policy.cum_probs[od].tolist()),
            )
            for od, options in policy.choices.items()
            if options
        }
        lengths = {
            len(alt)
            for choices, __ in self._skeleton.values()
            for ___, alternates in choices
            for alt in alternates
        }
        # The hop family a shared row protects for: the policy's design H
        # (its largest per-link value), else its longest alternate.
        hops = getattr(policy, "max_hops", None)
        self.shared_key = int(np.max(max(lengths, default=1) if hops is None else hops))
        if self.per_length:
            tables = getattr(policy, "length_thresholds", None)
            if tables is None:
                raise ValueError(f"policy {policy.name!r} lacks length thresholds")
            rows = {int(h): tuple(map(int, row)) for h, row in tables.items()}
            if lengths - set(rows):
                raise ValueError(
                    f"policy {policy.name!r} lacks thresholds for hop lengths "
                    f"{sorted(lengths - set(rows))}"
                )
        elif policy.alt_thresholds is not None:
            rows = {self.shared_key: tuple(map(int, policy.alt_thresholds))}
        elif policy.discipline == "shadow":
            rows = {}  # shadow prices every path; no bound rows
        else:
            raise ValueError(f"policy {policy.name!r} lacks alternate thresholds")
        self._bind(rows)

    def _bind(self, rows: dict) -> None:
        self.rows = rows
        shared = rows.get(self.shared_key)
        routes = {}
        for od, (choices, cum) in self._skeleton.items():
            chains = tuple(
                (primary, tuple(
                    (alt, rows[len(alt)] if self.per_length else shared)
                    for alt in alternates
                ))
                for primary, alternates in choices
            )
            if len(chains) == 1:
                routes[od] = ("single",) + chains[0]
            else:
                routes[od] = ("multi", chains, cum)
        self.routes = routes

    # -------------------------------------------------------------- lookup

    def key_of(self, links: tuple[int, ...]) -> int:
        """The row key an alternate over ``links`` is tested against."""
        return len(links) if self.per_length else self.shared_key

    @property
    def flat(self) -> tuple[int, ...]:
        """One per-link row: the shared one, or the laxest (shortest-hop)."""
        return self.rows[min(self.rows)]

    @property
    def length_rows(self) -> dict[int, tuple[int, ...]] | None:
        """The per-hop-length rows, or None for a shared-row table."""
        return dict(self.rows) if self.per_length else None

    def choices(self, od: tuple[int, int]) -> tuple[tuple, tuple]:
        """``od``'s chains and cumulative probabilities (empty if none)."""
        entry = self.routes.get(od)
        if entry is None:
            return (), ()
        if entry[0] == "single":
            return (entry[1:],), (1.0,)
        return entry[1], entry[2]

    def by_pair(self, od_pairs: Sequence[tuple[int, int]]) -> tuple[list, list]:
        """Pair-indexed lookups for the event loops: ``single[i]`` is pair
        ``i``'s chain when it has one route choice, ``split[i]`` its
        ``"multi"`` entry otherwise (resolve per call with :func:`pick`);
        both are None for a disconnected pair."""
        single, split = [], []
        for od in od_pairs:
            entry = self.routes.get(od)
            deterministic = entry is not None and entry[0] == "single"
            single.append(entry[1:] if deterministic else None)
            split.append(None if deterministic else entry)
        return single, split

    # ---------------------------------------------------------- derivation

    def _derive(self, rows: dict, skeleton: dict | None = None) -> RouteTable:
        table = copy.copy(self)
        table._skeleton = skeleton or self._skeleton
        table._bind(rows)
        return table

    def writable(self) -> tuple[RouteTable, list[list[int]]]:
        """A per-run copy whose rows are plain lists, and those lists (the
        event loops' fault planes zero and restore entries in them)."""
        rows = {key: list(row) for key, row in self.rows.items()}
        return self._derive(rows), list(rows.values())

    def truncated(self, prefix: Mapping[tuple[int, int], int]) -> RouteTable:
        """Each listed pair keeps only its first ``prefix[od]`` alternates."""
        skeleton = dict(self._skeleton)
        for od, keep in prefix.items():
            if od in skeleton:
                choices, cum = skeleton[od]
                skeleton[od] = (
                    tuple((primary, alts[:keep]) for primary, alts in choices),
                    cum,
                )
        return self._derive(self.rows, skeleton)

    def replaced(
        self,
        *,
        alt_thresholds: np.ndarray | Sequence[int] | None = None,
        length_thresholds: Mapping[int, Sequence[int]] | None = None,
    ) -> tuple[RouteTable, float]:
        """Validate a hot swap; return the table it installs and the largest
        absolute per-link bound move.

        Exactly one of ``alt_thresholds`` (a shared-row table's row) or
        ``length_thresholds`` (some or all per-length rows; rows left out
        keep their bounds) must be given, matching the table's form, with
        every bound in ``[0, capacity]``.
        """
        if (alt_thresholds is None) == (length_thresholds is None):
            raise ValueError(
                "pass exactly one of alt_thresholds or length_thresholds"
            )
        if alt_thresholds is not None:
            if self.per_length:
                raise ValueError(
                    "policy uses the length-threshold discipline; swap via "
                    "length_thresholds"
                )
            incoming = {self.shared_key: alt_thresholds}
            shape_error = "alt_thresholds must be per-link"
        else:
            if not self.per_length:
                raise ValueError(
                    "policy uses the scalar threshold discipline; swap via "
                    "alt_thresholds"
                )
            unknown = set(length_thresholds) - set(self.rows)
            if unknown:
                raise ValueError(f"unknown hop lengths in swap: {sorted(unknown)}")
            incoming = length_thresholds
            shape_error = "length threshold rows must be per-link"
        capacities = np.asarray(self.capacities, dtype=np.int64)
        rows = dict(self.rows)
        max_delta = 0.0
        for key, row in incoming.items():
            bounds = np.asarray(row, dtype=np.int64)
            if bounds.shape != capacities.shape:
                raise ValueError(shape_error)
            if (bounds < 0).any() or (bounds > capacities).any():
                raise ValueError("thresholds must lie in [0, capacity]")
            move = np.abs(bounds - np.asarray(self.rows[key])).max(initial=0)
            max_delta = max(max_delta, float(move))
            rows[int(key)] = tuple(bounds.tolist())
        return self._derive(rows), max_delta

    def swap_arguments(self, rows: Mapping[int, Sequence[int]]) -> dict:
        """``hot_swap`` keywords installing per-hop-family ``rows``: every
        known row for a per-length table, the one row of a shared one."""
        if self.per_length:
            return {"length_thresholds": {
                h: np.asarray(row, dtype=np.int64)
                for h, row in rows.items() if h in self.rows
            }}
        return {"alt_thresholds": np.asarray(rows[min(rows)], dtype=np.int64)}
