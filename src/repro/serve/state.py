"""Mutable live network state for the admission-control service.

The offline simulators rebuild occupancy from scratch per run; the serving
plane instead holds one long-lived :class:`NetworkState`: per-link
occupancies in a NumPy array with O(1) per-link admit/release, the
policy's compiled :class:`~repro.routing.table.RouteTable` (every pair's
candidate chains bound to their alternate-admission rows), and —
optionally — the same online protection-level adaptation loop as
:class:`repro.routing.adaptive.AdaptiveProtectionSimulator`: links count
the primary set-ups that fly past them, periodically fold the measured
rate into an EWMA demand estimate, and recompute their Equation-15
protection levels via :func:`repro.core.protection.min_protection_level`.

With adaptation off (the default) the table is exactly the policy's
static one, which is what makes a trace replay through the engine
bit-comparable to :class:`repro.sim.simulator.LossNetworkSimulator`.
Hot swaps and adaptation refreshes never edit a table: they build its
replacement through :meth:`RouteTable.replaced` and install it whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.protection import min_protection_levels
from ..routing.base import RoutingPolicy
from ..routing.table import FIRST_FEASIBLE, RouteTable
from ..topology.graph import Network

__all__ = [
    "AdaptationConfig",
    "NetworkState",
    "PolicySwap",
    "ThresholdRefresh",
    "partition_links",
    "shard_bounds",
]


def partition_links(num_links: int, num_shards: int) -> tuple[tuple[int, ...], ...]:
    """Balanced contiguous partition of link ids across ``num_shards``.

    Contiguous blocks keep both directions of a duplex trunk (adjacent in
    every topology builder's link order) on one shard, which is what makes
    short paths single-shard and the cluster's one-hop fast path common.
    Shards may own zero links when ``num_shards > num_links``.
    """
    if num_links < 0:
        raise ValueError("num_links must be non-negative")
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    bounds = [num_links * s // num_shards for s in range(num_shards + 1)]
    return tuple(
        tuple(range(bounds[s], bounds[s + 1])) for s in range(num_shards)
    )


def shard_bounds(table: RouteTable, links: Sequence[int]) -> dict[int, dict[int, int]]:
    """One shard's slice of ``table``'s bound rows in the shard wire format.

    ``{row key: {link: bound}}`` over *global* link ids, so the worker
    never imports the policy; an alternate attempt names its row by the
    key :meth:`RouteTable.key_of` gives.
    """
    return {
        key: {link: row[link] for link in links}
        for key, row in table.rows.items()
    }


@dataclass(frozen=True)
class AdaptationConfig:
    """Online protection refresh: the adaptive simulator's knobs, served.

    Every ``update_interval`` units of request time, each link folds its
    observed primary set-up rate into an EWMA estimate with weight
    ``ewma_weight`` and recomputes its protection level for ``max_hops``.
    ``initial_loads`` seeds the estimates (``None`` = cold start: links
    begin unprotected and harden as they learn).
    """

    update_interval: float = 5.0
    ewma_weight: float = 0.3
    max_hops: int = 6
    initial_loads: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.update_interval < float("inf"):
            raise ValueError("update_interval must be finite and positive")
        if not 0 < self.ewma_weight <= 1:
            raise ValueError("ewma_weight must lie in (0, 1]")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass(frozen=True)
class ThresholdRefresh:
    """One adaptation step: when it fired and what the links adopted."""

    time: float
    estimated_loads: np.ndarray
    protection_levels: np.ndarray


@dataclass(frozen=True)
class PolicySwap:
    """One hot swap: the epoch it installed and how far thresholds moved."""

    time: float
    epoch: int
    max_delta: float


class NetworkState:
    """Occupancies + route table for one network under one compiled policy.

    ``occupancy`` is the authoritative per-link circuit count
    (``np.int64``); :meth:`admit` and :meth:`release` book and free one
    path in O(path length).  ``table`` is the route table in force; the
    :attr:`alt_thresholds` and :attr:`length_thresholds` views read its
    bound rows.

    The request engine's batch loop works on a list snapshot of the
    occupancy and writes it back per batch (:meth:`absorb`), so the NumPy
    view is always consistent *between* batches — which is when telemetry
    and adaptation read it.
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        adaptation: AdaptationConfig | None = None,
    ):
        if policy.discipline not in FIRST_FEASIBLE:
            raise ValueError(
                f"serve supports disciplines {FIRST_FEASIBLE}, got "
                f"{policy.discipline!r} (policy {policy.name!r})"
            )
        if policy.network.num_links != network.num_links:
            raise ValueError("policy was compiled for a different network")
        self.network = network
        self.policy = policy
        self.capacities = network.capacities().astype(np.int64)
        self.occupancy = np.zeros(network.num_links, dtype=np.int64)
        self.table = RouteTable(policy)
        self.adaptation = adaptation
        self.refreshes: list[ThresholdRefresh] = []
        #: Monotone policy version: 0 at construction, bumped by every
        #: :meth:`hot_swap`.  Decisions are attributable to the epoch in
        #: force when they were made; the cluster stamps it into every
        #: shard so in-flight reservations commit against one version.
        self.policy_epoch = 0
        self.swaps: list[PolicySwap] = []
        #: Recomputes fired by :meth:`maybe_refresh` (the initial level
        #: application in the constructor is not counted — it is seeding,
        #: not adaptation).  Telemetry exports this as a counter.
        self.recompute_count = 0
        #: max |Δ threshold| of the most recent level application — how far
        #: the links moved their admission bounds in one step.  0.0 means
        #: the last recompute confirmed the thresholds already in force;
        #: operators watch this settle back to 0 after a regime shift.
        self.last_refresh_delta = 0.0
        if adaptation is not None:
            if policy.discipline != "threshold":
                raise ValueError(
                    "online threshold adaptation requires the 'threshold' "
                    "discipline"
                )
            if adaptation.initial_loads is None:
                self._estimates = np.zeros(network.num_links, dtype=float)
            else:
                self._estimates = np.asarray(adaptation.initial_loads, dtype=float)
                if self._estimates.shape != (network.num_links,):
                    raise ValueError("initial_loads must be per-link")
            self.setup_counts = np.zeros(network.num_links, dtype=np.int64)
            self.next_refresh: float | None = adaptation.update_interval
            self._apply_levels(0.0)
        else:
            self.next_refresh = None

    # ------------------------------------------------------------ read views

    @property
    def alt_thresholds(self) -> np.ndarray:
        """The flat per-link alternate bound (``C - r``) in force; for the
        ``length-threshold`` discipline the laxest (shortest-hop) row."""
        return np.asarray(self.table.flat, dtype=np.int64)

    @property
    def length_thresholds(self) -> dict[int, np.ndarray] | None:
        """Per-hop-length bound rows in force, or None for the scalar
        ``threshold`` discipline."""
        rows = self.table.length_rows
        if rows is None:
            return None
        return {h: np.asarray(row, dtype=np.int64) for h, row in rows.items()}

    # ------------------------------------------------------------- admission

    def admit(self, path: tuple[int, ...], width: int = 1) -> None:
        """Book ``width`` circuits on every link of ``path``."""
        for link in path:
            self.occupancy[link] += width

    def release(self, path: tuple[int, ...], width: int = 1) -> None:
        """Free ``width`` circuits on every link of ``path``."""
        for link in path:
            self.occupancy[link] -= width

    def utilization(self) -> float:
        """Network-wide occupied fraction of all circuits."""
        total = int(self.capacities.sum())
        return float(self.occupancy.sum()) / total if total else 0.0

    # ------------------------------------------------------------- sharding

    def shard_spec(self, shard_id: int, links: Sequence[int]) -> dict:
        """Self-contained state slice for one cluster shard worker.

        Everything a worker process needs to admit against its links —
        capacities and the table's bound rows (:func:`shard_bounds`) — as
        plain picklable dicts keyed by *global* link id, so the worker
        never imports the policy or the network.
        """
        links = tuple(int(link) for link in links)
        return {
            "shard_id": int(shard_id),
            "epoch": int(self.policy_epoch),
            "links": links,
            "capacities": {l: int(self.capacities[l]) for l in links},
            "rows": shard_bounds(self.table, links),
        }

    # -------------------------------------------------------------- hot swap

    def hot_swap(
        self,
        *,
        alt_thresholds: np.ndarray | Sequence[int] | None = None,
        length_thresholds: dict[int, np.ndarray] | None = None,
        now: float = 0.0,
    ) -> float:
        """Atomically install new alternate-admission thresholds.

        Exactly one of ``alt_thresholds`` (scalar ``threshold``
        discipline) or ``length_thresholds`` (some or all per-hop-length
        rows, ``length-threshold`` discipline; rows left out keep their
        bounds) must be given and must match the discipline this state was
        built with.  The replacement table is validated and built by
        :meth:`RouteTable.replaced` and installed whole.  The swap bumps
        :attr:`policy_epoch`, records a :class:`PolicySwap`, and returns
        the max absolute per-link threshold move — in-flight occupancy is
        untouched, so decisions made after the swap see the new bounds
        against the same live circuits.
        """
        self.table, max_delta = self.table.replaced(
            alt_thresholds=alt_thresholds, length_thresholds=length_thresholds
        )
        self.policy_epoch += 1
        self.last_refresh_delta = max_delta
        self.swaps.append(
            PolicySwap(time=now, epoch=self.policy_epoch, max_delta=max_delta)
        )
        return max_delta

    # ---------------------------------------------------- batch-loop bridge

    def absorb(self, occupancy: list[int], setups: list[int] | None = None) -> None:
        """Write one batch's occupancy (and set-up counts) back."""
        self.occupancy[:] = occupancy
        if setups is not None and self.adaptation is not None:
            self.setup_counts += np.asarray(setups, dtype=np.int64)

    # ------------------------------------------------------------ adaptation

    def _apply_levels(self, now: float) -> None:
        levels = min_protection_levels(
            self._estimates, self.capacities, self.adaptation.max_hops
        )
        self.table, self.last_refresh_delta = self.table.replaced(
            alt_thresholds=self.capacities - levels
        )
        self.refreshes.append(
            ThresholdRefresh(
                time=now,
                estimated_loads=self._estimates.copy(),
                protection_levels=levels,
            )
        )

    def maybe_refresh(self, now: float) -> bool:
        """Run every adaptation window boundary at or before ``now``.

        Returns True if any refresh fired (the engine then routes on the
        refreshed table).  No-op when adaptation is off.
        """
        if self.next_refresh is None or now < self.next_refresh:
            return False
        config = self.adaptation
        while now >= self.next_refresh:
            measured = self.setup_counts / config.update_interval
            self._estimates = (
                (1.0 - config.ewma_weight) * self._estimates
                + config.ewma_weight * measured
            )
            self.setup_counts[:] = 0
            self._apply_levels(self.next_refresh)
            self.recompute_count += 1
            self.next_refresh += config.update_interval
        return True
