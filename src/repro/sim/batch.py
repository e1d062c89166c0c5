"""Lockstep many-seeds batch simulator: struct-of-arrays, one admission kernel.

The per-seed loops in :mod:`repro.sim.simulator` advance one event stream per
Python iteration.  This module advances a whole *batch* of seeds in lockstep
instead: occupancy lives in one ``(seeds, links)`` int32 array, every trace's
arrival/departure stream is presorted into shared **epochs**, and each epoch
is one vectorized admission step — departure release, primary test, alternate
resolution, scatter — executed for all seeds at once.  The per-link analytic
kernels it leans on are the batch entry points of the core:
:func:`repro.core.erlang.erlang_b_batch` for blocking and
:func:`repro.core.protection.min_protection_levels` for whole-network
Theorem-1 thresholds (shared with the serve tier's threshold recompute).

**Epoch mapping.**  Epoch ``k`` consists of every departure the scalar loop
would process before arrival ``k``, then arrival ``k`` itself, for every seed
in parallel (shorter traces idle through trailing epochs).  The departure of
call ``j`` with departure time ``t`` belongs to epoch
``max(searchsorted(times, t, side="left"), j + 1)``: the first arrival at or
after ``t``, clamped so a call never departs before its own arrival (the
zero-holding tie the fast loop resolves through its stable sort).  Within an
epoch, departure order is irrelevant — releases are pure decrements — so one
``bincount`` scatter per epoch reproduces the scalar loops' occupancy
trajectory exactly, and with it every admission decision, bit for bit.

**Sentinel links.**  Each seed's occupancy row has two extra cells: ``FREE``
(capacity ~2^30, never blocks) absorbs the padding of short paths, and
``FULL`` (capacity 0, always blocks) encodes disconnected pairs and missing
alternates.  A blocked call stores path id ``-1``, which gathers the
all-``FREE`` last row of the path table — its scatter and its release are
no-ops by construction, so blocked calls flow through the same vector code
path as admitted ones.

Supported disciplines are ``threshold`` (the paper's two tiers),
``dar`` and ``power-of-d`` (the random-alternate schemes of
:mod:`repro.routing.dar`, whose positional draw streams are precomputed per
seed).  Everything else — multirate traces, fault planes, lossy signaling,
shadow prices — falls back to the per-seed loops; :func:`batch_ineligibility`
names the reason.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..routing.base import RoutingPolicy
from ..routing.table import RouteTable
from ..topology.graph import Network
from .metrics import SimulationResult
from .trace import ArrivalTrace

__all__ = [
    "BATCH_DISCIPLINES",
    "BatchSimulator",
    "batch_ineligibility",
    "simulate_batch",
]

#: Routing disciplines the lockstep kernel can express.
BATCH_DISCIPLINES = frozenset({"threshold", "length-threshold", "dar", "power-of-d"})

_HUGE = np.int32(2**30)  # sentinel capacity: never blocks, never overflows
_CHUNK = 2048  # epochs whose primary tables are gathered per chunk


def batch_ineligibility(
    policy: RoutingPolicy, traces: Sequence[ArrivalTrace]
) -> str | None:
    """Why the batch kernel cannot run ``(policy, traces)``, or None if it can.

    The scheduler layers use this to decide between one kernel invocation and
    the per-seed fallback; :class:`BatchSimulator` raises it as the error
    message when constructed with an inexpressible configuration.
    """
    if not traces:
        return "no traces to simulate"
    if policy.discipline not in BATCH_DISCIPLINES:
        return f"discipline {policy.discipline!r} has no batch kernel"
    try:
        table = RouteTable(policy)
    except ValueError as error:
        return str(error)
    if policy.discipline in ("dar", "power-of-d"):
        if not hasattr(policy, "route_draws"):
            return f"policy {policy.name!r} lacks a route_draws stream"
        if any(entry[0] == "multi" for entry in table.routes.values()):
            return "random-alternate policies must be single-choice per pair"
    od_pairs = traces[0].od_pairs
    for trace in traces:
        if trace.bandwidths is not None:
            return "multirate traces need the general loop"
        if trace.class_index is not None:
            return "multi-class traces need the general loop"
        if tuple(trace.od_pairs) != tuple(od_pairs):
            return "traces must share one O-D pair universe"
    return None


class BatchSimulator:
    """Run many seeds of one ``(network, policy)`` configuration in lockstep.

    Construction compiles the policy into interned path tables (shared by all
    seeds) and packs the traces into epoch-major arrays; :meth:`run` executes
    the kernel and returns one :class:`SimulationResult` per trace, in trace
    order, each bit-identical to what the scalar loops produce for that seed.
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        traces: Sequence[ArrivalTrace],
        warmup: float = 10.0,
    ):
        traces = list(traces)
        reason = batch_ineligibility(policy, traces)
        if reason is not None:
            raise ValueError(f"batch kernel cannot run this configuration: {reason}")
        for trace in traces:
            if warmup < 0 or warmup >= trace.duration:
                raise ValueError(
                    f"warmup must lie in [0, duration={trace.duration}), got {warmup}"
                )
        if policy.network is not network:
            if policy.network.num_links != network.num_links:
                raise ValueError("policy was compiled for a different network")
        self.network = network
        self.policy = policy
        self.traces = traces
        self.warmup = float(warmup)
        self._compile_policy()
        self._pack_traces()

    # ------------------------------------------------------------- compile

    def _compile_policy(self) -> None:
        """Intern every path of the policy's route table once; build the
        flat entry tables and the per-path bound table.
        """
        table = RouteTable(self.policy)
        num_links = self.network.num_links
        capacities = np.asarray(table.capacities, dtype=np.int64)
        od_pairs = self.traces[0].od_pairs

        paths: list[tuple[int, ...]] = []
        index: dict[tuple[int, ...], int] = {}

        def intern(path: tuple[int, ...]) -> int:
            pid = index.get(path)
            if pid is None:
                pid = len(paths)
                index[path] = pid
                paths.append(path)
            return pid

        # The empty tuple is the "infeasible path": its row starts with the
        # FULL sentinel, so it can never be admitted.  It is the primary of
        # disconnected pairs and the padding entry of short alternate lists.
        infeasible = intern(())
        entry_primary: list[int] = []
        entry_alts: list[tuple[int, ...]] = []
        entry_base = np.zeros(len(od_pairs), dtype=np.int64)
        cum_rows: list[np.ndarray | None] = []
        for pair, od in enumerate(od_pairs):
            chains, cum = table.choices(od)
            entry_base[pair] = len(entry_primary)
            if not chains:
                entry_primary.append(infeasible)
                entry_alts.append(())
            for primary, alternates in chains:
                entry_primary.append(intern(primary))
                entry_alts.append(tuple(intern(alt) for alt, __ in alternates))
            cum_rows.append(np.asarray(cum) if len(chains) > 1 else None)

        num_paths = len(paths)
        free, full = num_links, num_links + 1
        self._row_width = num_links + 2
        alt_width = max((len(path) for path in paths), default=1) or 1
        primary_pids = set(entry_primary)
        prim_width = (
            max((len(paths[pid]) for pid in primary_pids), default=1) or 1
        )

        # Row `num_paths` stays all-FREE: the gather/scatter target of path
        # id -1 (blocked calls), a no-op against the absorber cells.
        path_links = np.full((num_paths + 1, alt_width), free, dtype=np.int32)
        for pid, path in enumerate(paths):
            if path:
                path_links[pid, : len(path)] = path
            else:
                path_links[pid, 0] = full
        cap_row = np.concatenate([capacities, [int(_HUGE), 0]]).astype(np.int32)

        alt_max = max((len(alts) for alts in entry_alts), default=1) or 1
        entry_alt_pids = np.full(
            (len(entry_primary), alt_max), infeasible, dtype=np.int32
        )
        for entry, alts in enumerate(entry_alts):
            if alts:
                entry_alt_pids[entry, : len(alts)] = alts

        # Per-path alternate bounds: alternates read the row the table binds
        # them to; every other path (primary-only, infeasible, the
        # blocked-call row) keeps plain capacity.
        alternate_pids: dict[int, list[int]] = {}
        for pid in sorted({pid for alts in entry_alts for pid in alts}):
            alternate_pids.setdefault(table.key_of(paths[pid]), []).append(pid)
        path_thr = cap_row[path_links]
        for key, pids in alternate_pids.items():
            bounds = np.concatenate([table.rows[key], [int(_HUGE), 0]])
            path_thr[pids] = bounds.astype(np.int32)[path_links[pids]]
        self._free_link = free
        self._path_links = path_links
        self._path_thr = path_thr
        self._prim_links = path_links[:, :prim_width].copy()
        self._prim_cap = cap_row[self._prim_links]
        self._entry_primary = np.asarray(entry_primary, dtype=np.int32)
        self._entry_alts = entry_alt_pids
        self._entry_base = entry_base
        self._cum_rows = cum_rows
        self._alt_counts = np.array(
            [len(alts) for alts in entry_alts], dtype=np.int64
        )
        self._num_pairs = len(od_pairs)

    # ---------------------------------------------------------------- pack

    def _pack_traces(self) -> None:
        """Resolve choices and departure epochs; build the epoch-major arrays.

        Staging arrays are seed-major (contiguous per-seed writes) and
        transposed once at the end into the epoch-major layout the kernel
        walks.  Departures are ordered by epoch through one non-stable sort
        of ``epoch * stride + flat_call`` composite keys — within an epoch
        the release order is irrelevant (releases are summed by ``bincount``
        before any admission test), so stability is not needed and the
        composite sort is several times cheaper than a stable argsort.
        """
        traces = self.traces
        num_seeds = len(traces)
        num_epochs = max(trace.num_calls for trace in traces)
        stage = np.zeros((num_seeds, num_epochs), dtype=np.int32)
        dep_key_parts = []
        stride = num_epochs * num_seeds
        for s, trace in enumerate(traces):
            n = trace.num_calls
            # Route-choice resolution is state-independent (per-call uniform
            # against the pair's cumulative split), so it vectorizes up front.
            entries = self._entry_base[trace.od_index]
            for pair, cum in enumerate(self._cum_rows):
                if cum is None:
                    continue
                mask = trace.od_index == pair
                if mask.any():
                    u = trace.uniforms[mask]
                    entries[mask] += (u[:, None] >= cum[None, :-1]).sum(axis=1)
            stage[s, :n] = entries
            departure_t = trace.times + trace.holding_times
            call_ids = np.arange(n)
            epoch = np.maximum(
                np.searchsorted(trace.times, departure_t, side="left"),
                call_ids + 1,
            )
            keep = epoch < n  # departures after the last arrival never matter
            flat = call_ids[keep] * num_seeds + s  # epoch-major admit-slot id
            dep_key_parts.append(epoch[keep] * stride + flat)

        dep_key = np.sort(np.concatenate(dep_key_parts))
        dep_epoch = dep_key // stride
        counts = np.bincount(dep_epoch + 1, minlength=num_epochs + 1)
        self._dep_bounds = np.cumsum(counts).tolist()
        # Flat (epoch-major) index of each departing call's admit-slot, and
        # the departing seed's row offset into the flat occupancy array.
        self._dep_flat = dep_key % stride
        self._dep_off = (
            (self._dep_flat % num_seeds) * self._row_width
        ).astype(np.int32)
        call_entry = np.ascontiguousarray(stage.T)
        self._call_entry = call_entry
        self._num_epochs = num_epochs

        discipline = self.policy.discipline
        if discipline == "dar":
            stage[:] = 0
            for s, trace in enumerate(traces):
                n = trace.num_calls
                draws = self.policy.route_draws(trace)
                n_alts = self._alt_counts[call_entry[:n, s]]
                stage[s, :n] = (draws * n_alts).astype(np.int64)
            self._resample = np.ascontiguousarray(stage.T)
        elif discipline == "power-of-d":
            d = self.policy.d
            cand_stage = np.zeros((num_seeds, num_epochs, d), dtype=np.int32)
            for s, trace in enumerate(traces):
                n = trace.num_calls
                draws = self.policy.route_draws(trace)
                n_alts = self._alt_counts[call_entry[:n, s]]
                cand_stage[s, :n, :] = (draws * n_alts[:, None]).astype(np.int64)
            self._candidates = np.ascontiguousarray(
                cand_stage.transpose(1, 0, 2)
            )

    # -------------------------------------------------------------- kernel

    def run(self) -> list[SimulationResult]:
        """Advance all seeds through every epoch; return per-seed results."""
        num_seeds = len(self.traces)
        row_width = self._row_width
        flat_size = num_seeds * row_width
        occ = np.zeros(flat_size, dtype=np.int32)
        admit_pid = np.full((self._num_epochs, num_seeds), -1, dtype=np.int32)
        admit_flat = admit_pid.reshape(-1)
        off_col = np.arange(num_seeds, dtype=np.int32) * row_width

        discipline = self.policy.discipline
        path_links = self._path_links
        path_thr = self._path_thr  # (paths + 1, width)
        prim_links = self._prim_links
        prim_cap = self._prim_cap
        entry_primary = self._entry_primary
        entry_alts = self._entry_alts
        free_link = self._free_link
        dep_flat, dep_off = self._dep_flat, self._dep_off
        bounds = self._dep_bounds
        call_entry = self._call_entry
        if discipline == "dar":
            sticky = np.zeros((num_seeds, entry_primary.size), dtype=np.int32)
            resample = self._resample
        elif discipline == "power-of-d":
            candidates = self._candidates

        for k0 in range(0, self._num_epochs, _CHUNK):
            k1 = min(k0 + _CHUNK, self._num_epochs)
            # Chunked gathers keep the per-epoch tables contiguous without
            # materializing (num_epochs, seeds, width) arrays all at once.
            ent_c = call_entry[k0:k1]
            prim_pid_c = entry_primary[ent_c]
            prim_rows_c = prim_links[prim_pid_c] + off_col[None, :, None]
            prim_cap_c = prim_cap[prim_pid_c]
            for k in range(k0, k1):
                kk = k - k0
                a, b = bounds[k], bounds[k + 1]
                if a != b:
                    released = path_links[admit_flat[dep_flat[a:b]]]
                    occ -= np.bincount(
                        (released + dep_off[a:b, None]).ravel(),
                        minlength=flat_size,
                    )
                rows = prim_rows_c[kk]
                ok = (occ[rows] < prim_cap_c[kk]).all(axis=1)
                pid_col = prim_pid_c[kk]
                if ok.all():
                    occ += np.bincount(rows.ravel(), minlength=flat_size)
                    admit_pid[k] = pid_col
                    continue
                failed = np.flatnonzero(~ok)
                ent_f = ent_c[kk, failed]
                off_f = off_col[failed]
                if discipline in ("threshold", "length-threshold"):
                    alts = entry_alts[ent_f]
                    cand_rows = path_links[alts] + off_f[:, None, None]
                    feas = (occ[cand_rows] < path_thr[alts]).all(axis=2)
                    first = feas.argmax(axis=1)
                    picked = np.arange(failed.size), first
                    apid = np.where(feas[picked], alts[picked], np.int32(-1))
                    alt_rows = path_links[apid] + off_f[:, None]
                elif discipline == "dar":
                    idx = sticky[failed, ent_f]
                    apid = entry_alts[ent_f, idx]
                    alt_rows = path_links[apid] + off_f[:, None]
                    feas = (occ[alt_rows] < path_thr[apid]).all(axis=1)
                    bad = np.flatnonzero(~feas)
                    if bad.size:
                        sticky[failed[bad], ent_f[bad]] = resample[k, failed[bad]]
                        apid[bad] = -1
                        alt_rows[bad] = free_link
                else:  # power-of-d
                    picks = candidates[k, failed]
                    apidc = entry_alts[ent_f[:, None], picks]
                    cand_rows = path_links[apidc] + off_f[:, None, None]
                    score = (path_thr[apidc] - occ[cand_rows]).min(axis=2)
                    best = np.arange(failed.size), score.argmax(axis=1)
                    apid = np.where(score[best] >= 1, apidc[best], np.int32(-1))
                    alt_rows = path_links[apid] + off_f[:, None]
                pid_col = pid_col.copy()
                pid_col[failed] = apid
                admitted = rows.copy()
                admitted[failed] = free_link
                occ += np.bincount(
                    np.concatenate([admitted.ravel(), alt_rows.ravel()]),
                    minlength=flat_size,
                )
                admit_pid[k] = pid_col
        return self._results(admit_pid)

    # --------------------------------------------------------------- stats

    def _results(self, admit_pid: np.ndarray) -> list[SimulationResult]:
        """Per-seed statistics from the admit log, matching the scalar loops."""
        results = []
        num_pairs = self._num_pairs
        for s, trace in enumerate(self.traces):
            n = trace.num_calls
            pid = admit_pid[:n, s]
            primary = self._entry_primary[self._call_entry[:n, s]]
            warm = int(np.searchsorted(trace.times, self.warmup, side="left"))
            pid_m = pid[warm:]
            blocked_mask = pid_m < 0
            od_measured = trace.od_index[warm:]
            offered = np.bincount(od_measured, minlength=num_pairs)
            blocked = np.bincount(od_measured[blocked_mask], minlength=num_pairs)
            on_primary = (pid_m == primary[warm:]) & ~blocked_mask
            primary_carried = int(on_primary.sum())
            alternate_carried = int((~blocked_mask).sum()) - primary_carried
            num_classes = len(trace.class_names)
            results.append(
                SimulationResult(
                    od_pairs=trace.od_pairs,
                    offered=offered.astype(np.int64),
                    blocked=blocked.astype(np.int64),
                    primary_carried=primary_carried,
                    alternate_carried=alternate_carried,
                    warmup=self.warmup,
                    duration=trace.duration,
                    seed=trace.seed,
                    class_names=trace.class_names,
                    class_offered=np.zeros(num_classes, dtype=np.int64),
                    class_blocked=np.zeros(num_classes, dtype=np.int64),
                    dropped=None,
                )
            )
        return results


def simulate_batch(
    network: Network,
    policy: RoutingPolicy,
    traces: Sequence[ArrivalTrace],
    warmup: float = 10.0,
) -> list[SimulationResult]:
    """Convenience wrapper: one :class:`BatchSimulator` pass over ``traces``.

    Raises :class:`ValueError` (naming the :func:`batch_ineligibility` reason)
    when the configuration needs a per-seed loop instead.
    """
    return BatchSimulator(network, policy, traces, warmup).run()
