"""Call-by-call loss-network simulation.

Replays a pre-generated :class:`~repro.sim.trace.ArrivalTrace` under a
compiled :class:`~repro.routing.base.RoutingPolicy`.  The model is the
paper's: each call requests one unit of bandwidth on every link of one path;
links are loss systems (no queueing, no retries beyond the policy's path
list); holding times came with the trace.  Every policy sees the identical
arrival sample — the paper's common-random-numbers methodology.

Admission semantics:

* a **primary** attempt succeeds iff every link on the primary path has a
  free circuit;
* under the *threshold* discipline, an **alternate** attempt succeeds iff
  every link's occupancy is strictly below the policy's per-link alternate
  threshold (``C`` for uncontrolled routing, ``C - r`` with state
  protection); alternates are tried in increasing hop length and the call is
  lost if all fail;
* under the *shadow* discipline (Ott-Krishnan) all candidate paths are
  priced by the policy's per-link tables at current occupancies and the call
  takes the cheapest path iff that price does not exceed the call revenue.

The simulator is deliberately a tight, allocation-light loop: occupancies
live in a plain list, departures in a heap of
``(time, path, width, pair, measured)`` entries.

Two loops implement the semantics.  The *general* loop handles every
feature (faults, binned timelines, multi-class traces, bandwidths, link
statistics, all disciplines) and doubles as the reference implementation.
The *fast* loop specializes the common benchmark/replication shape —
either threshold form, unit bandwidth, no faults, no timeline — with
admission inlined into the call loop and the trace consumed through a
single ``zip``.  Both loops read their per-pair chains from the policy's
:class:`~repro.routing.table.RouteTable` and execute the identical admission
decisions in the identical order, so every counter in the result
(blocking, carried splits, drops) is bit-identical for a fixed seed;
``run(backend="reference")`` forces the general loop (the equivalence tests
and perf benchmarks compare the two).

Dynamic faults (beyond the paper's static Section-4.2.2 scenarios): a
:class:`~repro.sim.faultplane.FaultTimeline` makes links fail and recover
*mid-run*.  When a link goes down, calls holding circuits on it are severed
(counted in ``SimulationResult.dropped``, distinct from blocked) and the
link admits nothing; when it comes back up it admits calls immediately.
Routing state, however, reconverges only after ``reconvergence_delay``: the
stale policy keeps routing until a ``rebuild_policy`` callback re-derives
path tables, primary loads and protection levels against the changed
topology — the regime where Theorem 1's guarantee is computed against the
wrong topology, which is exactly what the dynamic-failure experiments
measure.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from ..routing.base import RoutingPolicy
from ..routing.table import FIRST_FEASIBLE, RouteTable, pick
from ..topology.graph import Network
from .faultplane import FaultEvent, FaultStats, FaultTimeline
from .metrics import BinnedSeries, SimulationResult
from .trace import ArrivalTrace

__all__ = ["LossNetworkSimulator", "simulate"]

_REVENUE_EPS = 1e-12
_INFINITY = float("inf")
#: Stand-in uniform column for traces whose pairs are all deterministic —
#: the fast loop's zip never consumes a real variate then.
_ZEROS = repeat(0.0)


class LossNetworkSimulator:
    """One network + one policy + one trace -> one :class:`SimulationResult`.

    ``warmup`` truncates measurement: calls arriving before it still occupy
    circuits (warming the state up from the idle network, as the paper does
    with its 10 time units) but are not counted.

    ``faults`` enables mid-run link failures/repairs; ``rebuild_policy``
    (optional) is called with the failure-adjusted network after each
    topology change, ``reconvergence_delay`` time units late, and must
    return a fresh policy of the same discipline family.  Without it the
    stale policy routes for the whole run (links down still admit nothing).
    ``timeline_bin`` collects a :class:`~repro.sim.metrics.BinnedSeries` of
    per-bin offered/blocked/dropped counts on :attr:`binned_series`.
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        trace: ArrivalTrace,
        warmup: float = 10.0,
        collect_link_stats: bool = False,
        initial_occupancy: np.ndarray | None = None,
        faults: FaultTimeline | Sequence[FaultEvent] | None = None,
        reconvergence_delay: float = 0.0,
        rebuild_policy: Callable[[Network], RoutingPolicy] | None = None,
        timeline_bin: float | None = None,
    ):
        if warmup < 0 or warmup >= trace.duration:
            raise ValueError(
                f"warmup must lie in [0, duration={trace.duration}), got {warmup}"
            )
        if policy.network is not network:
            # A copy with identical structure is fine; object identity is not
            # required, but link counts must agree.
            if policy.network.num_links != network.num_links:
                raise ValueError("policy was compiled for a different network")
        if reconvergence_delay < 0:
            raise ValueError("reconvergence_delay must be non-negative")
        if timeline_bin is not None and timeline_bin <= 0:
            raise ValueError("timeline_bin must be positive")
        self.network = network
        self.policy = policy
        self.trace = trace
        self.warmup = float(warmup)
        self.collect_link_stats = collect_link_stats
        if faults is None:
            self.faults: FaultTimeline | None = None
        elif isinstance(faults, FaultTimeline):
            self.faults = faults if faults else None
        else:
            self.faults = FaultTimeline(tuple(faults)) or None
        self.reconvergence_delay = float(reconvergence_delay)
        self.rebuild_policy = rebuild_policy
        self.timeline_bin = timeline_bin
        #: Fault-plane counters, filled by :meth:`run` when faults are set.
        self.fault_stats: FaultStats | None = None
        #: Per-bin offered/blocked/dropped, filled when ``timeline_bin`` set.
        self.binned_series: BinnedSeries | None = None
        #: Time-averaged occupancy per link over the measured window, filled
        #: by :meth:`run` when ``collect_link_stats`` is set (else None).
        self.mean_link_occupancy: np.ndarray | None = None
        # Warm start: pre-existing calls at t = 0, one synthetic single-link
        # call per occupied circuit, with fresh exp(1) remaining holding
        # times (memorylessness makes that the exact stationary view).  Used
        # by the hysteresis experiments to start in a congested state.
        if initial_occupancy is not None:
            occupancy0 = np.asarray(initial_occupancy, dtype=np.int64)
            if occupancy0.shape != (network.num_links,):
                raise ValueError("initial_occupancy must be per-link")
            capacities = network.capacities()
            if (occupancy0 < 0).any() or (occupancy0 > capacities).any():
                raise ValueError("initial occupancy must lie in [0, capacity]")
            self.initial_occupancy: np.ndarray | None = occupancy0
        else:
            self.initial_occupancy = None

    def run(self, backend: str = "auto") -> SimulationResult:
        """Run the simulation under the requested ``backend``.

        ``backend="auto"`` (the default) and ``"fast"`` run the fast loop
        when its specialization fits and the general loop otherwise;
        ``"reference"`` forces the general event loop.  Both loops make the
        identical admission decisions in the identical order, so the returned
        statistics are bit-identical regardless of backend.
        """
        if backend == "reference":
            return self._run_general()
        if self._fast_eligible():
            return self._run_fast()
        return self._run_general()

    def _fast_eligible(self) -> bool:
        trace = self.trace
        return (
            self.faults is None
            and self.timeline_bin is None
            and not self.collect_link_stats
            and trace.bandwidths is None
            and trace.class_index is None
            and self.policy.discipline in FIRST_FEASIBLE
        )

    def _run_fast(
        self, schedule: Sequence[tuple[int, RouteTable]] | None = None
    ) -> SimulationResult:
        """Specialized hot loop; see :meth:`run` for the eligibility rules.

        The trace is consumed in phases split at the warmup boundary
        (arrival times are non-decreasing), so the measured loop carries no
        per-call warmup test and the warmup loop no counters; ``offered`` is
        a single ``bincount`` over the measured arrivals.

        ``schedule`` is a list of ``(first call, RouteTable)`` segments, the
        first starting at call 0: each table admits from its first call up
        to the next segment's, and the phases split at every segment start
        too.  Without it the policy's own table admits every call.  The
        adaptive simulator passes its refresh trajectory here.

        There is no departure heap.  Every candidate departure time is known
        up front (``times + holding_times``), so one stable argsort yields
        the global release order; the loop walks a pointer over it and
        releases each admitted call's path from a per-call slot.  Blocked
        calls leave their slot empty and are skipped.  A call whose slot is
        still unwritten because its *arrival* has not been processed yet
        (possible only when a holding time is exactly zero) stops the walk —
        the stable sort orders equal departure times by call index, so every
        already-admitted release at that timestamp has been handled by then,
        which keeps occupancy, and with it every admission decision,
        bit-identical to the reference heap.
        """
        trace = self.trace
        num_links = self.network.num_links
        capacities = self.network.capacities().tolist()
        num_pairs = len(trace.od_pairs)
        num_calls = len(trace.times)
        warmup = self.warmup

        occupancy = [0] * num_links
        dep_times = trace.times + trace.holding_times
        admitted: list[tuple[int, ...] | None] = [None] * num_calls
        if self.initial_occupancy is not None:
            from .rng import substream

            warm_rng = substream(trace.seed, "warm-start")
            warm_times = []
            for link_index, count in enumerate(self.initial_occupancy):
                for __ in range(int(count)):
                    occupancy[link_index] += 1
                    warm_times.append(float(warm_rng.exponential(1.0)))
                    admitted.append((link_index,))
            dep_times = np.concatenate([dep_times, np.asarray(warm_times)])
        order = np.argsort(dep_times, kind="stable")
        dep_sorted = dep_times[order].tolist()
        dep_index = order.tolist()
        total_deps = len(dep_index)
        blocked = [0] * num_pairs
        primary_carried = 0
        alternate_carried = 0

        if schedule is None:
            schedule = [(0, RouteTable(self.policy))]
        starts = [first for first, __ in schedule]
        lookups = [table.by_pair(trace.od_pairs) for __, table in schedule]
        has_multi = any(
            entry is not None for __, multi in lookups for entry in multi
        )

        warm_count = int(np.searchsorted(trace.times, warmup, side="left"))
        times = trace.times.tolist()
        od_index = trace.od_index.tolist()
        holding = trace.holding_times.tolist()
        uniforms = trace.uniforms.tolist() if has_multi else None

        ptr = 0
        call_i = 0
        cuts = sorted({warm_count, *starts})
        for start, stop in zip(cuts, cuts[1:] + [num_calls]):
            section = slice(start, stop)
            counted = start >= warm_count
            single_entry, multi = lookups[bisect_right(starts, start) - 1]
            if has_multi:
                rows = zip(
                    times[section], od_index[section],
                    holding[section], uniforms[section],
                )
            else:
                rows = zip(
                    times[section], od_index[section],
                    holding[section], _ZEROS,
                )
            for now, pair, hold, u in rows:
                while ptr < total_deps and dep_sorted[ptr] <= now:
                    j = dep_index[ptr]
                    if call_i <= j < num_calls:
                        break  # that call's arrival is still ahead of us
                    path = admitted[j]
                    ptr += 1
                    if path is not None:
                        for link in path:
                            occupancy[link] -= 1
                entry = single_entry[pair]
                if entry is None:
                    options = multi[pair]
                    if options is None:
                        # Disconnected pair: the call is necessarily lost.
                        if counted:
                            blocked[pair] += 1
                        call_i += 1
                        continue
                    entry = pick(options, u)
                primary, alternates = entry
                for link in primary:
                    if occupancy[link] >= capacities[link]:
                        break
                else:
                    for link in primary:
                        occupancy[link] += 1
                    admitted[call_i] = primary
                    call_i += 1
                    if counted:
                        primary_carried += 1
                    continue
                path = None
                for alt, bounds in alternates:
                    for link in alt:
                        if occupancy[link] >= bounds[link]:
                            break
                    else:
                        path = alt
                        break
                if path is None:
                    if counted:
                        blocked[pair] += 1
                    call_i += 1
                    continue
                for link in path:
                    occupancy[link] += 1
                admitted[call_i] = path
                call_i += 1
                if counted:
                    alternate_carried += 1

        offered = np.bincount(
            trace.od_index[warm_count:], minlength=num_pairs
        ).astype(np.int64)
        num_classes = len(trace.class_names)
        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=offered,
            blocked=np.asarray(blocked, dtype=np.int64),
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=warmup,
            duration=trace.duration,
            seed=trace.seed,
            class_names=trace.class_names,
            class_offered=np.zeros(num_classes, dtype=np.int64),
            class_blocked=np.zeros(num_classes, dtype=np.int64),
            dropped=None,
        )

    def _run_general(self) -> SimulationResult:
        trace = self.trace
        num_links = self.network.num_links
        capacities = self.network.capacities().tolist()
        num_pairs = len(trace.od_pairs)

        times = trace.times.tolist()
        od_index = trace.od_index.tolist()
        holding = trace.holding_times.tolist()
        uniforms = trace.uniforms.tolist()
        warmup = self.warmup
        bandwidths = (
            trace.bandwidths.tolist() if trace.bandwidths is not None else None
        )
        class_index = (
            trace.class_index.tolist() if trace.class_index is not None else None
        )
        num_classes = len(trace.class_names)
        class_offered = [0] * num_classes
        class_blocked = [0] * num_classes

        occupancy = [0] * num_links
        departures: list[tuple[float, tuple[int, ...], int, int, int]] = []
        if self.initial_occupancy is not None:
            from .rng import substream

            warm_rng = substream(trace.seed, "warm-start")
            for link_index, count in enumerate(self.initial_occupancy):
                for __ in range(int(count)):
                    occupancy[link_index] += 1
                    departures.append(
                        (float(warm_rng.exponential(1.0)), (link_index,), 1, -1, 0)
                    )
            heapq.heapify(departures)
        offered = [0] * num_pairs
        blocked = [0] * num_pairs
        dropped = [0] * num_pairs
        primary_carried = 0
        alternate_carried = 0

        single_choice, multi, run_call, threshold_lists, pristine_thresholds = (
            self._compile(self.policy, capacities, occupancy)
        )

        collect = self.collect_link_stats
        if collect:
            occupancy_integral = [0.0] * num_links
            last_change = [warmup] * num_links

            def note_change(link: int, now_: float) -> None:
                since = last_change[link]
                if now_ > warmup:
                    start = since if since > warmup else warmup
                    occupancy_integral[link] += occupancy[link] * (now_ - start)
                last_change[link] = now_
        else:
            note_change = None

        # ------------------------------------------------------ fault plane
        bin_width = self.timeline_bin
        if bin_width is not None:
            num_bins = max(1, int(np.ceil(trace.duration / bin_width)))
            bin_offered = [0] * num_bins
            bin_blocked = [0] * num_bins
            bin_dropped = [0] * num_bins

        fault_events = self.faults.resolve(self.network) if self.faults else []
        dynamic = bool(fault_events)
        if dynamic:
            stats = FaultStats()
            raw_capacities = [link.capacity for link in self.network.links]
            down = [self.network.is_failed(i) for i in range(num_links)]
            topo = self.network.copy()
            pending_rebuilds: list[float] = []
            fault_cursor = 0
            topo_version = 0
            rebuilt_version = 0
            self.fault_stats = stats

        heap_push = heapq.heappush
        heap_pop = heapq.heappop

        def release_departure(entry) -> None:
            departure_time, path, width, __, ___ = entry
            for link in path:
                if collect:
                    note_change(link, departure_time)
                occupancy[link] -= width

        def apply_fault_event(event_time, links, up) -> None:
            nonlocal topo_version
            newly_down = []
            for link in links:
                if down[link] == (not up):
                    continue  # no-op transition, e.g. failing a failed link
                down[link] = not up
                topo.set_link_state(link, up)
                topo_version += 1
                if up:
                    capacities[link] = raw_capacities[link]
                    for lst, pristine in zip(threshold_lists, pristine_thresholds):
                        lst[link] = pristine[link]
                else:
                    capacities[link] = 0
                    for lst in threshold_lists:
                        lst[link] = 0
                    newly_down.append(link)
            stats.events_applied += 1
            if newly_down:
                downset = set(newly_down)
                kept = []
                for entry in departures:
                    if downset.intersection(entry[1]):
                        release_departure(
                            (event_time, entry[1], entry[2], entry[3], entry[4])
                        )
                        stats.calls_dropped += 1
                        if entry[3] >= 0 and entry[4]:
                            dropped[entry[3]] += 1
                            if bin_width is not None:
                                bin_dropped[
                                    min(num_bins - 1, int(event_time / bin_width))
                                ] += 1
                    else:
                        kept.append(entry)
                departures[:] = kept
                heapq.heapify(departures)
            if self.rebuild_policy is not None:
                heap_push(pending_rebuilds, event_time + self.reconvergence_delay)

        def reconverge(now_: float) -> None:
            nonlocal single_choice, multi, run_call
            nonlocal threshold_lists, pristine_thresholds, rebuilt_version
            if rebuilt_version == topo_version:
                stats.reconvergences.append(now_)
                return  # topology unchanged since the last rebuild
            new_policy = self.rebuild_policy(topo)
            single_choice, multi, run_call, threshold_lists, pristine_thresholds = (
                self._compile(new_policy, capacities, occupancy)
            )
            # The fresh tables assume the current topology; re-impose the
            # admission overlay for links that are (still) down.
            for link in range(num_links):
                if down[link]:
                    capacities[link] = 0
                    for lst in threshold_lists:
                        lst[link] = 0
            rebuilt_version = topo_version
            stats.reconvergences.append(now_)

        def advance_to(now_: float) -> None:
            """Process departures, fault events and rebuilds up to ``now_``.

            Departures win ties (a call completing exactly at a failure
            instant completes), then fault events, then reconvergences — so
            a zero-delay rebuild still sees its own fault applied first.
            """
            nonlocal fault_cursor
            while True:
                next_dep = departures[0][0] if departures else _INFINITY
                if dynamic:
                    next_fault = (
                        fault_events[fault_cursor][0]
                        if fault_cursor < len(fault_events)
                        else _INFINITY
                    )
                    next_rebuild = (
                        pending_rebuilds[0] if pending_rebuilds else _INFINITY
                    )
                else:
                    next_fault = next_rebuild = _INFINITY
                upcoming = min(next_dep, next_fault, next_rebuild)
                if upcoming > now_:
                    break
                if next_dep <= next_fault and next_dep <= next_rebuild:
                    release_departure(heap_pop(departures))
                elif next_fault <= next_rebuild:
                    __, links, up = fault_events[fault_cursor]
                    fault_cursor += 1
                    apply_fault_event(next_fault, links, up)
                else:
                    heap_pop(pending_rebuilds)
                    reconverge(next_rebuild)

        simple = not dynamic and bin_width is None
        for call in range(len(times)):
            now = times[call]
            if simple:
                while departures and departures[0][0] <= now:
                    release_departure(heap_pop(departures))
            else:
                advance_to(now)
            pair = od_index[call]
            width = 1 if bandwidths is None else bandwidths[call]
            measured = now >= warmup
            if measured:
                offered[pair] += 1
                if class_index is not None:
                    class_offered[class_index[call]] += 1
                if bin_width is not None:
                    bin_offered[min(num_bins - 1, int(now / bin_width))] += 1
            chain = single_choice[pair]
            if chain is None:
                options = multi[pair]
                if options is None:
                    # Disconnected pair: the call is necessarily lost.
                    if measured:
                        blocked[pair] += 1
                        if class_index is not None:
                            class_blocked[class_index[call]] += 1
                        if bin_width is not None:
                            bin_blocked[min(num_bins - 1, int(now / bin_width))] += 1
                    continue
                chain = pick(options, uniforms[call])
            path, used_alternate = run_call(chain, width, pair, call)
            if path is None:
                if measured:
                    blocked[pair] += 1
                    if class_index is not None:
                        class_blocked[class_index[call]] += 1
                    if bin_width is not None:
                        bin_blocked[min(num_bins - 1, int(now / bin_width))] += 1
                continue
            for link in path:
                if collect:
                    note_change(link, now)
                occupancy[link] += width
            heap_push(
                departures,
                (now + holding[call], path, width, pair, 1 if measured else 0),
            )
            if measured:
                if used_alternate:
                    alternate_carried += 1
                else:
                    primary_carried += 1

        horizon = trace.duration
        if dynamic or bin_width is not None:
            # Fault events between the last arrival and the horizon still
            # count (drops after the final call must be recorded).
            advance_to(horizon)
        if collect:
            while departures and departures[0][0] <= horizon:
                release_departure(heap_pop(departures))
            window = horizon - warmup
            for link in range(num_links):
                note_change(link, horizon)
            self.mean_link_occupancy = (
                np.asarray(occupancy_integral) / window if window > 0 else None
            )

        if bin_width is not None:
            self.binned_series = BinnedSeries(
                bin_width=float(bin_width),
                offered=np.asarray(bin_offered, dtype=np.int64),
                blocked=np.asarray(bin_blocked, dtype=np.int64),
                dropped=np.asarray(bin_dropped, dtype=np.int64),
            )

        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=np.asarray(offered, dtype=np.int64),
            blocked=np.asarray(blocked, dtype=np.int64),
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=warmup,
            duration=trace.duration,
            seed=trace.seed,
            class_names=trace.class_names,
            class_offered=np.asarray(class_offered, dtype=np.int64),
            class_blocked=np.asarray(class_blocked, dtype=np.int64),
            dropped=np.asarray(dropped, dtype=np.int64) if dynamic else None,
        )

    # ----------------------------------------------------- policy compilation

    def _compile(self, policy: RoutingPolicy, capacities, occupancy):
        """Compile one policy into the per-call lookups and admission closure.

        Returns ``(single_choice, multi, run_call, threshold_lists,
        pristine_thresholds)``: the route table's pair-indexed chains (see
        :meth:`~repro.routing.table.RouteTable.by_pair`), the admission
        closure ``run_call(chain, width, pair, call)`` — ``pair``/``call``
        are the O-D index and the absolute call number, read only by the
        stateful random-alternate selectors — and the per-run bound rows
        the chains test against, with their untouched copies; the fault
        plane zeroes entries of down links and restores them from the
        pristine copy on repair.  Called again after each reconvergence, so
        everything policy-derived is rebuilt here.
        """
        make_step = _ADMISSION.get(policy.discipline)
        if make_step is None:
            raise ValueError(f"unknown routing discipline {policy.discipline!r}")
        table, rows = RouteTable(policy).writable()
        single_choice, multi = table.by_pair(self.trace.od_pairs)
        run_call = make_step(self, policy, capacities, occupancy)
        return single_choice, multi, run_call, rows, [list(row) for row in rows]

    # ------------------------------------------------------------- admission
    #
    # Every discipline but shadow admits the primary first (see
    # :func:`_primary_first`) and differs only in its alternate selector
    # ``select(alternates, width, pair, call)``, which returns the chosen
    # alternate or None.  ``alternates`` are the chain's ``(links, bounds)``
    # pairs, each tested against its own bound row, so one selector serves
    # both threshold forms.

    def _first_feasible(self, policy, capacities, occupancy):
        """The paper's rule: the first alternate within its bounds."""

        def select(alternates, width, pair, call):
            for alt, bounds in alternates:
                for link in alt:
                    if occupancy[link] + width > bounds[link]:
                        break
                else:
                    return alt
            return None

        return _primary_first(select, capacities, occupancy)

    def _least_busy(self, policy, capacities, occupancy):
        """Least-busy alternate: the largest bottleneck headroom wins.

        Among the alternates whose every link admits the call within its
        bound, pick the one with the largest minimum of
        ``bound - occupancy - width``; the candidate order (shortest first)
        breaks ties, matching LBA's preference for short alternates.
        """

        def select(alternates, width, pair, call):
            best_path = None
            best_headroom = -1
            for alt, bounds in alternates:
                headroom = None
                for link in alt:
                    free = bounds[link] - occupancy[link] - width
                    if free < 0:
                        headroom = None
                        break
                    if headroom is None or free < headroom:
                        headroom = free
                if headroom is not None and headroom > best_headroom:
                    best_headroom = headroom
                    best_path = alt
            return best_path

        return _primary_first(select, capacities, occupancy)

    def _dar(self, policy, capacities, occupancy):
        """DAR: one sticky random alternate per pair, resampled on failure.

        Each pair remembers one sticky alternate index (initially the
        shortest alternate).  A primary-blocked call tries only the sticky
        alternate; if that is infeasible the call is lost and the pair
        resamples its sticky index from the call's positional draw in
        ``policy.route_draws(trace)`` — draw ``j`` belongs to call ``j``
        whether or not earlier calls consumed theirs, so a call's draw does
        not depend on which earlier calls were blocked.  Sticky state resets
        on fault-plane reconvergence (the closure is rebuilt).
        """
        draws = policy.route_draws(self.trace)
        sticky = [0] * len(self.trace.od_pairs)

        def select(alternates, width, pair, call):
            n_alts = len(alternates)
            if n_alts == 0:
                return None
            alt, bounds = alternates[sticky[pair]]
            for link in alt:
                if occupancy[link] + width > bounds[link]:
                    sticky[pair] = int(draws[call] * n_alts)
                    return None
            return alt

        return _primary_first(select, capacities, occupancy)

    def _power_of_d(self, policy, capacities, occupancy):
        """Power-of-d: the best of ``d`` randomly drawn alternates.

        A primary-blocked call samples ``d`` alternates (with replacement)
        from its positional draw row and takes the first one attaining the
        best bottleneck score ``min(bound - occupancy)``; it is admitted
        iff that score covers the call's width.
        """
        draws = policy.route_draws(self.trace)

        def select(alternates, width, pair, call):
            n_alts = len(alternates)
            if n_alts == 0:
                return None
            best_alt = None
            best_score = None
            for u in draws[call]:
                alt, bounds = alternates[int(u * n_alts)]
                score = min(bounds[link] - occupancy[link] for link in alt)
                if best_score is None or score > best_score:
                    best_score = score
                    best_alt = alt
            return best_alt if best_score >= width else None

        return _primary_first(select, capacities, occupancy)

    def _shadow(self, policy, capacities, occupancy):
        """Shadow prices: the cheapest candidate path within the revenue.

        Prices are per unit of bandwidth: a ``width``-unit call at link
        occupancy ``s`` is charged the sum of the unit prices at states
        ``s, s+1, ..., s+width-1`` (the unit-decomposition view).
        """
        tables = policy.price_tables
        if tables is None:
            raise ValueError(f"policy {policy.name!r} lacks price tables")
        revenue = getattr(policy, "revenue", 1.0) + _REVENUE_EPS

        def step(chain, width, pair, call):
            primary, alternates = chain
            best_path = None
            best_price = revenue
            best_is_alternate = False
            candidates = (primary,) + tuple(alt for alt, __ in alternates)
            for position, path in enumerate(candidates):
                price = 0.0
                feasible = True
                for link in path:
                    state = occupancy[link]
                    if state + width > capacities[link]:
                        feasible = False
                        break
                    table = tables[link]
                    for unit in range(width):
                        price += table[state + unit]
                    if price >= best_price:
                        feasible = False
                        break
                if feasible and price < best_price:
                    best_price = price
                    best_path = path
                    best_is_alternate = position > 0
            return best_path, best_is_alternate

        return step


#: Admission-closure builder per routing discipline.
_ADMISSION = {
    "threshold": LossNetworkSimulator._first_feasible,
    "length-threshold": LossNetworkSimulator._first_feasible,
    "least-busy": LossNetworkSimulator._least_busy,
    "dar": LossNetworkSimulator._dar,
    "power-of-d": LossNetworkSimulator._power_of_d,
    "shadow": LossNetworkSimulator._shadow,
}


def _primary_first(select, capacities, occupancy):
    """Admission closure: the primary if every link has ``width`` free
    units, else whatever alternate ``select`` picks."""

    def step(chain, width, pair, call):
        primary, alternates = chain
        for link in primary:
            if occupancy[link] + width > capacities[link]:
                break
        else:
            return primary, False
        alt = select(alternates, width, pair, call)
        return (alt, True) if alt is not None else (None, False)

    return step


def simulate(
    network: Network,
    policy: RoutingPolicy,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    collect_link_stats: bool = False,
    initial_occupancy: np.ndarray | None = None,
    faults: FaultTimeline | Sequence[FaultEvent] | None = None,
    reconvergence_delay: float = 0.0,
    rebuild_policy: Callable[[Network], RoutingPolicy] | None = None,
    timeline_bin: float | None = None,
    backend: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build and run a :class:`LossNetworkSimulator`.

    Every constructor knob is plumbed through, so link statistics, warm
    starts and the dynamic fault plane are all reachable without touching
    the class directly.  ``backend`` selects the engine (``"auto"`` /
    ``"fast"`` / ``"reference"``, see :meth:`LossNetworkSimulator.run`).
    """
    from .._compat import resolve_backend

    resolved = resolve_backend(backend)
    return LossNetworkSimulator(
        network,
        policy,
        trace,
        warmup,
        collect_link_stats=collect_link_stats,
        initial_occupancy=initial_occupancy,
        faults=faults,
        reconvergence_delay=reconvergence_delay,
        rebuild_policy=rebuild_policy,
        timeline_bin=timeline_bin,
    ).run(backend=resolved)
