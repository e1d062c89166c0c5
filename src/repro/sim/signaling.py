"""Packet-level call-setup signaling (Section 1's protocol, message by message).

The paper describes its set-up mechanics concretely: "A call set-up packet
containing the origin and destination node addresses, the flow-rate desired,
and a primary call flag which is set, zips along the primary path checking
to see whether sufficient resources exist on each link of the primary path.
If they do, resources are booked on its way back, and the call commences.
If resources are not available on the primary path, alternate paths are
successively attempted by call set-ups (whose primary path flags are
reset)."

The flow-level simulator (:mod:`repro.sim.simulator`) abstracts this into an
instantaneous atomic admission decision.  This module implements the actual
distributed protocol over the event queue, with per-link propagation delay:

* **SETUP** travels forward, *checking* (not reserving) each link's
  admission rule — capacity for primary-flagged set-ups, the state-
  protection threshold for alternates;
* on a failed check the set-up **cranks back**: a failure notice returns to
  the origin, which tries the next route in its list;
* at the destination a **CONFIRM** retraces the route, *booking* one
  circuit per link on the way back; because checking and booking are
  separated by propagation time, a booking can find the circuit gone — a
  **race abort** — which releases the partial bookings and cranks back;
* the origin starts the call when the CONFIRM arrives and, at the end of
  the holding time, sends a **TEARDOWN** forward that releases each link.

On top of the paper's protocol this module models an *unreliable* signaling
plane and the defenses a deployment needs against it:

* every SETUP/CONFIRM/crankback/release transmission is lost independently
  with ``message_loss_probability`` (TEARDOWN is assumed link-layer-reliable,
  else completed calls would leak circuits forever);
* the origin arms a **setup timeout** per attempt, retrying the route up to
  ``max_retries`` times with exponential backoff before cranking to the
  next route;
* a **crankback budget** bounds the total reroute events (crankbacks, race
  aborts, retry exhaustions) a single call may consume;
* links start a **reservation hold-timer** per booking, releasing orphaned
  partial bookings whose CONFIRM or release message was lost — so a lost
  CONFIRM cannot leak circuits forever;
* a fault timeline (:mod:`repro.sim.faultplane`) may fail links mid-run:
  established calls crossing a failed link are severed (counted ``dropped``)
  and the link admits nothing until repaired.  The policy is *not* rebuilt —
  the signaling simulator studies the stale-policy regime.

With zero propagation delay, zero loss and no timers the protocol collapses
to the flow simulator's atomic decisions — the test suite asserts pathwise
equivalence, including under mid-run link failures — and with positive delay
or loss it measures what the abstraction hides: set-up latency, race aborts,
retry storms and orphaned reservations.  (Per the paper's footnote 2,
signaling bandwidth itself is assumed reserved and is not modelled.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..routing.base import RoutingPolicy
from ..routing.table import RouteTable, pick
from ..topology.graph import Network
from .engine import EventQueue
from .faultplane import FaultEvent, FaultTimeline
from .metrics import SimulationResult
from .rng import substream
from .sigpolicy import CrankbackPolicy, HoldTimerPolicy, RetryPolicy
from .trace import ArrivalTrace

__all__ = ["SignalingConfig", "SignalingStats", "SignalingSimulator", "simulate_signaling"]


@dataclass(frozen=True, kw_only=True)
class SignalingConfig:
    """Timing and reliability model for the signaling plane.

    Keyword-only: construct as ``SignalingConfig(propagation_delay=...)``
    (the field list grows; positional call sites would silently change
    meaning).

    ``propagation_delay`` is the one-way per-hop delay for any signaling
    message, in call-holding-time units (the paper's unit of time).  A
    typical long-haul hop at ~10 ms against minutes-long calls is ~1e-4.

    ``message_loss_probability`` drops each SETUP/CONFIRM/crankback/release
    transmission independently.  Any positive loss requires a
    ``setup_timeout`` (lost set-ups would otherwise strand calls silently)
    and a ``hold_timer`` (lost CONFIRMs would otherwise leak circuits).
    ``setup_timeout`` is the origin's wait before retrying an attempt; retry
    ``k`` waits ``setup_timeout * backoff_factor**k``.  After
    ``max_retries`` retries the origin cranks to the next route.
    ``crankback_budget`` caps a call's total reroute events (``None`` =
    unbounded, the paper's model).  ``hold_timer`` is how long a link holds
    an unconfirmed booking before releasing it.
    """

    propagation_delay: float = 0.0
    message_loss_probability: float = 0.0
    setup_timeout: float | None = None
    max_retries: int = 2
    backoff_factor: float = 2.0
    crankback_budget: int | None = None
    hold_timer: float | None = None

    def __post_init__(self) -> None:
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        if not 0.0 <= self.message_loss_probability < 1.0:
            raise ValueError("message_loss_probability must lie in [0, 1)")
        # Per-knob validation lives in the shared policy objects
        # (:mod:`repro.sim.sigpolicy`) so the cluster's cross-process
        # protocol rejects exactly the same values; constructing them here
        # surfaces any bad field at config time.
        self.retry_policy
        self.crankback_policy
        self.hold_policy
        if self.message_loss_probability > 0 and self.setup_timeout is None:
            raise ValueError(
                "message loss requires a setup_timeout: a lost SETUP would "
                "otherwise strand the call with no retry and no blocking count"
            )
        if self.message_loss_probability > 0 and self.hold_timer is None:
            raise ValueError(
                "message loss requires a hold_timer: a lost CONFIRM would "
                "otherwise leak partial bookings forever"
            )

    @property
    def retry_policy(self) -> RetryPolicy:
        """The setup timeout/backoff knobs as a shared policy object."""
        return RetryPolicy(
            timeout=self.setup_timeout,
            max_retries=self.max_retries,
            backoff_factor=self.backoff_factor,
        )

    @property
    def crankback_policy(self) -> CrankbackPolicy:
        """The reroute budget as a shared policy object."""
        return CrankbackPolicy(budget=self.crankback_budget)

    @property
    def hold_policy(self) -> HoldTimerPolicy:
        """The reservation hold-timer as a shared policy object."""
        return HoldTimerPolicy(duration=self.hold_timer)


@dataclass
class SignalingStats:
    """Protocol-level counters accumulated over a run.

    ``setups_sent`` through ``budget_blocked`` count events of calls that
    arrived inside the measured window; ``messages_lost``,
    ``hold_expirations`` and ``dropped_calls`` are whole-run protocol
    counters (warm-up included).  ``leaked_reservations`` is the final
    total occupancy once every call has completed and every timer fired —
    the run-end reservation audit, which must be zero for any correct
    configuration (every crankback, race abort, timeout, and lost message
    path must return its bookings).
    """

    setups_sent: int = 0
    crankbacks: int = 0
    race_aborts: int = 0
    established: int = 0
    setup_latency_sum: float = 0.0
    setup_timeouts: int = 0
    retries: int = 0
    budget_blocked: int = 0
    messages_lost: int = 0
    hold_expirations: int = 0
    dropped_calls: int = 0
    leaked_reservations: int = 0

    @property
    def mean_setup_latency(self) -> float:
        if self.established == 0:
            return 0.0
        return self.setup_latency_sum / self.established


@dataclass
class _PendingCall:
    """Origin-side state of one call working through its route list."""

    pair_index: int
    arrival_time: float
    holding_time: float
    # (links, bounds) per route: the primary checked against capacity, then
    # the route table's alternates, each against its own bound row.
    attempts: tuple
    next_route: int = 0  # index into attempts; 0 = primary
    measured: bool = False
    serial: int = 0  # attempt generation; stale messages/timers check it
    retries: int = 0  # timeout retries consumed on the current route
    reroutes: int = 0  # crankbacks + race aborts + retry exhaustions
    finished: bool = False  # established or definitively blocked
    established_serial: int = -1
    bookings: dict[int, list[int]] = field(default_factory=dict)

    def route(self) -> tuple[int, ...] | None:
        if self.next_route < len(self.attempts):
            return self.attempts[self.next_route][0]
        return None

    def bound(self, link: int) -> int:
        """The current attempt's admission bound on ``link``."""
        return self.attempts[self.next_route][1][link]

    @property
    def is_primary_attempt(self) -> bool:
        return self.next_route == 0


class SignalingSimulator:
    """Distributed set-up/confirm/teardown signaling over a threshold policy.

    Consumes the same :class:`ArrivalTrace` and threshold-discipline
    :class:`RoutingPolicy` as the flow simulator, and routes on the same
    :class:`~repro.routing.table.RouteTable`, so results are directly
    comparable under common random numbers.  ``faults`` replays a
    :class:`~repro.sim.faultplane.FaultTimeline` mid-run (stale policy — no
    reconvergence — matching the flow simulator without ``rebuild_policy``).
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        trace: ArrivalTrace,
        warmup: float = 10.0,
        config: SignalingConfig = SignalingConfig(),
        faults: FaultTimeline | Sequence[FaultEvent] | None = None,
    ):
        if policy.discipline != "threshold":
            raise ValueError("signaling simulation supports threshold policies only")
        if warmup < 0 or warmup >= trace.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if trace.is_multiclass:
            raise ValueError("signaling simulation supports unit-bandwidth traces only")
        self.network = network
        self.policy = policy
        self.table = RouteTable(policy)
        self.trace = trace
        self.warmup = float(warmup)
        self.config = config
        if faults is None:
            self.faults: FaultTimeline | None = None
        elif isinstance(faults, FaultTimeline):
            self.faults = faults if faults else None
        else:
            self.faults = FaultTimeline(tuple(faults)) or None
        self.stats = SignalingStats()

    # The protocol below keeps one authoritative occupancy counter per link,
    # held (conceptually) by the link's upstream node: only that node checks
    # and books the link, so there is no multi-writer inconsistency — but
    # checking (SETUP) and booking (CONFIRM) are separated in time, hence
    # the race-abort path.

    def run(self) -> SimulationResult:
        network = self.network
        trace = self.trace
        config = self.config
        raw_capacities = [int(link.capacity) for link in network.links]
        capacities = [int(c) for c in network.capacities()]
        # Per-run bound rows: the fault plane zeroes a down link's entry in
        # each and restores it from the pristine copy on repair.
        table, rows = self.table.writable()
        pristine = [list(row) for row in rows]
        single, split = table.by_pair(trace.od_pairs)
        occupancy = [0] * network.num_links
        delay = config.propagation_delay
        loss_p = config.message_loss_probability
        loss_rng = substream(trace.seed, "signaling", "loss") if loss_p > 0 else None
        retry_policy = config.retry_policy
        crankback_policy = config.crankback_policy
        hold_policy = config.hold_policy
        hold_timer = hold_policy.duration
        dynamic = self.faults is not None

        num_pairs = len(trace.od_pairs)
        offered = [0] * num_pairs
        blocked = [0] * num_pairs
        dropped = [0] * num_pairs
        primary_carried = 0
        alternate_carried = 0
        stats = self.stats
        warmup = self.warmup

        queue = EventQueue()

        # Established-call registry, for teardown and fault-induced drops.
        active_calls: dict[int, tuple[tuple[int, ...], int, bool]] = {}
        next_active_id = 0
        link_down = [network.is_failed(i) for i in range(network.num_links)]

        def transmit(q: EventQueue, callback, payload, hops: int = 1) -> bool:
            """Schedule a protocol message ``hops`` propagation hops away.

            Returns False — dropping the event — with the compound per-hop
            loss probability; the sender never learns (timeouts do).
            """
            if loss_rng is not None:
                survive = (1.0 - loss_p) ** hops
                if loss_rng.random() >= survive:
                    stats.messages_lost += 1
                    return False
            q.schedule_in(hops * delay if delay else 0.0, callback, payload)
            return True

        def release_link(call: _PendingCall, serial: int, link: int) -> bool:
            """Release one booking of attempt ``serial`` exactly once."""
            links = call.bookings.get(serial)
            if not links or link not in links:
                return False
            links.remove(link)
            occupancy[link] -= 1
            return True

        def finish_blocked(call: _PendingCall) -> None:
            if call.finished:
                return
            call.finished = True
            call.serial += 1  # invalidate in-flight messages and timers
            if call.measured:
                blocked[call.pair_index] += 1

        def start_attempt(q: EventQueue, call: _PendingCall) -> None:
            if call.finished:
                return
            if crankback_policy.exhausted(call.reroutes):
                if call.measured:
                    stats.budget_blocked += 1
                finish_blocked(call)
                return
            route = call.route()
            if route is None:
                finish_blocked(call)
                return
            call.serial += 1
            serial = call.serial
            if call.measured:
                stats.setups_sent += 1
            if retry_policy.enabled:
                q.schedule_in(retry_policy.wait_for(call.retries),
                              on_timeout, (call, serial))
            # Forward pass: the set-up reaches hop k at now + k * delay and
            # checks that hop's link.  The first check happens at the origin
            # itself — no transmission yet, so nothing to lose.
            advance_setup(q, (call, route, 0, serial))

        def on_timeout(q: EventQueue, payload) -> None:
            call, serial = payload
            if call.finished or call.serial != serial:
                return  # the attempt concluded; stale timer
            if call.measured:
                stats.setup_timeouts += 1
            if hold_timer is None:
                # Idealized rollback: without per-link hold timers the
                # expired attempt's partial bookings are released here so
                # occupancy stays conserved in lossless configurations.
                for link in list(call.bookings.get(serial, ())):
                    release_link(call, serial, link)
            if retry_policy.allows_retry(call.retries):
                call.retries += 1
                if call.measured:
                    stats.retries += 1
                start_attempt(q, call)
                return
            call.retries = 0
            call.next_route += 1
            call.reroutes += 1
            start_attempt(q, call)

        def advance_setup(q: EventQueue, payload) -> None:
            call, route, hop, serial = payload
            if call.serial != serial or call.finished:
                return  # superseded by a timeout retry or a crankback
            if hop == len(route):
                # Destination reached: CONFIRM retraces, booking backwards.
                advance_confirm(q, (call, route, len(route) - 1, serial))
                return
            link = route[hop]
            if occupancy[link] + 1 > call.bound(link):
                # Crankback: the failure notice needs hop+1 hops home; the
                # origin moves on when it hears, after the round trip.
                if call.measured:
                    stats.crankbacks += 1
                call.next_route += 1
                call.retries = 0
                call.reroutes += 1
                transmit(q, retry, (call, serial), hops=hop + 1)
                return
            transmit(q, advance_setup, (call, route, hop + 1, serial))

        def retry(q: EventQueue, payload) -> None:
            call, serial = payload
            if call.serial != serial or call.finished:
                return  # a timeout already moved the call along
            start_attempt(q, call)

        def advance_confirm(q: EventQueue, payload) -> None:
            call, route, hop, serial = payload
            if call.serial != serial or call.finished:
                return  # expired mid-flight; hold timers reap the bookings
            if hop < 0:
                # Confirm reached the origin: the call is up.
                call.finished = True
                call.established_serial = serial
                call.bookings.pop(serial, None)  # bookings became the circuit
                nonlocal next_active_id
                call_id = next_active_id
                next_active_id += 1
                active_calls[call_id] = (route, call.pair_index, call.measured)
                if call.measured:
                    stats.established += 1
                    stats.setup_latency_sum += q.now - call.arrival_time
                    nonlocal primary_carried, alternate_carried
                    if call.is_primary_attempt:
                        primary_carried += 1
                    else:
                        alternate_carried += 1
                q.schedule_in(call.holding_time, start_teardown, call_id)
                return
            link = route[hop]
            if occupancy[link] + 1 > call.bound(link):
                # The circuit vanished between check and booking: race abort.
                if call.measured:
                    stats.race_aborts += 1
                call.next_route += 1
                call.retries = 0
                call.reroutes += 1
                release_and_retry(q, (call, route, hop + 1, serial))
                return
            occupancy[link] += 1
            call.bookings.setdefault(serial, []).append(link)
            if hold_timer is not None:
                q.schedule_in(hold_timer, hold_check, (call, serial, link))
            transmit(q, advance_confirm, (call, route, hop - 1, serial))

        def hold_check(q: EventQueue, payload) -> None:
            call, serial, link = payload
            if call.established_serial == serial:
                return  # the booking became a live circuit
            links = call.bookings.get(serial)
            if not links or link not in links:
                return  # already released by the race-abort walk
            if not call.finished and call.serial == serial:
                # The attempt is still in flight (slow round trip); refresh
                # rather than yank a reservation the CONFIRM may complete.
                q.schedule_in(hold_timer, hold_check, payload)
                return
            release_link(call, serial, link)
            stats.hold_expirations += 1

        def release_and_retry(q: EventQueue, payload) -> None:
            call, route, hop, serial = payload
            if hop == len(route):
                transmit(q, retry, (call, serial), hops=0)
                return
            release_link(call, serial, route[hop])
            transmit(q, release_and_retry, (call, route, hop + 1, serial))

        def start_teardown(q: EventQueue, call_id: int) -> None:
            record = active_calls.pop(call_id, None)
            if record is None:
                return  # the call was severed by a link failure
            advance_teardown(q, (record[0], 0))

        def advance_teardown(q: EventQueue, payload) -> None:
            # TEARDOWN is modelled as reliable (link-layer retransmission):
            # losing it would leak circuits of *completed* calls forever,
            # which no deployment tolerates.
            route, hop = payload
            if hop == len(route):
                return
            occupancy[route[hop]] -= 1
            q.schedule_in(delay, advance_teardown, (route, hop + 1))

        def fault_event(q: EventQueue, payload) -> None:
            links, up = payload
            newly_down = []
            for link in links:
                if link_down[link] == (not up):
                    continue
                link_down[link] = not up
                if up:
                    capacities[link] = raw_capacities[link]
                    for row, clean in zip(rows, pristine):
                        row[link] = clean[link]
                else:
                    capacities[link] = 0
                    for row in rows:
                        row[link] = 0
                    newly_down.append(link)
            if not newly_down:
                return
            downset = set(newly_down)
            for call_id in list(active_calls):
                route, pair, measured = active_calls[call_id]
                if downset.intersection(route):
                    for link in route:
                        occupancy[link] -= 1
                    del active_calls[call_id]
                    stats.dropped_calls += 1
                    if measured:
                        dropped[pair] += 1

        def arrival(q: EventQueue, payload) -> None:
            pair, holding, uniform = payload
            measured = q.now >= warmup
            if measured:
                offered[pair] += 1
            chain = single[pair]
            if chain is None and split[pair] is not None:
                chain = pick(split[pair], uniform)
            if chain is None:
                if measured:
                    blocked[pair] += 1
                return
            call = _PendingCall(
                pair_index=pair,
                arrival_time=q.now,
                holding_time=holding,
                attempts=((chain[0], capacities),) + chain[1],
                measured=measured,
            )
            start_attempt(q, call)

        # Fault events are scheduled before the arrivals so that, at equal
        # times, a failure applies before the arrival's admission decision —
        # matching the flow simulator's advance-then-admit ordering.
        if dynamic:
            for when, links, up in self.faults.resolve(network):
                queue.schedule(when, fault_event, (links, up))
        times = trace.times.tolist()
        od_index = trace.od_index.tolist()
        holding = trace.holding_times.tolist()
        uniforms = trace.uniforms.tolist()
        for i in range(len(times)):
            queue.schedule(times[i], arrival, (od_index[i], holding[i], uniforms[i]))
        queue.run()

        # Run-end reservation audit: every call has completed, every
        # hold-timer and teardown has fired, so any residual occupancy is a
        # booking some crankback/abort/timeout path failed to return.
        stats.leaked_reservations = int(sum(occupancy))

        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=np.asarray(offered, dtype=np.int64),
            blocked=np.asarray(blocked, dtype=np.int64),
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=warmup,
            duration=trace.duration,
            seed=trace.seed,
            dropped=np.asarray(dropped, dtype=np.int64) if dynamic else None,
        )


def simulate_signaling(
    network: Network,
    policy: RoutingPolicy,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    propagation_delay: float = 0.0,
    config: SignalingConfig | None = None,
    faults: FaultTimeline | Sequence[FaultEvent] | None = None,
) -> tuple[SimulationResult, SignalingStats]:
    """Run the signaling-level simulation; returns result + protocol stats.

    Pass ``config`` for the full reliability model (loss, retries, budgets,
    hold timers); the bare ``propagation_delay`` shorthand is kept for the
    delay-only studies.
    """
    if config is None:
        config = SignalingConfig(propagation_delay=propagation_delay)
    simulator = SignalingSimulator(
        network,
        policy,
        trace,
        warmup=warmup,
        config=config,
        faults=faults,
    )
    result = simulator.run()
    return result, simulator.stats
