"""The sharded admission cluster: router, journal, and wire front end.

:class:`ClusterRouter` partitions a network's links across N worker
processes (:mod:`repro.serve.shard`, spawned and watched through
:mod:`repro.serve.supervisor`) and answers the same
:class:`~repro.serve.engine.AdmitRequest` / ``ReleaseRequest`` objects as
the in-process :class:`~repro.serve.engine.RequestEngine` — but each
admission is now a distributed set-up, the paper's signaling plane made
operational:

* a candidate path whose links all live on one shard is admitted in a
  **single hop** (``rescommit``): one command, no reservation state;
* a path spanning shards runs **two-phase reserve/commit**: phase 1
  reserves the circuits on every touched shard in parallel under a
  hold-timer; if every shard says yes the router journals the call,
  answers it, and posts the commits, otherwise it posts aborts for the
  partial reservations and **cranks back** to the next alternate —
  exactly the protocol :mod:`repro.sim.signaling` simulates, driven by
  the same :mod:`repro.sim.sigpolicy` policy objects (retry
  timeout/backoff, crankback budget, hold-timer horizon).

A call is answered on its phase-1 votes.  Commits, aborts and releases
are *posts*: buffered for their shard with no reply awaited, they leave
inside the next frame sent to it (at the latest the next heartbeat), so
no frame exists just to carry them.  The transport keeps at most one
frame in flight per shard and sends what was buffered meanwhile when
the reply arrives, so every shard applies commands in the order the
router issued them even when chaos delays or drops a frame.  A commit
that reaches a shard after its hold-timer reaped the reservation
re-books it before any later reserve is checked.

Every admission and release runs one walk, a *wave*: each undecided
call's current candidate is tried in one *round*, all of a round's
commands to a shard share a pickle frame, and refusals crank back into
the next round.  An attempt is admitted when every touched shard books
it, *refused* (one crankback, primary or alternate, as the signaling
simulator counts them) when any shard refuses, and ``"shard-down"`` only
when some shard failed and none refused.  The two router modes differ
only in how many requests share a wave:

* ``ordered`` — one request per wave, under the router lock.  With faults
  off this is *bit-identical* to the single-process engine on the same
  trace (the replay-equivalence oracle in ``tests/test_cluster.py``), and
  it is the mode the chaos smoke uses so fault-free prefixes stay
  comparable;
* ``pipelined`` — concurrently submitted batches merge into one wave.
  Set-ups in one wave may race for the same circuits; the loser's
  reserve is refused and it cranks back — the signaling simulator's
  *race abort*, here a live phenomenon rather than a modelled one.

Fault tolerance is journal-centric: the router's
:class:`ReservationJournal` (held call -> path/width) is the single
authoritative record once a client has been answered.  Workers are
disposable — when the monitor's heartbeats or a broken pipe declare a
shard dead, the supervisor restarts it and the router resyncs its
occupancy *from the journal*; uncommitted phase-1 reservations die with
the worker (their callers crank back or retry), and reservations orphaned
by lost aborts are reaped by the worker's own hold-timer.  While a shard
is down the router degrades instead of failing: candidate paths touching
it are skipped, and only a call with *no* reachable route is refused,
with the dedicated ``"shard-down"`` reason.

The wire front end (:class:`ClusterServer` / :class:`ClusterClient`)
speaks length-prefixed pickle frames — batched decisions, metrics,
drain, and the ``audit`` op that diffs every live shard's occupancy
against the journal (leak detection for the chaos harness).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pickle
import socket
import struct
from dataclasses import dataclass, field

from ..routing.base import RoutingPolicy
from ..routing.table import choice_index
from ..sim.sigpolicy import CrankbackPolicy, HoldTimerPolicy, RetryPolicy
from ..topology.graph import Network
from .chaos import ChaosConfig, MessageChaos
from .engine import AdmitRequest, Decision, ReleaseRequest
from .shard import PRIMARY_KIND
from .state import NetworkState, PolicySwap, partition_links, shard_bounds
from .supervisor import ShardSupervisor
from .telemetry import MetricsRegistry

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterServer",
    "ClusterClient",
    "ReservationJournal",
    "ShardError",
    "ShardDown",
    "ShardTimeout",
]

#: Cap on commands per router->shard frame.  The router's side of every
#: pipe is non-blocking (excess bytes queue in ``_wbufs``), so the cap is
#: not about deadlock — it bounds how much work one frame hands a worker
#: before the worker surfaces for its hold-timer tick and reply write.
_MAX_FRAME_COMMANDS = 1024

#: :mod:`multiprocessing.connection`'s length prefix (4-byte big-endian,
#: signed).  The router writes and parses this format on the raw shard
#: pipe fds so the workers keep using plain blocking ``Connection``s.
_WIRE = struct.Struct("!i")

_MODES = ("ordered", "pipelined")

#: Cap on requests merged into one pipelined wave.  A wave admits first
#: and runs intra-wave releases after (see ``_decide_batch_rounds``), so
#: an unbounded merge of a deep client backlog would span minutes of
#: trace time, hold every admitted call's circuits until wave end, and
#: inflate blocking far past the engine's.  Whole batches are taken up
#: to this cap; the rest stay queued for the next wave.
_MAX_WAVE_REQUESTS = 2048


def _reservation_id(call_id: int | str, index: int) -> int | str:
    """Per-attempt reservation key.

    Integer call ids (the common case) get an arithmetic key — cheapest
    to build and to pickle per command; anything else falls back to a
    string.  Candidate indices are bounded far below 256 by the route
    tables and the crankback budget; the guard keeps exotic inputs safe.
    """
    if type(call_id) is int and call_id >= 0 and index < 256:
        return call_id * 256 + index
    return f"{call_id}#{index}"


def _release_id(call_id: int | str) -> int | str:
    """Teardown key for a call — negative, so it can't collide with the
    non-negative admission keys of :func:`_reservation_id`."""
    if type(call_id) is int and call_id >= 0:
        return -call_id - 1
    return f"{call_id}!release"


class ShardError(Exception):
    """Base class for shard RPC failures."""


class ShardDown(ShardError):
    """The target shard is marked down (dead worker or broken pipe)."""


class ShardTimeout(ShardError):
    """The retry policy's attempts were exhausted without a reply."""


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster's shape and its signaling-policy knobs.

    ``mode`` picks how many requests share an admission wave: one
    (``ordered``: deterministic, engine-equivalent) or every batch
    submitted concurrently (``pipelined``: race aborts crank back).  The three
    :mod:`repro.sim.sigpolicy` objects govern the distributed set-up
    exactly as they do the simulated one: ``retry`` bounds each shard
    RPC (timeout, retries, backoff), ``crankback`` optionally caps how
    many alternates one call may try (``None`` = the engine's unlimited
    semantics, required for replay equivalence), ``hold`` is the
    reservation hold-timer workers enforce on phase-1 bookings.
    ``heartbeat_interval``/``heartbeat_misses`` drive the monitor that
    declares live-but-wedged workers dead.  ``journal_path`` (optional)
    mirrors every journal event to JSONL for post-mortem audits.
    """

    num_shards: int = 2
    mode: str = "ordered"
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(timeout=0.25))
    crankback: CrankbackPolicy = field(default_factory=CrankbackPolicy)
    hold: HoldTimerPolicy = field(default_factory=lambda: HoldTimerPolicy(duration=1.0))
    heartbeat_interval: float = 0.2
    heartbeat_misses: int = 3
    tick: float = 0.02
    journal_path: str | None = None
    chaos: ChaosConfig | None = None

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        chaos = self.chaos
        if chaos is not None and (chaos.drop_probability or chaos.delay_probability):
            if not self.retry.enabled:
                raise ValueError(
                    "message drop/delay chaos requires an enabled RetryPolicy "
                    "(a dropped frame would otherwise hang forever)"
                )


class ReservationJournal:
    """The router's authoritative record of held calls.

    ``held`` maps call id -> ``(path, width, tier)``; it is written
    *before* commit commands go out, so a shard crashing mid-commit is
    recovered exactly by replaying the journal into a ``sync``
    (:meth:`occupancy_for`).  With ``path`` set, every admit/release is
    also appended to a JSONL file for offline audits.
    """

    def __init__(self, path: str | None = None):
        self.held: dict[int | str, tuple[tuple[int, ...], int, str]] = {}
        self.admits = 0
        self.releases = 0
        self._fh = open(path, "a", encoding="utf-8") if path else None

    def record_admit(
        self, call_id: int | str, path: tuple[int, ...], width: int, tier: str
    ) -> None:
        self.held[call_id] = (tuple(path), width, tier)
        self.admits += 1
        if self._fh is not None:
            self._fh.write(json.dumps(
                {"event": "admit", "id": call_id, "path": list(path),
                 "width": width, "tier": tier}
            ) + "\n")
            self._fh.flush()

    def record_release(
        self, call_id: int | str
    ) -> tuple[tuple[int, ...], int, str] | None:
        entry = self.held.pop(call_id, None)
        if entry is not None:
            self.releases += 1
            if self._fh is not None:
                self._fh.write(json.dumps({"event": "release", "id": call_id}) + "\n")
                self._fh.flush()
        return entry

    def occupancy_for(self, links) -> dict[int, int]:
        """Per-link circuit counts implied by the held registry."""
        counts = {int(link): 0 for link in links}
        for path, width, __ in self.held.values():
            for link in path:
                if link in counts:
                    counts[link] += width
        return counts

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _Frame:
    """One in-flight router->shard frame awaiting its reply.

    ``entries`` maps result slices back to caller futures: each
    ``(future, start, stop)`` receives ``results[start:stop]``, so one
    frame can carry many callers' command groups.  Posted commands have
    no entry; their results are dropped.
    """

    __slots__ = ("commands", "entries", "attempt", "timer", "done")

    def __init__(self, commands, entries, attempt):
        self.commands = commands
        self.entries = entries
        self.attempt = attempt
        self.timer = None
        self.done = False


class ClusterRouter:
    """Admission decisions over a fleet of link-shard workers."""

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        config: ClusterConfig | None = None,
        *,
        telemetry: MetricsRegistry | None = None,
    ):
        self.network = network
        self.policy = policy
        self.config = config if config is not None else ClusterConfig()
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.journal = ReservationJournal(self.config.journal_path)
        # The same route table the engine decides on; NetworkState is
        # borrowed for its validation and shard_spec slicing.
        state = NetworkState(network, policy)
        self._table = state.table
        self.partitions = partition_links(network.num_links, self.config.num_shards)
        self._link_shard = {
            link: sid
            for sid, links in enumerate(self.partitions)
            for link in links
        }
        chaos = self.config.chaos
        specs = {}
        for sid, links in enumerate(self.partitions):
            spec = state.shard_spec(sid, links)
            spec["hold_timer"] = self.config.hold.duration
            spec["tick"] = self.config.tick
            spec["chaos"] = chaos.worker_plan(sid) if chaos is not None else None
            specs[sid] = spec
        self.supervisor = ShardSupervisor(specs)
        self.chaos = MessageChaos(chaos) if chaos is not None and chaos.active else None
        # Transport state, all touched only from the event loop thread.
        self._conns: dict[int, object] = {}
        self._epochs: dict[int, int] = {sid: 0 for sid in specs}
        self._buffers: dict[int, list] = {sid: [] for sid in specs}
        # Raw non-blocking pipe IO: inbound parse buffer, outbound byte
        # backlog, and whether an add_writer callback is registered.
        self._rbufs: dict[int, bytearray] = {sid: bytearray() for sid in specs}
        self._wbufs: dict[int, bytearray] = {sid: bytearray() for sid in specs}
        self._writer_on: dict[int, bool] = {sid: False for sid in specs}
        self._inflight: dict[int, dict[int, _Frame]] = {sid: {} for sid in specs}
        self._seq = itertools.count(1)
        self._down: set[int] = set()
        self._misses: dict[int, int] = {sid: 0 for sid in specs}
        self._lock = asyncio.Lock()
        self._batches = 0
        self._path_groups: dict[tuple, tuple] = {}
        self._candidates = self._compile_candidates()
        # Pipelined batches queue here; one scheduler task merges every
        # batch waiting at wave-start into a single decision wave.
        self._wave_queue: list[tuple[list, asyncio.Future]] = []
        self._wave_task: asyncio.Task | None = None
        self._monitor_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self.decisions_total = 0
        #: Policy version across the fleet: bumped by every hot_swap and
        #: stamped into each shard (and its respawn spec), so restarted
        #: workers come back with the bounds in force, not the boot ones.
        self.policy_epoch = 0
        self.swaps: list[PolicySwap] = []
        registry = self.telemetry
        #: The admission wave's counters, keyed by its tally names.
        self._m_outcomes = {
            tier: registry.counter("serve_decisions_total", tier=tier)
            for tier in ("primary", "alternate")
        } | {
            reason: registry.counter("serve_rejected_total", reason=reason)
            for reason in ("blocked", "no-route", "shard-down")
        }
        self._m_released = registry.counter("serve_released_total")
        self._m_errors = registry.counter("serve_errors_total")
        for tally in ("fastpath", "twophase", "crankbacks"):
            self._m_outcomes[tally] = registry.counter(f"serve_cluster_{tally}_total")
        self._m_retries = registry.counter("serve_cluster_frame_retries_total")
        self._m_restarts = registry.counter("serve_cluster_restarts_total")
        self._m_held = registry.gauge("serve_held_calls")
        self._m_up = {
            sid: registry.gauge("serve_shard_up", shard=str(sid)) for sid in specs
        }
        self._m_swaps = registry.counter("serve_cluster_swaps_total")
        self._m_epoch = registry.gauge("serve_policy_epoch")

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Fork the workers, register their pipes, start the monitor."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        for sid, conn in self.supervisor.start().items():
            self._conns[sid] = conn
            self._register_reader(sid)
            self._m_up[sid].set(1)
        self._monitor_task = asyncio.ensure_future(self._monitor())
        self._started = True

    async def stop(self) -> None:
        """Tear everything down: monitor, readers, workers, journal file."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        if self._wave_task is not None:
            self._wave_task.cancel()
            try:
                await self._wave_task
            except asyncio.CancelledError:
                pass
            self._wave_task = None
        for sid in list(self._conns):
            self._unregister_reader(sid)
            self._fail_pending(sid, ShardDown(f"shard {sid}: router stopped"))
        self.supervisor.stop_all()
        self._conns.clear()
        self.journal.close()
        self._started = False

    async def drain(self) -> None:
        """Wait for every in-flight pipelined decision to settle."""
        while self._batches:
            await asyncio.sleep(0.01)

    async def __aenter__(self) -> "ClusterRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------- transport

    def _register_reader(self, sid: int) -> None:
        """Adopt the shard pipe for raw non-blocking IO on the event loop.

        The router never issues a blocking read or write on a shard pipe:
        a stalled worker (full buffer, long command, chaos sleep) backs
        bytes up in ``_wbufs`` instead of wedging the whole loop — which
        is what keeps one slow shard from stalling every other shard's
        traffic.  The workers stay on plain blocking ``Connection``s;
        only the router's end of each socketpair goes non-blocking, so
        the wire format is still multiprocessing's length-prefixed
        pickle.
        """
        conn = self._conns[sid]
        os.set_blocking(conn.fileno(), False)
        self._rbufs[sid] = bytearray()
        self._wbufs[sid] = bytearray()
        self._writer_on[sid] = False
        epoch = self._epochs[sid]
        self._loop.add_reader(conn.fileno(), self._on_readable, sid, epoch)

    def _unregister_reader(self, sid: int) -> None:
        conn = self._conns.get(sid)
        if conn is None:
            return
        try:
            self._loop.remove_reader(conn.fileno())
        except (OSError, ValueError):  # pragma: no cover - fd already dead
            pass
        if self._writer_on.get(sid):
            self._writer_on[sid] = False
            try:
                self._loop.remove_writer(conn.fileno())
            except (OSError, ValueError):  # pragma: no cover - fd already dead
                pass

    def _on_readable(self, sid: int, epoch: int) -> None:
        if self._epochs[sid] != epoch:
            return  # stale registration from before a restart
        conn = self._conns.get(sid)
        if conn is None:
            return
        try:
            chunk = os.read(conn.fileno(), 1 << 18)
        except BlockingIOError:  # pragma: no cover - spurious wakeup
            return
        except OSError:
            self._mark_down(sid, "pipe closed")
            return
        if not chunk:
            self._mark_down(sid, "pipe closed")
            return
        buf = self._rbufs[sid]
        buf += chunk
        start = 0
        while len(buf) - start >= 4:
            (size,) = _WIRE.unpack_from(buf, start)
            if size < 0:  # pragma: no cover - >2GB frame marker, never sent
                self._mark_down(sid, "oversized frame")
                return
            if len(buf) - start - 4 < size:
                break
            frame = pickle.loads(bytes(buf[start + 4:start + 4 + size]))
            start += 4 + size
            if frame[0] == "reply":
                self._resolve(sid, frame[1], frame[2])
            if self._epochs[sid] != epoch:  # resolve cascaded into a restart
                return
        del buf[:start]

    def _resolve(self, sid: int, seq: int, results: list) -> None:
        record = self._inflight[sid].pop(seq, None)
        if record is None or record.done:
            return
        record.done = True
        if record.timer is not None:
            record.timer.cancel()
        for future, start, stop in record.entries:
            if not future.done():
                future.set_result(results[start:stop])
        self._flush(sid)  # the gate is open: what waited leaves now

    def _fail_pending(self, sid: int, error: ShardError) -> None:
        """Fail every reply ``sid`` owes, in flight or still buffered;
        buffered posts are dropped (the journal resync covers them)."""
        for record in self._inflight[sid].values():
            self._fail_record(record, error)
        self._inflight[sid].clear()
        for __, future in self._buffers[sid]:
            if future is not None and not future.done():
                future.set_exception(error)
        self._buffers[sid].clear()

    def _mark_down(self, sid: int, why: str) -> None:
        if sid in self._down:
            return
        self._down.add(sid)
        self._epochs[sid] += 1
        self._unregister_reader(sid)
        self._fail_pending(sid, ShardDown(f"shard {sid} down: {why}"))
        self._rbufs[sid] = bytearray()
        self._wbufs[sid] = bytearray()
        self._m_up[sid].set(0)

    def _enqueue(self, sid: int, commands: list[tuple]) -> asyncio.Future:
        """Buffer one command group for ``sid``; the future resolves to
        its results in order.

        Groups from many callers share pickle frames, which is where the
        pipelined mode's throughput comes from.
        """
        future = self._loop.create_future()
        if sid in self._down:
            future.set_exception(ShardDown(f"shard {sid} is down"))
            return future
        self._buffers[sid].append((commands, future))
        self._loop.call_soon(self._flush, sid)
        return future

    def _post(self, sid: int, commands: list[tuple]) -> None:
        """Buffer commands that need no reply; they leave, in order, in
        the next frame sent to ``sid``.  Dropped while ``sid`` is down:
        its restart resyncs from the journal."""
        if sid not in self._down:
            self._buffers[sid].append((commands, None))

    def _flush(self, sid: int) -> None:
        """Send ``sid``'s buffer as one frame, unless one is in flight.

        One frame in flight per shard keeps each shard's apply order the
        router's send order even when chaos delays or drops a frame (a
        posted release is never overtaken by the next reserve); what is
        buffered meanwhile leaves when the reply arrives.  Posts alone
        never make a frame.
        """
        buffer = self._buffers[sid]
        if self._inflight[sid] or all(future is None for __, future in buffer):
            return
        # Whole groups up to the size cap; the rest waits for the reply.
        commands: list[tuple] = []
        entries: list[tuple[asyncio.Future, int, int]] = []
        taken = 0
        for group, future in buffer:
            if commands and len(commands) + len(group) > _MAX_FRAME_COMMANDS:
                break
            if future is not None:
                entries.append((future, len(commands), len(commands) + len(group)))
            commands.extend(group)
            taken += 1
        del buffer[:taken]
        self._send_frame(sid, _Frame(commands, entries, attempt=0))

    def _send_frame(self, sid: int, record: _Frame) -> None:
        if record.done:
            return
        if sid in self._down:
            self._fail_record(record, ShardDown(f"shard {sid} is down"))
            return
        seq = next(self._seq)
        self._inflight[sid][seq] = record
        action = "pass" if self.chaos is None else self.chaos.classify()
        if action == "pass":
            self._raw_send(sid, ("cmds", seq, record.commands))
        elif action == "delay":
            epoch = self._epochs[sid]
            self._loop.call_later(
                self.chaos.config.delay_seconds,
                self._delayed_send, sid, epoch, seq, record,
            )
        # "drop": never written; the retry timer below re-sends.
        retry = self.config.retry
        if retry.enabled:
            record.timer = self._loop.call_later(
                retry.wait_for(record.attempt), self._on_frame_timeout,
                sid, seq, record,
            )
        elif action == "drop":  # pragma: no cover - forbidden by ClusterConfig
            self._fail_record(record, ShardTimeout(f"shard {sid}: frame dropped"))

    def _delayed_send(self, sid: int, epoch: int, seq: int, record: _Frame) -> None:
        if record.done or self._epochs[sid] != epoch:
            return
        self._raw_send(sid, ("cmds", seq, record.commands))

    def _raw_send(self, sid: int, frame: tuple) -> None:
        if self._conns.get(sid) is None:
            return
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        buf = self._wbufs[sid]
        buf += _WIRE.pack(len(payload))
        buf += payload
        if not self._writer_on[sid]:
            self._pump_writes(sid, self._epochs[sid])

    def _pump_writes(self, sid: int, epoch: int) -> None:
        """Drain the outbound byte backlog without ever blocking."""
        if self._epochs[sid] != epoch:
            return
        conn = self._conns.get(sid)
        if conn is None:
            return
        buf = self._wbufs[sid]
        fd = conn.fileno()
        while buf:
            try:
                written = os.write(fd, buf)
            except BlockingIOError:
                break
            except OSError:
                self._mark_down(sid, "send failed")
                return
            del buf[:written]
        if buf and not self._writer_on[sid]:
            self._writer_on[sid] = True
            self._loop.add_writer(fd, self._pump_writes, sid, epoch)
        elif not buf and self._writer_on[sid]:
            self._writer_on[sid] = False
            try:
                self._loop.remove_writer(fd)
            except (OSError, ValueError):  # pragma: no cover - fd already dead
                pass

    def _on_frame_timeout(self, sid: int, seq: int, record: _Frame) -> None:
        if record.done:
            return
        self._inflight[sid].pop(seq, None)
        retries_used = record.attempt + 1
        if self.config.retry.allows_retry(retries_used):
            self._m_retries.inc()
            record.attempt = retries_used
            self._send_frame(sid, record)
            return
        # Attempts exhausted: declare the shard suspect.  Restart+resync
        # is always safe (the journal is authoritative), so erring toward
        # down beats wedging callers.
        self._fail_record(
            record, ShardTimeout(f"shard {sid}: no reply after {retries_used} tries")
        )
        self._mark_down(sid, "rpc timeout")

    @staticmethod
    def _fail_record(record: _Frame, error: ShardError) -> None:
        record.done = True
        if record.timer is not None:
            record.timer.cancel()
        for future, __, ___ in record.entries:
            if not future.done():
                future.set_exception(error)

    async def _call(self, sid: int, commands: list[tuple]) -> list:
        """Send one command group to one shard; results in order."""
        return await self._enqueue(sid, commands)

    # ----------------------------------------------------------- monitoring

    async def _monitor(self) -> None:
        """Heartbeat loop: detect dead/wedged workers, restart, resync."""
        interval = self.config.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            for sid in self.supervisor.shard_ids:
                if sid in self._down:
                    await self._recover(sid)
                    continue
                if not self.supervisor.is_alive(sid):
                    self._mark_down(sid, "process exited")
                    await self._recover(sid)
                    continue
                try:
                    (snapshot,) = await self._call(sid, [("snapshot",)])
                except ShardError:
                    self._misses[sid] += 1
                    if (sid not in self._down
                            and self._misses[sid] >= self.config.heartbeat_misses):
                        self._mark_down(sid, "heartbeat misses")
                    continue
                self._misses[sid] = 0
                self.telemetry.fold(snapshot["tallies"], shard=str(sid))
                self.telemetry.gauge(
                    "serve_shard_pending", shard=str(sid)
                ).set(snapshot["pending"])

    async def _recover(self, sid: int) -> bool:
        """Restart a dead worker (if needed) and resync it from the journal."""
        if not self.supervisor.is_alive(sid):
            conn = self.supervisor.restart(sid)
            self._conns[sid] = conn
            self._m_restarts.inc()
        self._epochs[sid] += 1
        self._register_reader(sid)
        self._misses[sid] = 0
        # Leave the down set and enqueue the sync in the same loop step, so
        # no other task can slip a command in ahead of the resync.
        self._down.discard(sid)
        occupancy = self.journal.occupancy_for(self.partitions[sid])
        try:
            await self._call(sid, [("sync", occupancy)])
        except ShardError:
            return False  # still down; the next heartbeat tick retries
        self._m_up[sid].set(1)
        return True

    # --------------------------------------------------------------- routing

    def _groups(self, path: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Shard grouping of a path, cached — the candidate set is static."""
        cached = self._path_groups.get(path)
        if cached is None:
            groups: dict[int, list[int]] = {}
            link_shard = self._link_shard
            for link in path:
                groups.setdefault(link_shard[link], []).append(link)
            cached = tuple(
                (sid, tuple(links)) for sid, links in sorted(groups.items())
            )
            self._path_groups[path] = cached
        return cached

    def _compile_candidates(self) -> dict:
        """Bake every O-D pair's candidate chains once, shard groups included.

        A chain entry is ``(path, kind, tier, groups)`` — everything the
        admission wave needs per attempt without per-request allocation;
        ``kind`` names the shard's bound row.  The bounds themselves live
        on the shards, so a hot swap leaves these chains as they are.
        """
        def chain(primary, alternates):
            entries = [(primary, PRIMARY_KIND, "primary", self._groups(primary))]
            for alt, __ in alternates:
                entries.append(
                    (alt, self._table.key_of(alt), "alternate", self._groups(alt))
                )
            return tuple(entries)

        compiled: dict = {}
        for od in self._table.routes:
            chains, cum = self._table.choices(od)
            compiled[od] = ([chain(*c) for c in chains], cum)
        return compiled

    def _candidates_for(self, od, uniform: float):
        """The request's candidate chain, or ``None`` for no route.

        The bifurcation pick is the route table's own
        (:func:`repro.routing.table.choice_index`) — ordered-mode
        bit-equivalence with the engine depends on it.
        """
        entry = self._candidates.get(od)
        if entry is None:
            return None
        chains, cum = entry
        return chains[choice_index(cum, uniform)]

    # ------------------------------------------------------------ public API

    async def hot_swap(
        self,
        *,
        alt_thresholds=None,
        length_thresholds=None,
        now: float = 0.0,
    ) -> float:
        """Install new admission bounds on every shard, atomically per shard.

        Mirrors :meth:`NetworkState.hot_swap` through the same validating
        builder (:meth:`~repro.routing.table.RouteTable.replaced`): exactly
        one of ``alt_thresholds`` (scalar ``threshold`` discipline) or
        ``length_thresholds`` (some or all per-hop-length rows; rows left
        out keep their bounds) must be given and must match the policy's
        discipline.  The swap is serialized
        against ordered-mode waves by the router lock, so no decision
        straddles two policy versions; every shard gets one ``swap``
        command stamped with the new epoch, and the supervisor's respawn
        specs are updated first — a worker that crashes mid-broadcast is
        restarted with the *new* bounds, never the boot ones.  Down
        shards only get the spec update; their restart resync brings
        them current.  Returns the max absolute per-link threshold move.
        """
        async with self._lock:
            self._table, max_delta = self._table.replaced(
                alt_thresholds=alt_thresholds,
                length_thresholds=length_thresholds,
            )
            self.policy_epoch += 1
            epoch = self.policy_epoch
            calls = []
            for sid, links in enumerate(self.partitions):
                spec = self.supervisor.specs[sid]
                spec["rows"] = rows = shard_bounds(self._table, links)
                spec["epoch"] = epoch
                if sid not in self._down:
                    calls.append(self._call(sid, [("swap", epoch, rows)]))
            if calls:
                # A shard failing its swap is marked down by the transport
                # layer and restarted by the monitor from the spec we just
                # updated, so it still converges to the new epoch.
                await asyncio.gather(*calls, return_exceptions=True)
        self._m_swaps.inc()
        self._m_epoch.set(epoch)
        self.swaps.append(PolicySwap(time=now, epoch=epoch, max_delta=max_delta))
        return max_delta

    async def submit(self, request: AdmitRequest | ReleaseRequest) -> Decision:
        """Decide one request as a one-request wave (under the router lock
        in ordered mode, queued like any batch in pipelined mode)."""
        if self.config.mode == "pipelined":
            (decision,) = await self.submit_batch([request])
            return decision
        self.decisions_total += 1
        async with self._lock:
            (decision,) = await self._decide_batch_rounds([request])
        return decision

    async def submit_batch(
        self, requests: list[AdmitRequest | ReleaseRequest]
    ) -> list[Decision]:
        """Decide a batch: one :meth:`submit` wave per request in ordered
        mode; in pipelined mode the batch joins the next merged wave
        (:meth:`_wave_loop`), so its per-request overhead collapses to dict
        operations — what lets four worker processes outrun the
        single-process socket server.
        """
        if self.config.mode == "ordered":
            return [await self.submit(request) for request in requests]
        self.decisions_total += len(requests)
        future = asyncio.get_running_loop().create_future()
        self._wave_queue.append((list(requests), future))
        self._batches += 1
        try:
            if self._wave_task is None or self._wave_task.done():
                self._wave_task = asyncio.ensure_future(self._wave_loop())
            return await future
        finally:
            self._batches -= 1

    async def _wave_loop(self) -> None:
        """Drain the pipelined batch queue, one merged wave at a time.

        Batches submitted concurrently (one per client connection) are
        *merged* into a single wave and re-interleaved by request time
        instead of raced against each other: concurrent waves would
        contend for the same circuits and crank calls back for capacity
        that is only transiently reserved, inflating blocking far above
        the engine's.  One wave at a time keeps the worker serialization
        honest while still amortizing the whole wave's commands into a
        few frames per shard.
        """
        while self._wave_queue:
            queue = self._wave_queue
            pending: list[tuple[list, asyncio.Future]] = []
            total = 0
            while queue and (
                not pending or total + len(queue[0][0]) <= _MAX_WAVE_REQUESTS
            ):
                batch = queue.pop(0)
                pending.append(batch)
                total += len(batch[0])
            items: list[tuple] = []
            for b, (requests, __) in enumerate(pending):
                for j, request in enumerate(requests):
                    items.append((request.time, b, j, request))
            if len(pending) > 1 and all(it[0] is not None for it in items):
                # Stable (time, batch, position) order: each call's admit
                # and release live in one batch, so their relative order
                # survives the interleave.
                items.sort(key=lambda it: (it[0], it[1], it[2]))
            try:
                decisions = await self._decide_batch_rounds(
                    [it[3] for it in items]
                )
            except BaseException as error:
                for __, future in pending:
                    if not future.done():
                        future.set_exception(error)
                if isinstance(error, asyncio.CancelledError):
                    raise
                continue
            outs: list[list] = [[None] * len(reqs) for reqs, __ in pending]
            for (__, b, j, ___), decision in zip(items, decisions):
                outs[b][j] = decision
            for (___, future), out in zip(pending, outs):
                if not future.done():
                    future.set_result(out)

    async def _decide_batch_rounds(
        self, requests: list[AdmitRequest | ReleaseRequest]
    ) -> list[Decision]:
        """Decide one wave: the cluster's only admission and release walk."""
        decisions: list[Decision | None] = [None] * len(requests)
        admit_ids: set[int | str] = set()
        admits: list[tuple[int, AdmitRequest]] = []
        early_releases: list[tuple[int, ReleaseRequest]] = []
        late_releases: list[tuple[int, ReleaseRequest]] = []
        for i, request in enumerate(requests):
            if type(request) is ReleaseRequest:
                # A release whose call is admitted *in this batch* must run
                # after the admit wave; anything else can go first.
                target = late_releases if request.id in admit_ids else early_releases
                target.append((i, request))
            elif request.id in admit_ids or request.id in self.journal.held:
                self._m_errors.inc()
                decisions[i] = Decision(
                    request.id, False, None, "none", "duplicate-call"
                )
            else:
                admit_ids.add(request.id)
                admits.append((i, request))
        self._release_wave(early_releases, decisions)
        await self._admit_wave(admits, decisions)
        self._release_wave(late_releases, decisions)
        self._m_held.set(len(self.journal.held))
        return decisions

    def _release_wave(
        self,
        releases: list[tuple[int, ReleaseRequest]],
        decisions: list[Decision | None],
    ) -> None:
        """Journal each teardown and post its ``release`` commands: the
        origin's TEARDOWN goes forward unanswered, as in the paper."""
        if not releases:
            return
        by_shard: dict[int, list[tuple]] = {}
        released = errors = 0
        for i, request in releases:
            entry = self.journal.record_release(request.id)
            if entry is None:
                errors += 1
                decisions[i] = Decision(
                    request.id, False, None, "release", "unknown-call"
                )
                continue
            path, width, __ = entry
            rid = _release_id(request.id)
            for sid, links in self._groups(path):
                by_shard.setdefault(sid, []).append(("release", rid, links, width))
            released += 1
            decisions[i] = Decision(request.id, True, path, "release", None)
        self._m_released.inc(released)
        if errors:
            self._m_errors.inc(errors)
        for sid, cmds in by_shard.items():
            self._post(sid, cmds)

    async def _admit_wave(
        self,
        admits: list[tuple[int, AdmitRequest]],
        decisions: list[Decision | None],
    ) -> None:
        """Admit the wave's calls in candidate rounds: a ``rescommit`` for
        a single-shard path, ``reserve`` on every touched shard for a
        multi-shard one; outcomes as in the module docstring."""
        if not admits:
            return
        crankback = self.config.crankback
        journal = self.journal
        down = self._down
        tallies = {
            "primary": 0, "alternate": 0, "blocked": 0, "shard-down": 0,
            "no-route": 0, "fastpath": 0, "twophase": 0, "crankbacks": 0,
        }
        # One mutable record per undecided admission:
        # [index, request, candidates, position, reroutes, skipped_down].
        active: list[list] = []
        for i, request in admits:
            candidates = self._candidates_for(request.od, request.uniform)
            if candidates is None:
                tallies["no-route"] += 1
                decisions[i] = Decision(request.id, False, None, "none", "no-route")
                continue
            active.append([i, request, candidates, 0, 0, 0])
        while active:
            plan: list[tuple[list, tuple, int, str, tuple, dict, int | str]] = []
            for item in active:
                candidates = item[2]
                while item[3] < len(candidates):
                    path, kind, tier, groups = candidates[item[3]]
                    if tier == "alternate":
                        item[4] += 1
                        if crankback.exhausted(item[4]):
                            item[3] = len(candidates)
                            break
                    if not (down and any(sid in down for sid, __ in groups)):
                        break
                    item[5] += 1
                    item[3] += 1
                if item[3] >= len(candidates):
                    reason = "shard-down" if item[5] else "blocked"
                    tallies[reason] += 1
                    decisions[item[0]] = Decision(
                        item[1].id, False, None, "none", reason
                    )
                    continue
                rid = _reservation_id(item[1].id, item[3])
                plan.append((item, path, kind, tier, groups, {}, rid))
            if not plan:
                break
            by_shard: dict[int, list[tuple]] = {}
            tags: dict[int, list[dict]] = {}
            for item, path, kind, tier, groups, votes, rid in plan:
                request = item[1]
                fast = len(groups) == 1
                tallies["fastpath" if fast else "twophase"] += 1
                op = "rescommit" if fast else "reserve"
                for sid, links in groups:
                    by_shard.setdefault(sid, []).append(
                        (op, rid, links, request.width, kind)
                    )
                    tags.setdefault(sid, []).append(votes)
            futures = {sid: self._enqueue(sid, cmds) for sid, cmds in by_shard.items()}
            replies = await asyncio.gather(*futures.values(), return_exceptions=True)
            for (sid, __), reply in zip(futures.items(), replies):
                shard_tags = tags[sid]
                if isinstance(reply, BaseException):
                    for votes in shard_tags:
                        votes[sid] = "down"
                else:
                    for votes, result in zip(shard_tags, reply):
                        votes[sid] = "yes" if result == 1 else "no"
            active = []
            # The call is answered on its votes: phase-2 traffic is posted,
            # batched per shard, and rides the shard's next frame.
            after: dict[int, list[tuple]] = {}
            for item, path, kind, tier, groups, votes, rid in plan:
                i, request = item[0], item[1]
                if all(vote == "yes" for vote in votes.values()):
                    # Journal first, then commit: a shard crashing
                    # mid-commit is resynced from the journal.
                    journal.record_admit(request.id, path, request.width, tier)
                    if len(groups) > 1:
                        for sid, __ in groups:
                            after.setdefault(sid, []).append(("commit", rid))
                    tallies[tier] += 1
                    decisions[i] = Decision(request.id, True, path, tier, None)
                    continue
                # Crankback: abort whatever reserved, advance the candidate.
                # A lost abort is not a leak: the hold-timer reaps it.
                if len(groups) > 1:
                    for sid, __ in groups:
                        if votes.get(sid) == "yes":
                            after.setdefault(sid, []).append(("abort", rid))
                if "no" in votes.values():
                    tallies["crankbacks"] += 1
                else:  # some shard failed and none refused
                    item[5] += 1
                item[3] += 1
                active.append(item)
            # Posted before the next round's reserves: per-shard FIFO
            # means every commit/abort lands ahead of the next attempt.
            for sid, cmds in after.items():
                self._post(sid, cmds)
        for tally, count in tallies.items():
            if count:
                self._m_outcomes[tally].inc(count)

    async def audit(self) -> dict:
        """Diff every live shard's occupancy against the journal.

        ``leaked_circuits`` counts circuits booked on workers beyond what
        the journal can explain — the orphaned-reservation signal the
        chaos smoke asserts to be zero once hold-timers have had their
        horizon.  ``mismatches`` lists every differing link either way
        (under-booking shows up after commits lost to a dead shard and is
        healed by the next resync, not a leak).
        """
        shards: dict[int, dict] = {}
        leaked = 0
        mismatches: list[dict] = []
        pending = 0
        for sid in self.supervisor.shard_ids:
            if sid in self._down:
                shards[sid] = {"up": False}
                continue
            expected = self.journal.occupancy_for(self.partitions[sid])
            try:
                (snapshot,) = await self._call(sid, [("snapshot",)])
            except ShardError:
                shards[sid] = {"up": False}
                continue
            pending += snapshot["pending"]
            for link, want in expected.items():
                got = snapshot["occupancy"].get(link, 0)
                if got != want:
                    mismatches.append(
                        {"shard": sid, "link": link, "worker": got, "journal": want}
                    )
                    if got > want:
                        leaked += got - want
            shards[sid] = {
                "up": True,
                "ops": snapshot["ops"],
                "pending": snapshot["pending"],
            }
        return {
            "consistent": not mismatches,
            "leaked_circuits": leaked,
            "pending_reservations": pending,
            "mismatches": mismatches,
            "held_calls": len(self.journal.held),
            "down_shards": sorted(self._down),
            "restarts": dict(self.supervisor.restarts),
            "shards": shards,
        }

    async def resync_all(self) -> None:
        """Force every live shard back to journal-derived occupancy."""
        for sid in self.supervisor.shard_ids:
            if sid in self._down:
                continue
            occupancy = self.journal.occupancy_for(self.partitions[sid])
            try:
                await self._call(sid, [("sync", occupancy)])
            except ShardError:
                continue

    def shard_status(self) -> dict:
        """Cheap synchronous view for the ``shards`` wire op and the CLI."""
        return {
            "num_shards": self.config.num_shards,
            "mode": self.config.mode,
            "partitions": [list(links) for links in self.partitions],
            "up": [sid for sid in self.supervisor.shard_ids if sid not in self._down],
            "down": sorted(self._down),
            "restarts": dict(self.supervisor.restarts),
            "held_calls": len(self.journal.held),
            "chaos": None if self.chaos is None else dict(self.chaos.decisions),
        }


# --------------------------------------------------------------- wire layer

#: Length prefix for pickle frames: 4-byte big-endian payload size.
_HEADER = struct.Struct(">I")


def _decode_request(item: tuple) -> AdmitRequest | ReleaseRequest:
    if item[0] == "admit":
        __, rid, od, uniform, when, width = item
        return AdmitRequest(
            id=rid, od=(int(od[0]), int(od[1])), uniform=float(uniform),
            time=when, width=int(width),
        )
    if item[0] == "release":
        return ReleaseRequest(id=item[1], time=item[2])
    raise ValueError(f"unknown request kind {item[0]!r}")


class ClusterServer:
    """Pickle-frame front end for a :class:`ClusterRouter`.

    The protocol is one request dict per frame (``{"op": ...}``), one
    reply dict per frame.  ``batch`` carries requests as compact tuples
    (see :func:`_decode_request`) and answers with per-decision
    ``(admitted, tier, reason)`` triples — the loadgen's aggregation
    needs nothing more, and skipping route echo keeps frames small.
    """

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1", port: int = 0):
        self.router = router
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._draining = False

    async def start(self) -> None:
        await self.router.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.router.stop()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(_HEADER.size)
                except asyncio.IncompleteReadError:
                    break
                payload = await reader.readexactly(_HEADER.unpack(header)[0])
                message = pickle.loads(payload)
                reply = await self._answer(message)
                blob = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
                writer.write(_HEADER.pack(len(blob)) + blob)
                await writer.drain()
                if message.get("op") == "drain":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _answer(self, message: dict) -> dict:
        op = message.get("op")
        router = self.router
        if op == "batch":
            if self._draining:
                return {"error": "draining"}
            requests = [_decode_request(item) for item in message["requests"]]
            decisions = await router.submit_batch(requests)
            return {
                "decisions": [(d.admitted, d.tier, d.reason) for d in decisions]
            }
        if op == "metrics":
            return {
                "text": router.telemetry.render_text(),
                "snapshot": router.telemetry.snapshot(),
            }
        if op == "ping":
            return {"ok": True}
        if op == "shards":
            return router.shard_status()
        if op == "audit":
            return await router.audit()
        if op == "resync":
            await router.resync_all()
            return {"ok": True}
        if op == "drain":
            self._draining = True
            await router.drain()
            return {"ok": True, "held_calls": len(router.journal.held)}
        return {"error": f"unknown op {op!r}"}


class ClusterClient:
    """Blocking pickle-frame client (tests, loadgen worker processes)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, message: dict) -> dict:
        blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(_HEADER.pack(len(blob)) + blob)
        header = self._recv_exact(_HEADER.size)
        return pickle.loads(self._recv_exact(_HEADER.unpack(header)[0]))

    def decide_batch(self, items: list[tuple]) -> list[tuple]:
        """Submit request tuples; returns (admitted, tier, reason) triples."""
        reply = self.request({"op": "batch", "requests": items})
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["decisions"]

    def _recv_exact(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = self._sock.recv(size)
            if not chunk:
                raise ConnectionError("cluster server closed the connection")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
