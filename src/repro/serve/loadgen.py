"""Trace replay against the serving plane — the equivalence oracle.

:func:`trace_requests` flattens an :class:`~repro.sim.trace.ArrivalTrace`
into the exact request order the offline simulator processes it in: before
each arrival, a release for every earlier call whose departure time is at
or before the arrival (the simulator's "departures first" rule), then the
admission query itself, carrying the call's timestamp and uniform variate.
Releases are issued for *every* call, admitted or not — releasing a call
the engine never held is an occupancy no-op (answered ``unknown-call``),
precisely as the simulator skips the empty slots of blocked calls.  That
makes the request stream a pure function of the trace, independent of the
decisions, so the identical stream drives serial, batched, socket and
cluster replays.

:func:`aggregate_decisions` folds a decision list back into a
:class:`~repro.sim.metrics.SimulationResult` with the simulator's exact
measurement rules (warm-up truncation, per-pair offered/blocked, carried
splits by tier), and :func:`replay_trace` /
:func:`replay_trace_socket` run the full loop: with overload control and
adaptation off, the report's ``result`` must equal
``simulate(network, policy, trace, warmup)`` field for field —
``tests/test_serve.py`` asserts it.  :func:`replay_trace_cluster` feeds
the same stream to a :class:`~repro.serve.cluster.ClusterRouter` from
this process, one batch at a time; the router's shard workers are the
only other processes, which is how ``benchmarks/bench_cluster_throughput.py``
measures both cluster modes.

``speedup`` paces the replay against the wall clock (``speedup=50`` plays
one unit of trace time per 20 ms of wall time); ``None`` replays flat out.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..sim.metrics import SimulationResult
from ..sim.trace import ArrivalTrace
from .engine import AdmitRequest, Decision, ReleaseRequest, RequestEngine

__all__ = [
    "ReplayReport",
    "trace_requests",
    "aggregate_decisions",
    "replay_trace",
    "replay_trace_cluster",
    "replay_trace_socket",
    "measure_throughput",
    "measure_overload",
    "measure_regime_shift",
    "measure_surge_with_shard_kill",
]


@dataclass(frozen=True)
class ReplayReport:
    """One replay: the raw decisions, their aggregate, and the rate."""

    decisions: tuple[Decision, ...]
    result: SimulationResult
    wall_seconds: float
    requests: int

    @property
    def decisions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.requests / self.wall_seconds


def trace_requests(
    trace: ArrivalTrace,
) -> list[AdmitRequest | ReleaseRequest]:
    """The trace as an ordered request stream (simulator event order).

    Request ids are call indices; releases carry the departure timestamp.
    """
    times = trace.times.tolist()
    holding = trace.holding_times.tolist()
    od_index = trace.od_index.tolist()
    uniforms = trace.uniforms.tolist()
    od_pairs = trace.od_pairs
    bandwidths = (
        trace.bandwidths.tolist() if trace.bandwidths is not None else None
    )
    requests: list[AdmitRequest | ReleaseRequest] = []
    departures: list[tuple[float, int]] = []
    for call, now in enumerate(times):
        while departures and departures[0][0] <= now:
            dep_time, dep_call = heapq.heappop(departures)
            requests.append(ReleaseRequest(id=dep_call, time=dep_time))
        requests.append(
            AdmitRequest(
                id=call,
                od=od_pairs[od_index[call]],
                uniform=uniforms[call],
                time=now,
                width=1 if bandwidths is None else bandwidths[call],
            )
        )
        heapq.heappush(departures, (now + holding[call], call))
    return requests


def aggregate_decisions(
    trace: ArrivalTrace,
    decisions: Sequence[Decision],
    warmup: float = 10.0,
) -> SimulationResult:
    """Fold replay decisions into the simulator's result shape.

    Only admission answers count; release answers (tier ``"release"``) are
    bookkeeping.  A call is measured iff it arrived at or after ``warmup``,
    and a measured unadmitted call is blocked whatever the reason
    (``blocked``, ``no-route``, ``shed``, ``degraded`` all lose the call).
    """
    num_pairs = len(trace.od_pairs)
    times = trace.times
    offered = [0] * num_pairs
    blocked = [0] * num_pairs
    od_index = trace.od_index.tolist()
    primary_carried = 0
    alternate_carried = 0
    for decision in decisions:
        if decision.tier == "release":
            continue
        call = decision.id
        if times[call] < warmup:
            continue
        pair = od_index[call]
        offered[pair] += 1
        if not decision.admitted:
            blocked[pair] += 1
        elif decision.tier == "alternate":
            alternate_carried += 1
        else:
            primary_carried += 1
    num_classes = len(trace.class_names)
    return SimulationResult(
        od_pairs=trace.od_pairs,
        offered=np.asarray(offered, dtype=np.int64),
        blocked=np.asarray(blocked, dtype=np.int64),
        primary_carried=primary_carried,
        alternate_carried=alternate_carried,
        warmup=float(warmup),
        duration=trace.duration,
        seed=trace.seed,
        class_names=trace.class_names,
        class_offered=np.zeros(num_classes, dtype=np.int64),
        class_blocked=np.zeros(num_classes, dtype=np.int64),
        dropped=None,
    )


def _batches(
    requests: Sequence[AdmitRequest | ReleaseRequest], size: int
) -> Iterator[Sequence[AdmitRequest | ReleaseRequest]]:
    for start in range(0, len(requests), size):
        yield requests[start : start + size]


def replay_trace(
    engine: RequestEngine,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    batch_size: int | None = None,
    speedup: float | None = None,
) -> ReplayReport:
    """Replay the trace through the in-process engine.

    ``batch_size=1`` decides serially (one :meth:`RequestEngine.decide`
    call per request — the per-request-overhead baseline); ``None`` uses
    the engine's ``batch.max_batch``.  Decisions are identical for every
    batch size.  ``speedup`` paces request *admission times* against the
    wall clock; ``None`` replays as fast as possible.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be positive")
    requests = trace_requests(trace)
    size = engine.batch.max_batch if batch_size is None else batch_size
    decisions: list[Decision] = []
    start = time.perf_counter()
    if speedup is not None:
        origin = time.perf_counter()
        for request in requests:
            if request.time is not None:
                due = origin + request.time / speedup
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            decisions.append(engine.decide(request))
    elif size == 1:
        for request in requests:
            decisions.append(engine.decide(request))
    else:
        for chunk in _batches(requests, size):
            decisions.extend(engine.decide_batch(chunk))
    elapsed = time.perf_counter() - start
    return ReplayReport(
        decisions=tuple(decisions),
        result=aggregate_decisions(trace, decisions, warmup),
        wall_seconds=elapsed,
        requests=len(requests),
    )


def _encode(request: AdmitRequest | ReleaseRequest) -> bytes:
    if isinstance(request, AdmitRequest):
        message = {
            "op": "admit",
            "id": request.id,
            "od": list(request.od),
            "u": request.uniform,
            "t": request.time,
            "w": request.width,
        }
    else:
        message = {"op": "release", "id": request.id, "t": request.time}
    return json.dumps(message).encode() + b"\n"


def _decode(line: bytes) -> Decision:
    answer = json.loads(line)
    if "error" in answer:
        raise RuntimeError(f"server rejected request: {answer['error']}")
    return Decision(
        id=answer["id"],
        admitted=answer["admitted"],
        route=None if answer["route"] is None else tuple(answer["route"]),
        tier=answer["tier"],
        reason=answer["reason"],
    )


async def replay_trace_socket(
    host: str,
    port: int,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    speedup: float | None = None,
) -> ReplayReport:
    """Replay the trace through a running :class:`ServeServer` socket.

    Requests are pipelined (the writer streams ahead while the reader
    collects answers), so the server's micro-batcher sees real queues.
    The decision list is position-matched to the request stream.
    """
    requests = trace_requests(trace)
    reader, writer = await asyncio.open_connection(host, port)
    decisions: list[Decision] = []
    start = time.perf_counter()

    async def send() -> None:
        if speedup is None:
            for request in requests:
                writer.write(_encode(request))
            await writer.drain()
        else:
            origin = time.perf_counter()
            for request in requests:
                if request.time is not None:
                    delay = origin + request.time / speedup - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                writer.write(_encode(request))
                await writer.drain()

    async def receive() -> None:
        for __ in range(len(requests)):
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed mid-replay")
            decisions.append(_decode(line))

    try:
        await asyncio.gather(send(), receive())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    elapsed = time.perf_counter() - start
    return ReplayReport(
        decisions=tuple(decisions),
        result=aggregate_decisions(trace, decisions, warmup),
        wall_seconds=elapsed,
        requests=len(requests),
    )


def measure_throughput(
    network,
    policy,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    batch_size: int | None = None,
    rounds: int = 3,
) -> dict:
    """Serial vs batched decision throughput on the identical request stream.

    Interleaved best-of-``rounds`` timing (alternating the two variants per
    round cancels CPU frequency drift); the two decision lists must be
    identical — batching may only amortize overhead, never change answers.
    Returns a JSON-ready dict with both rates and the speedup.
    """
    from .engine import BatchConfig

    requests = trace_requests(trace)
    batch = BatchConfig() if batch_size is None else BatchConfig(max_batch=batch_size)

    def serial() -> tuple[list[Decision], float]:
        engine = RequestEngine(network, policy)
        start = time.perf_counter()
        decisions = [engine.decide(request) for request in requests]
        return decisions, time.perf_counter() - start

    def batched() -> tuple[list[Decision], float]:
        engine = RequestEngine(network, policy, batch=batch)
        decisions: list[Decision] = []
        start = time.perf_counter()
        for chunk in _batches(requests, batch.max_batch):
            decisions.extend(engine.decide_batch(chunk))
        return decisions, time.perf_counter() - start

    best_serial = best_batched = float("inf")
    serial_decisions = batched_decisions = None
    for __ in range(rounds):
        serial_decisions, elapsed = serial()
        best_serial = min(best_serial, elapsed)
        batched_decisions, elapsed = batched()
        best_batched = min(best_batched, elapsed)
    if serial_decisions != batched_decisions:
        raise AssertionError("batched replay changed decisions vs serial")
    count = len(requests)
    return {
        "requests": count,
        "calls": len(trace.times),
        "batch_size": batch.max_batch,
        "serial_seconds": best_serial,
        "batched_seconds": best_batched,
        "serial_decisions_per_sec": count / best_serial,
        "batched_decisions_per_sec": count / best_batched,
        "speedup": best_serial / best_batched,
        "network_blocking": aggregate_decisions(
            trace, batched_decisions, warmup
        ).network_blocking,
    }


async def replay_trace_cluster(
    router,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    batch_size: int = 256,
) -> ReplayReport:
    """Replay the trace through a started :class:`ClusterRouter`.

    Requests go in ``batch_size`` batches, one after another.  With an
    ``ordered``-mode router and faults off, the report's decisions must
    be bit-identical to :func:`replay_trace` on an in-process engine —
    the cluster's replay-equivalence oracle.  A ``pipelined`` router
    decides each batch as one wave, so its decisions depend on
    ``batch_size``; they must equal the process-free wave reference in
    ``tests/oracles/cluster.py`` (``tests/test_cluster.py`` asserts both).
    """
    requests = trace_requests(trace)
    decisions: list[Decision] = []
    start = time.perf_counter()
    for chunk in _batches(requests, batch_size):
        decisions.extend(await router.submit_batch(list(chunk)))
    elapsed = time.perf_counter() - start
    return ReplayReport(
        decisions=tuple(decisions),
        result=aggregate_decisions(trace, decisions, warmup),
        wall_seconds=elapsed,
        requests=len(requests),
    )


def decisions_digest(decisions: Sequence[Decision]) -> str:
    """Stable SHA-256 over a decision list's JSON form.

    The smoke tooling compares digests across runs and across planes:
    equal digests mean bit-identical decisions without shipping the lists.
    """
    import hashlib

    payload = json.dumps(
        [d.to_json() for d in decisions], separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def measure_regime_shift(
    network,
    policy,
    trace: ArrivalTrace,
    shift_time: float,
    adaptation=None,
    warmup: float = 10.0,
    overload=None,
    bin_width: float = 5.0,
    settle_tolerance: float = 0.0,
    control=None,
) -> dict:
    """Replay a (typically nonstationary) trace and track threshold tracking.

    The regime-shift observability harness: replays the trace through an
    engine (adaptive when ``adaptation`` is an
    :class:`~repro.serve.state.AdaptationConfig`, static otherwise) and
    reports what an operator watching the telemetry would see —

    * ``recompute_count`` and per-refresh ``refresh_events`` (time and max
      |Δ threshold| of each Equation-15 recompute);
    * ``time_to_reconverge``: how long after ``shift_time`` the thresholds
      kept moving (last refresh whose max delta exceeds
      ``settle_tolerance``, relative to the shift; 0.0 if they never moved
      after the shift, ``None`` with adaptation off);
    * a ``trajectory`` of ``bin_width``-wide bins — offered, admitted,
      blocked, shed, degraded counts per bin — the shed-rate/blocking
      curve through the surge;
    * overall blocking and the decision digest (replays of the same trace
      must produce the same digest — determinism is part of the contract).

    ``control`` is an optional pre-built
    :class:`repro.control.loop.ControlLoop` (mutually exclusive with
    ``adaptation``): the replay then runs closed-loop, and the report
    carries the hot-swap events and final policy epoch so regime-shift
    plots can align decisions to the policy version that made them.

    Everything runs on request (virtual) time, so the whole report is a
    pure function of ``(trace, policy, adaptation, overload, control)``.
    """
    from .state import NetworkState

    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if adaptation is not None and control is not None:
        raise ValueError("pass either adaptation or control, not both")
    if control is not None:
        state = control.state
        engine = RequestEngine(
            network, policy, state=state, overload=overload, control=control
        )
    else:
        state = (
            None if adaptation is None
            else NetworkState(network, policy, adaptation)
        )
        engine = RequestEngine(network, policy, state=state, overload=overload)
    report = replay_trace(engine, trace, warmup=warmup)
    state = engine.state

    refresh_events = []
    previous_levels = None
    for refresh in state.refreshes:
        if previous_levels is None:
            # The constructor's seeding application: levels came from
            # initial_loads, not from observation — not a recompute.
            previous_levels = refresh.protection_levels
            continue
        delta = int(
            np.abs(refresh.protection_levels - previous_levels).max(initial=0)
        )
        refresh_events.append({"time": float(refresh.time), "max_delta": delta})
        previous_levels = refresh.protection_levels

    swap_events = [
        {"time": float(s.time), "epoch": int(s.epoch),
         "max_delta": float(s.max_delta)}
        for s in state.swaps
    ]

    if control is not None:
        moving = [
            e for e in swap_events
            if e["time"] >= shift_time and e["max_delta"] > settle_tolerance
        ]
        time_to_reconverge = (
            0.0 if not moving else moving[-1]["time"] - shift_time
        )
    elif adaptation is None:
        time_to_reconverge = None
    else:
        active = [
            e for e in refresh_events
            if e["time"] >= shift_time and e["max_delta"] > settle_tolerance
        ]
        time_to_reconverge = (
            0.0 if not active else active[-1]["time"] - shift_time
        )

    bins = int(np.ceil(trace.duration / bin_width))
    trajectory = [
        {"t0": b * bin_width, "offered": 0, "admitted": 0, "blocked": 0,
         "shed": 0, "degraded": 0}
        for b in range(bins)
    ]
    times = trace.times
    for decision in report.decisions:
        if decision.tier == "release":
            continue
        entry = trajectory[min(int(times[decision.id] // bin_width), bins - 1)]
        entry["offered"] += 1
        if decision.admitted:
            entry["admitted"] += 1
        elif decision.reason == "shed":
            entry["shed"] += 1
        elif decision.reason == "degraded":
            entry["degraded"] += 1
        else:
            entry["blocked"] += 1

    return {
        "calls": len(trace.times),
        "shift_time": float(shift_time),
        "adaptation": adaptation is not None,
        "recompute_count": state.recompute_count,
        "last_refresh_delta": state.last_refresh_delta,
        "refresh_events": refresh_events,
        "policy_epoch": int(state.policy_epoch),
        "swap_events": swap_events,
        "controlled": control is not None,
        "time_to_reconverge": time_to_reconverge,
        "bin_width": float(bin_width),
        "trajectory": trajectory,
        "network_blocking": report.result.network_blocking,
        "decisions_sha256": decisions_digest(report.decisions),
    }


def measure_surge_with_shard_kill(
    network,
    policy,
    trace: ArrivalTrace,
    num_shards: int = 3,
    kill_shard: int = 0,
    kill_after_ops: int = 800,
    chaos_seed: int = 3,
    warmup: float = 10.0,
    batch_size: int = 256,
    retry_timeout: float = 0.15,
) -> dict:
    """Correlated failure + overload: a surge trace through a cluster that
    loses (and recovers) one shard mid-run.

    Replays the trace — typically realized from a surge workload — through
    an ordered :class:`~repro.serve.cluster.ClusterRouter` whose
    ``kill_shard`` worker self-crashes after ``kill_after_ops`` commands
    (:class:`~repro.serve.chaos.ChaosConfig`).  Separates the two loss
    modes the tentpole study compares: calls *blocked* by admission policy
    (``blocked`` / ``no-route`` — the network said no) versus calls
    *dropped* by infrastructure (``shard-down`` and friends — the cluster
    couldn't answer), measured after ``warmup``.
    """
    from ..sim.sigpolicy import HoldTimerPolicy, RetryPolicy
    from .chaos import ChaosConfig
    from .cluster import ClusterConfig, ClusterRouter

    async def run():
        router = ClusterRouter(
            network, policy,
            ClusterConfig(
                num_shards=num_shards,
                mode="ordered",
                retry=RetryPolicy(timeout=retry_timeout, max_retries=5),
                hold=HoldTimerPolicy(duration=0.5),
                chaos=ChaosConfig(
                    seed=chaos_seed,
                    kill_after_ops={kill_shard: kill_after_ops},
                ),
            ),
        )
        async with router:
            report = await replay_trace_cluster(
                router, trace, warmup=warmup, batch_size=batch_size
            )
            restarts = dict(router.supervisor.restarts)
        return report, restarts

    report, restarts = asyncio.run(run())
    times = trace.times
    offered = admitted = blocked = dropped = 0
    drop_reasons: dict[str, int] = {}
    for decision in report.decisions:
        if decision.tier == "release" or times[decision.id] < warmup:
            continue
        offered += 1
        if decision.admitted:
            admitted += 1
        elif decision.reason in ("blocked", "no-route"):
            blocked += 1
        else:
            dropped += 1
            reason = decision.reason or "unknown"
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
    return {
        "calls": len(trace.times),
        "num_shards": num_shards,
        "kill_shard": kill_shard,
        "kill_after_ops": kill_after_ops,
        "restarts": restarts,
        "offered": offered,
        "admitted": admitted,
        "blocked": blocked,
        "dropped": dropped,
        "drop_reasons": drop_reasons,
        "blocked_fraction": blocked / offered if offered else 0.0,
        "dropped_fraction": dropped / offered if offered else 0.0,
        "network_blocking": report.result.network_blocking,
        "wall_seconds": report.wall_seconds,
    }


def measure_overload(
    network,
    policy,
    trace: ArrivalTrace,
    overload_factor: float = 2.0,
    warmup: float = 10.0,
) -> dict:
    """Replay under a token rate set ``overload_factor`` below the offered
    request rate, and report how the service protected itself.

    The token bucket runs on request (virtual) time, so the overload
    trajectory is deterministic for a fixed trace.  Returns shed/degraded
    fractions, the recorded mode transitions, and the decision-latency
    p99 from the engine's own histogram — the number that must stay
    bounded while the queue does.
    """
    from .shed import OverloadConfig, OverloadControl

    if overload_factor <= 0:
        raise ValueError("overload_factor must be positive")
    requests = trace_requests(trace)
    admits = len(trace.times)
    offered_rate = admits / trace.duration
    control = OverloadControl(
        OverloadConfig(rate=offered_rate / overload_factor, burst=64.0)
    )
    engine = RequestEngine(network, policy, overload=control)
    report = replay_trace(engine, trace, warmup=warmup)
    latency = engine.telemetry.histogram("serve_decision_seconds")
    answered = sum(1 for d in report.decisions if d.tier != "release")
    shed = sum(1 for d in report.decisions if d.reason == "shed")
    degraded = sum(1 for d in report.decisions if d.reason == "degraded")
    return {
        "requests": len(requests),
        "offered_rate": offered_rate,
        "token_rate": offered_rate / overload_factor,
        "overload_factor": overload_factor,
        "answered": answered,
        "shed": shed,
        "shed_fraction": shed / answered if answered else 0.0,
        "degraded_rejections": degraded,
        "mode_transitions": len(control.transitions),
        "final_mode": control.mode,
        "decision_p99_seconds": latency.quantile(0.99),
        "decision_mean_seconds": latency.mean,
        "wall_seconds": report.wall_seconds,
        "decisions_per_second": report.decisions_per_second,
    }
