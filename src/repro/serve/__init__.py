"""repro.serve — the online admission-control service.

The offline stack answers "what *would* this policy have done" over a whole
trace; this package answers "what does the policy do for *this* call,
now".  It serves the same compiled route-choice tables and threshold
admission semantics as :mod:`repro.sim.simulator` — replaying a trace
through the service reproduces the simulator's decisions bit for bit —
wrapped in the machinery an online service needs: mutable network state
(:mod:`~repro.serve.state`), micro-batched request dispatch
(:mod:`~repro.serve.engine`), trunk-reservation-style self-protection
under overload (:mod:`~repro.serve.shed`), an asyncio JSON-lines socket
front end (:mod:`~repro.serve.server`), live metrics
(:mod:`~repro.serve.telemetry`) and the replay harness that proves the
equivalence (:mod:`~repro.serve.loadgen`).

For horizontal scale the state can be partitioned by link across shard
worker processes behind a fault-tolerant two-phase router
(:mod:`~repro.serve.cluster`, :mod:`~repro.serve.shard`,
:mod:`~repro.serve.supervisor`), with deterministic fault injection for
testing recovery (:mod:`~repro.serve.chaos`).
"""

from .chaos import ChaosConfig, MessageChaos
from .cluster import ClusterConfig, ClusterRouter, ReservationJournal
from .engine import AdmitRequest, BatchConfig, Decision, ReleaseRequest, RequestEngine
from .loadgen import (
    ReplayReport,
    aggregate_decisions,
    measure_overload,
    measure_throughput,
    replay_trace,
    replay_trace_cluster,
    replay_trace_socket,
    trace_requests,
)
from .server import ServeServer
from .state import partition_links
from .shed import MODES, OverloadConfig, OverloadControl, TokenBucket
from .state import AdaptationConfig, NetworkState, ThresholdRefresh
from .telemetry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "AdmitRequest",
    "ReleaseRequest",
    "Decision",
    "BatchConfig",
    "RequestEngine",
    "NetworkState",
    "AdaptationConfig",
    "ThresholdRefresh",
    "OverloadConfig",
    "OverloadControl",
    "TokenBucket",
    "MODES",
    "ServeServer",
    "ReplayReport",
    "trace_requests",
    "aggregate_decisions",
    "replay_trace",
    "replay_trace_socket",
    "measure_throughput",
    "measure_overload",
    "ClusterConfig",
    "ClusterRouter",
    "ReservationJournal",
    "ChaosConfig",
    "MessageChaos",
    "partition_links",
    "replay_trace_cluster",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
]
