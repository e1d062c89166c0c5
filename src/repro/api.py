"""Stable high-level façade over the reproduction's moving parts.

Most studies need the same wiring: pick a topology, pick a traffic matrix,
enumerate the path table, build one of the paper's routing policies, and run
the call-by-call simulator over one or many seeds.  The deep modules expose
every knob for that pipeline; this module exposes the pipeline itself.

:class:`Scenario` names the ingredients declaratively (strings for the
built-in topologies/traffic, or concrete objects for custom studies),
:func:`run_scenario` simulates a single seed, and :func:`run_study` runs the
paper's multi-seed replication protocol (optionally in parallel, optionally
for several policies on common random numbers).

The deep imports remain public and stable — this façade only composes them::

    from repro.api import Scenario, run_scenario, run_study

    result = run_scenario(Scenario(), seed=0)
    print(result.network_blocking)

    study = run_study(Scenario(policy="uncontrolled"), parallel=True)
    print(study.stat.mean, study.stat.half_width)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ._compat import resolve_backend
from .lab.config import LabConfig
from .experiments.runner import (
    PAPER_CONFIG,
    ReplicationConfig,
    ReplicationOutcome,
    run_replications_detailed,
)
from .routing.alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
    UncontrolledAlternateRouting,
)
from .routing.base import RoutingPolicy
from .routing.dar import DynamicAlternateRouting, PowerOfDAlternateRouting
from .routing.shadow import OttKrishnanRouting
from .routing.single_path import SinglePathRouting
from .sim.metrics import SimulationResult, SweepStatistic
from .sim.simulator import simulate
from .sim.trace import generate_trace
from .topology.generators import quadrangle
from .topology.graph import Network
from .topology.nsfnet import nsfnet_backbone
from .topology.paths import PathTable, build_path_table
from .traffic.calibration import nsfnet_nominal_traffic
from .traffic.demand import primary_link_loads
from .traffic.generators import uniform_traffic
from .traffic.matrix import TrafficMatrix
from .traffic.workload import Workload, build_workload, generate_workload_trace
from .sim.trace import ArrivalTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lab.scheduler import LabRunReport

__all__ = [
    "Scenario",
    "StudyResult",
    "LabConfig",
    "run_scenario",
    "run_study",
]


_TOPOLOGIES = {
    "nsfnet": nsfnet_backbone,
    "quadrangle": quadrangle,
}

_POLICIES = ("single-path", "uncontrolled", "controlled", "length-adaptive",
             "ott-krishnan", "dar", "power-of-d")


def _resolve_network(spec: Network | str) -> Network:
    if isinstance(spec, Network):
        return spec
    try:
        return _TOPOLOGIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown topology {spec!r}; use one of {sorted(_TOPOLOGIES)} "
            "or pass a Network"
        ) from None


def _resolve_traffic(spec: TrafficMatrix | str | float, network: Network,
                     topology_spec) -> TrafficMatrix:
    if isinstance(spec, TrafficMatrix):
        return spec
    if isinstance(spec, (int, float)):
        return uniform_traffic(network.num_nodes, float(spec))
    if spec == "nominal":
        if topology_spec != "nsfnet":
            raise ValueError(
                'traffic="nominal" is the calibrated NSFNet matrix; for other '
                "networks pass a TrafficMatrix or a per-pair Erlang value"
            )
        return nsfnet_nominal_traffic()
    raise ValueError(
        f"unknown traffic {spec!r}; use 'nominal', a per-pair Erlang value, "
        "or a TrafficMatrix"
    )


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One named experiment: topology + traffic + routing policy.

    Defaults reproduce the paper's headline setting — the NSFNet backbone
    under the calibrated nominal traffic, routed by the controlled
    alternate-routing scheme.  All fields are keyword-only.

    ``topology``
        ``"nsfnet"``, ``"quadrangle"``, or any :class:`Network`.
    ``traffic``
        ``"nominal"`` (NSFNet only), a per-pair Erlang value for a uniform
        matrix, or any :class:`TrafficMatrix`.  ``load_scale`` multiplies
        whatever matrix results.
    ``policy``
        One of ``single-path``, ``uncontrolled``, ``controlled``,
        ``length-adaptive``, ``ott-krishnan``, ``dar``, ``power-of-d``.
    ``max_hops``
        The paper's ``H`` (alternate-path hop cap); ``None`` = unrestricted.
    ``workload``
        ``None`` (stationary demand, the historical default), a spec string
        such as ``"flash-crowd"`` or ``"adversarial:7"``, or a concrete
        :class:`~repro.traffic.workload.Workload`.  When set, traces follow
        per-O-D-pair time-varying rates and the lab's cache keys include the
        workload's content.
    """

    topology: Network | str = "nsfnet"
    traffic: TrafficMatrix | str | float = "nominal"
    policy: str = "controlled"
    max_hops: int | None = None
    load_scale: float = 1.0
    workload: Workload | str | None = None

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; use one of {list(_POLICIES)}"
            )
        if self.load_scale <= 0:
            raise ValueError("load_scale must be positive")
        if isinstance(self.workload, str):
            from .traffic.workload import parse_workload_spec

            parse_workload_spec(self.workload)  # fail at construction, not use

    @cached_property
    def network(self) -> Network:
        """The resolved topology (built once, then cached)."""
        return _resolve_network(self.topology)

    @cached_property
    def traffic_matrix(self) -> TrafficMatrix:
        """The resolved traffic matrix, with ``load_scale`` applied."""
        matrix = _resolve_traffic(self.traffic, self.network, self.topology)
        return matrix if self.load_scale == 1.0 else matrix.scaled(self.load_scale)

    @cached_property
    def path_table(self) -> PathTable:
        """Primary + alternate path enumeration under ``max_hops``."""
        return build_path_table(self.network, max_hops=self.max_hops)

    def build_policy(self, name: str | None = None) -> RoutingPolicy:
        """Construct the routing policy (by default the scenario's own)."""
        name = self.policy if name is None else name
        network, table = self.network, self.path_table
        if name == "single-path":
            return SinglePathRouting(network, table)
        if name == "uncontrolled":
            return UncontrolledAlternateRouting(network, table)
        if name == "dar":
            return DynamicAlternateRouting(network, table)
        if name == "power-of-d":
            return PowerOfDAlternateRouting(network, table, d=2)
        loads = primary_link_loads(network, table, self.traffic_matrix)
        if name == "controlled":
            return ControlledAlternateRouting(network, table, loads)
        if name == "length-adaptive":
            return LengthAdaptiveControlledRouting(network, table, loads)
        if name == "ott-krishnan":
            return OttKrishnanRouting(network, table, loads)
        raise ValueError(f"unknown policy {name!r}; use one of {list(_POLICIES)}")

    def with_policy(self, name: str) -> "Scenario":
        """The same scenario under a different routing policy."""
        return replace(self, policy=name)

    @cached_property
    def _workloads(self) -> dict[float, Workload]:
        return {}

    def resolved_workload(self, horizon: float) -> Workload | None:
        """The concrete :class:`Workload`, or ``None`` for stationary demand.

        Spec strings are built against this scenario's network and traffic
        over ``[0, horizon)`` — the same spec on the same scenario always
        resolves to the same workload, so traces stay replayable.  Each
        horizon's workload is built once and shared (workloads are frozen).
        """
        if self.workload is None:
            return None
        if horizon not in self._workloads:
            self._workloads[horizon] = build_workload(
                self.workload, network=self.network, table=self.path_table,
                traffic=self.traffic_matrix, horizon=horizon,
            )
        return self._workloads[horizon]

    def make_trace(self, duration: float, seed: int) -> ArrivalTrace:
        """An arrival trace honouring the scenario's workload (if any).

        Stationary scenarios take the historical
        :func:`~repro.sim.trace.generate_trace` path bit for bit; workload
        scenarios thin per-O-D-pair substreams against their profiles.
        """
        workload = self.resolved_workload(duration)
        if workload is None:
            return generate_trace(self.traffic_matrix, duration, seed)
        return generate_workload_trace(
            self.traffic_matrix, workload, duration, seed
        )


@dataclass(frozen=True)
class StudyResult:
    """What :func:`run_study` returns: per-policy replication outcomes.

    Whichever engine ran, the per-seed accessors give the seed axis as
    arrays for the sole policy or the one named.  ``lab`` is populated only
    for lab-orchestrated runs (``run_study(..., lab=LabConfig(...))``): the
    pass's cache-hit / simulation / telemetry report.
    """

    outcomes: Mapping[str, ReplicationOutcome]
    config: ReplicationConfig
    lab: "LabRunReport | None" = None

    @property
    def outcome(self) -> ReplicationOutcome:
        """The sole outcome — only valid for single-policy studies."""
        if len(self.outcomes) != 1:
            raise ValueError(
                f"study ran {len(self.outcomes)} policies; index .outcomes by name"
            )
        return next(iter(self.outcomes.values()))

    @property
    def stat(self) -> SweepStatistic:
        """Aggregate network blocking of a single-policy study."""
        return self.outcome.stat

    def blocking(self) -> dict[str, SweepStatistic]:
        """Per-policy aggregate network blocking."""
        return {name: outcome.stat for name, outcome in self.outcomes.items()}

    def _outcome_for(self, policy: str | None) -> ReplicationOutcome:
        return self.outcome if policy is None else self.outcomes[policy]

    def seeds(self, policy: str | None = None) -> tuple[int, ...]:
        """The seeds simulated for ``policy``, in result order."""
        return tuple(result.seed for result in self._outcome_for(policy).results)

    def blocking_by_seed(self, policy: str | None = None) -> np.ndarray:
        """Network blocking probability per seed, shape ``(seeds,)``."""
        return np.array(
            [result.network_blocking for result in self._outcome_for(policy).results]
        )

    def offered_matrix(self, policy: str | None = None) -> np.ndarray:
        """Offered calls per seed and O-D pair, shape ``(seeds, pairs)``."""
        return np.stack(
            [result.offered for result in self._outcome_for(policy).results]
        )

    def blocked_matrix(self, policy: str | None = None) -> np.ndarray:
        """Blocked calls per seed and O-D pair, shape ``(seeds, pairs)``."""
        return np.stack(
            [result.blocked for result in self._outcome_for(policy).results]
        )

    @property
    def backends(self) -> dict[str, str]:
        """Which execution backend produced each policy's replications."""
        return {
            name: outcome.backend or "per-seed"
            for name, outcome in self.outcomes.items()
        }


def run_scenario(
    scenario: Scenario,
    *,
    seed: int = 0,
    duration: float = PAPER_CONFIG.duration,
    warmup: float = PAPER_CONFIG.warmup,
    backend: str | None = None,
) -> SimulationResult:
    """Simulate one seed of a scenario; returns the full per-pair result.

    ``duration`` is total simulated time including the ``warmup`` transient
    (the paper's protocol: 110 units, first 10 discarded).  ``backend``
    selects the simulation engine — ``"auto"`` (default), ``"fast"``, or
    ``"reference"`` for the unvectorized oracle loop; all produce
    bit-identical statistics.
    """
    resolved = resolve_backend(backend)
    trace = scenario.make_trace(duration, seed)
    return simulate(
        scenario.network, scenario.build_policy(), trace, warmup,
        backend=resolved,
    )


def run_study(
    scenario: Scenario,
    *,
    policies: tuple[str, ...] | None = None,
    config: ReplicationConfig = PAPER_CONFIG,
    parallel: bool = False,
    max_workers: int | None = None,
    seed_timeout: float | None = None,
    max_seed_retries: int = 1,
    lab: LabConfig | None = None,
    backend: str = "auto",
) -> StudyResult:
    """Run the paper's multi-seed replication protocol for a scenario.

    By default runs the scenario's own policy over ``config.seeds``;
    ``policies`` widens the study to several schemes on common random
    numbers (identical traces per seed, the paper's comparison discipline).
    ``parallel=True`` fans seeds over a process pool with the hardened
    runner's timeout/retry/fallback machinery.

    ``backend`` selects the execution engine per replication group.  Under
    ``"auto"`` the serial path groups compatible seeds into one lockstep
    batch-kernel invocation, falling back to the per-seed loops for
    configurations the kernel cannot express (and for parallel pools, which
    stay per-seed by construction); ``"fast"`` / ``"reference"`` force the
    per-seed loops.  Results are bit-identical across backends;
    ``StudyResult.backends`` names the engine behind each policy.

    ``lab=LabConfig(...)`` routes the study through :mod:`repro.lab`: each
    ``(policy, seed)`` replication is looked up in a content-addressed
    result store before simulating, finished jobs are checkpointed so an
    interrupted study resumes where it stopped, and progress is logged as
    JSONL telemetry.  The returned statistics are bit-identical to a direct
    run; the pass's report rides along as ``StudyResult.lab``.

    Per-seed diagnostics ride along on each policy's
    :class:`~repro.experiments.runner.ReplicationOutcome` as
    :class:`~repro.experiments.runner.SeedStatus` entries:
    ``SeedStatus.wall_clock`` is the successful attempt's in-process
    compute time in seconds (pool queueing excluded, ``None`` until the
    seed completes) and ``SeedStatus.cached`` marks seeds a lab pass
    served from its result store without simulating — so
    ``wall_clock`` then measures the store lookup, not a simulation.
    """
    backend = resolve_backend(backend)
    if lab is not None:
        from .lab.scheduler import run_lab_study

        return run_lab_study(
            scenario, policies=policies, config=config, lab=lab,
            parallel=parallel, max_workers=max_workers,
            seed_timeout=seed_timeout, max_seed_retries=max_seed_retries,
            backend=backend,
        )
    names = (scenario.policy,) if policies is None else tuple(policies)
    workload = scenario.resolved_workload(config.duration)
    traces = None
    if not parallel:
        traces = [
            scenario.make_trace(config.duration, seed) for seed in config.seeds
        ]
    outcomes: dict[str, ReplicationOutcome] = {}
    for name in names:
        outcomes[name] = run_replications_detailed(
            scenario.network, scenario.build_policy(name),
            scenario.traffic_matrix, config,
            traces=traces, parallel=parallel, max_workers=max_workers,
            seed_timeout=seed_timeout, max_seed_retries=max_seed_retries,
            workload=workload, backend=backend,
        )
    return StudyResult(outcomes=outcomes, config=config)
