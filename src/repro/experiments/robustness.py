"""Robustness studies: forecast error and dynamic mid-run link failures.

The paper's concluding remarks list, among alternate routing's benefits,
"less sensitivity of blocking performance to traffic estimates and network
engineering".  Two experiments stress that claim:

* :func:`forecast_error_sweep` — the network is *engineered* (primary
  paths, protection levels) against a nominal forecast, but the *actual*
  offered traffic is the forecast perturbed by i.i.d. lognormal noise per
  O-D pair.  Single-path routing eats the mismatch on whichever links the
  misforecast overloads; alternate routing spills the excess onto idle
  capacity elsewhere — so its blocking should degrade less as the forecast
  error grows.

* :func:`dynamic_failure_comparison` — the dynamic extension of the
  paper's static Section 4.2.2 failure study: a link fails *mid-run* and
  is later repaired, severing in-progress calls and leaving the routing
  policy stale until a reconvergence delay elapses.  Beyond blocking, this
  reports the drop rate, end-to-end availability and the time to recover
  after the repair, per policy, under common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from ..routing.base import RoutingPolicy
from ..routing.single_path import SinglePathRouting
from ..sim.faultplane import single_failure_timeline
from ..sim.metrics import SweepStatistic, aggregate
from ..sim.rng import substream
from ..sim.simulator import LossNetworkSimulator
from ..sim.trace import generate_trace
from ..topology.graph import Network
from ..topology.nsfnet import nsfnet_backbone
from ..topology.paths import PathTable, build_path_table
from ..traffic.calibration import nsfnet_nominal_traffic
from ..traffic.demand import primary_link_loads
from ..traffic.matrix import TrafficMatrix
from .runner import PAPER_CONFIG, ReplicationConfig, compare_policies

__all__ = [
    "perturbed_traffic",
    "forecast_error_sweep",
    "DynamicFailureReport",
    "dynamic_failure_comparison",
]


def perturbed_traffic(
    traffic: TrafficMatrix, sigma: float, seed: int
) -> TrafficMatrix:
    """Multiply each O-D demand by an independent lognormal factor.

    ``sigma`` is the standard deviation of the underlying normal; the factor
    is mean-one (``exp(sigma^2 / 2)`` compensated) so the *expected* total
    offered load is unchanged — only its spatial pattern is misforecast.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return traffic
    rng = substream(seed, "forecast-error")
    matrix = traffic.as_array()
    factors = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=matrix.shape)
    np.fill_diagonal(factors, 1.0)
    return TrafficMatrix(matrix * factors)


def forecast_error_sweep(
    network: Network,
    table: PathTable,
    nominal: TrafficMatrix,
    sigmas: Sequence[float] = (0.0, 0.3, 0.6, 1.0),
    config: ReplicationConfig = PAPER_CONFIG,
    perturbation_seed: int = 12_345,
) -> dict[float, dict[str, SweepStatistic]]:
    """Blocking vs forecast-error magnitude, policies sized for the nominal.

    Protection levels (and primary paths) come from the *nominal* matrix —
    the engineered state — while arrivals follow the perturbed matrix.  The
    same perturbation realization is used for every policy at a given
    ``sigma`` (and, through the config seeds, the same arrival processes).
    """
    nominal_loads = primary_link_loads(network, table, nominal)
    policies = {
        "single-path": SinglePathRouting(network, table),
        "uncontrolled": UncontrolledAlternateRouting(network, table),
        "controlled": ControlledAlternateRouting(network, table, nominal_loads),
    }
    outcome: dict[float, dict[str, SweepStatistic]] = {}
    for sigma in sigmas:
        actual = perturbed_traffic(nominal, float(sigma), perturbation_seed)
        outcome[float(sigma)] = compare_policies(network, policies, actual, config)
    return outcome


#: EXP-DYNFAIL's setting: NSFNet at 1.2x nominal, duplex link 2<->3 fails,
#: and policies rebuild 2 time units after each topology change.
_DYNFAIL_LOAD_SCALE = 1.2
_DYNFAIL_DUPLEX = (2, 3)
_DYNFAIL_RECONVERGENCE_DELAY = 2.0


@dataclass(frozen=True)
class DynamicFailureReport:
    """Per-policy outcome of the dynamic-failure study, aggregated over seeds.

    ``blocking`` and ``drop_rate`` are the usual measured-window fractions;
    ``availability`` is one minus both; ``time_to_recover`` is the time from
    the repair instant until the binned loss fraction first returns to the
    run's own pre-failure baseline (in holding-time units).
    """

    blocking: SweepStatistic
    drop_rate: SweepStatistic
    availability: SweepStatistic
    time_to_recover: SweepStatistic


def _default_policy_factories(
    traffic: TrafficMatrix,
) -> dict[str, Callable[[Network], RoutingPolicy]]:
    """The paper's three schemes as rebuildable factories.

    Each factory derives its tables (and, for the controlled scheme, its
    protection levels) from whatever topology it is handed — so the same
    factory builds the initial policy and the reconverged one after a fault
    changes the link set.  Protection is always sized against the *offered*
    traffic, the engineered-state discipline of the static failure study.
    """

    def single_path(net: Network) -> RoutingPolicy:
        return SinglePathRouting(net, build_path_table(net))

    def uncontrolled(net: Network) -> RoutingPolicy:
        return UncontrolledAlternateRouting(net, build_path_table(net))

    def controlled(net: Network) -> RoutingPolicy:
        table = build_path_table(net)
        loads = primary_link_loads(net, table, traffic)
        return ControlledAlternateRouting(net, table, loads)

    return {
        "single-path": single_path,
        "uncontrolled": uncontrolled,
        "controlled": controlled,
    }


def dynamic_failure_comparison(
    config: ReplicationConfig = PAPER_CONFIG,
    fail_fraction: float = 0.2,
    repair_fraction: float = 0.5,
    num_bins: int = 20,
    factories: Mapping[str, Callable[[Network], RoutingPolicy]] | None = None,
) -> dict[str, DynamicFailureReport]:
    """The paper's failure study made dynamic: fail mid-run, repair, recover.

    On NSFNet at 1.2 times the nominal traffic, duplex link 2<->3 fails at
    ``warmup + fail_fraction * measured_duration`` and is repaired at
    ``warmup + repair_fraction * measured_duration`` (the paper-config
    defaults put these at t=30 and t=60).  In-progress calls on the link
    are dropped; each policy keeps routing on stale tables for 2 time units
    after each topology change, then is rebuilt from its factory against
    the changed topology.

    All policies replay identical arrival traces (common random numbers),
    and every per-seed simulation is fully deterministic, so the whole
    comparison is reproducible bit for bit.
    """
    network = nsfnet_backbone()
    traffic = nsfnet_nominal_traffic().scaled(_DYNFAIL_LOAD_SCALE)
    if factories is None:
        factories = _default_policy_factories(traffic)
    measured = config.measured_duration
    fail_at = config.warmup + fail_fraction * measured
    repair_at = config.warmup + repair_fraction * measured
    if not config.warmup <= fail_at < repair_at < config.duration:
        raise ValueError(
            f"failure window [{fail_at:g}, {repair_at:g}] must lie inside the "
            f"measured interval [{config.warmup:g}, {config.duration:g})"
        )
    timeline = single_failure_timeline(
        *_DYNFAIL_DUPLEX, fail_at=fail_at, repair_at=repair_at
    )
    bin_width = config.duration / num_bins
    traces = [generate_trace(traffic, config.duration, seed) for seed in config.seeds]

    reports: dict[str, DynamicFailureReport] = {}
    for name, factory in factories.items():
        blocking, drops, availability, recovery = [], [], [], []
        for trace in traces:
            simulator = LossNetworkSimulator(
                network,
                factory(network),
                trace,
                warmup=config.warmup,
                faults=timeline,
                reconvergence_delay=_DYNFAIL_RECONVERGENCE_DELAY,
                rebuild_policy=factory,
                timeline_bin=bin_width,
            )
            result = simulator.run()
            series = simulator.binned_series
            # The recovery baseline is this run's own steady loss before the
            # failure: the mean loss fraction over the measured bins that end
            # before the link goes down.
            loss = series.loss_fraction()
            pre_failure = [
                loss[i]
                for i in range(series.num_bins)
                if series.bin_start(i) >= config.warmup
                and (i + 1) * bin_width <= fail_at
                and series.offered[i] > 0
            ]
            baseline = float(np.mean(pre_failure)) if pre_failure else 0.0
            blocking.append(result.network_blocking)
            drops.append(result.network_drop_rate)
            availability.append(result.availability)
            recovery.append(series.time_to_recover(repair_at, baseline))
        reports[name] = DynamicFailureReport(
            blocking=aggregate(blocking),
            drop_rate=aggregate(drops),
            availability=aggregate(availability),
            time_to_recover=aggregate(recovery),
        )
    return reports
