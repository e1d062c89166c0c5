"""EXP-ADV: what nonstationary and adversarial demand does to the guarantee.

Theorem 1 is a stationary statement: under fixed Poisson demand, controlled
alternate routing with Equation-15 protection never loses to single-path
routing, and :func:`repro.analysis.erlang_bound.erlang_bound` lower-bounds
any scheme's blocking.  This study measures what happens when demand
*moves* — per-workload, it compares:

* **static** thresholds (Equation 15 computed once from the nominal
  demand, then frozen — the paper's deployment, blind to the shift);
* **adaptive** thresholds (links re-estimate demand by EWMA and recompute
  Equation 15 every window — the paper's "found from the primary call
  set-ups that fly past the link" loop, via
  :class:`repro.routing.adaptive.AdaptiveProtectionSimulator`);
* the **stationary Theorem-1 bound** evaluated on the time-averaged
  matrix — the reference line the workloads bend away from;

and, on the serving plane, how *fast* the online recompute tracks the
shift: :func:`repro.serve.loadgen.measure_regime_shift` reports recompute
counts, per-refresh threshold deltas and time-to-reconverge with
adaptation on versus off.

Workloads come from :mod:`repro.traffic.workload`; the adversarial one is
seeded, so every number here is replayable.  The study decomposes into a
lab job graph (one scenario per workload), which is how the cache-key
acceptance criterion is exercised: the workload spec is part of each job's
content key.
"""

from __future__ import annotations

import numpy as np

from ..analysis.erlang_bound import erlang_bound
from ..routing.adaptive import AdaptiveProtectionSimulator
from ..sim.metrics import aggregate
from ..sim.simulator import simulate
from ..traffic.demand import primary_link_loads
from .runner import PAPER_CONFIG, ReplicationConfig

__all__ = [
    "STUDY_WORKLOADS",
    "adversarial_load_study",
    "adversarial_load_scenarios",
]

#: The workloads EXP-ADV sweeps: the stationary control, the two headline
#: shapes from the issue, and the slow shift.
STUDY_WORKLOADS = ("stationary", "diurnal", "flash-crowd", "adversarial:0")

#: Serve-plane adaptation knobs used throughout the study (and EXP-CTL's).
_UPDATE_INTERVAL = 5.0
_EWMA_WEIGHT = 0.3


def _study_scenario(spec: str, max_hops: int, load_scale: float):
    from ..api import Scenario

    return Scenario(
        topology="nsfnet",
        traffic="nominal",
        policy="controlled",
        max_hops=max_hops,
        load_scale=load_scale,
        workload=None if spec == "stationary" else spec,
    )


def adversarial_load_scenarios(
    max_hops: int = 6, load_scale: float = 1.1
) -> list:
    """EXP-ADV's lab job graph: one controlled-policy study per workload."""
    return [
        (_study_scenario(spec, max_hops, load_scale), ("controlled",))
        for spec in STUDY_WORKLOADS
    ]


def _mean_scale(workload, duration: float, pairs_demands) -> float:
    """Time- and demand-averaged workload multiplier over ``[0, duration)``.

    Piecewise-constant profiles average exactly (no sampling): the bound
    comparison uses the *time-averaged* matrix, so a mass-conserving
    adversary and the stationary control face the same reference line.
    """
    if workload is None:
        return 1.0
    total_demand = sum(d for __, d in pairs_demands)
    if total_demand <= 0:
        return 1.0
    acc = 0.0
    for od, demand in pairs_demands:
        acc += demand * workload.profile_for(od).mean_scale(duration)
    return acc / total_demand


def adversarial_load_study(
    config: ReplicationConfig = PAPER_CONFIG,
    workloads: tuple[str, ...] = STUDY_WORKLOADS,
    max_hops: int = 6,
    load_scale: float = 1.1,
    serve_seed: int | None = None,
) -> dict:
    """Run the full EXP-ADV comparison; returns a JSON-ready document.

    Per workload: static vs adaptive blocking over ``config.seeds``
    (identical traces — common random numbers), the stationary Erlang
    bound on the time-averaged matrix, and the serve-plane regime-shift
    report (recompute on vs off) for one representative seed.
    """
    from ..serve.loadgen import measure_regime_shift
    from ..serve.state import AdaptationConfig

    reference = _study_scenario("stationary", max_hops, load_scale)
    network = reference.network
    table = reference.path_table
    traffic = reference.traffic_matrix
    nominal_loads = primary_link_loads(network, table, traffic)
    policy = reference.build_policy("controlled")
    pairs_demands = list(traffic.positive_pairs())
    seed0 = config.seeds[0] if serve_seed is None else serve_seed

    results: dict[str, dict] = {}
    for spec in workloads:
        scenario = _study_scenario(spec, max_hops, load_scale)
        workload = scenario.resolved_workload(config.duration)
        static_blocking = []
        adaptive_blocking = []
        update_counts = []
        for seed in config.seeds:
            trace = scenario.make_trace(config.duration, seed)
            static = simulate(network, policy, trace, config.warmup)
            static_blocking.append(static.network_blocking)
            adaptive_sim = AdaptiveProtectionSimulator(
                network, table, trace,
                warmup=config.warmup,
                update_interval=_UPDATE_INTERVAL,
                ewma_weight=_EWMA_WEIGHT,
                max_hops=max_hops,
                initial_loads=nominal_loads,
            )
            adaptive = adaptive_sim.run()
            adaptive_blocking.append(adaptive.network_blocking)
            update_counts.append(len(adaptive_sim.updates))

        mean_scale = _mean_scale(workload, config.duration, pairs_demands)
        bound = erlang_bound(network, traffic.scaled(mean_scale))

        shift = workload.shift_time if workload is not None else None
        serve_trace = scenario.make_trace(config.duration, seed0)
        adapt_cfg = AdaptationConfig(
            update_interval=_UPDATE_INTERVAL,
            ewma_weight=_EWMA_WEIGHT,
            max_hops=max_hops,
            initial_loads=tuple(float(x) for x in nominal_loads),
        )
        serve_on = measure_regime_shift(
            network, policy, serve_trace,
            shift_time=0.0 if shift is None else shift,
            adaptation=adapt_cfg, warmup=config.warmup,
        )
        serve_off = measure_regime_shift(
            network, policy, serve_trace,
            shift_time=0.0 if shift is None else shift,
            adaptation=None, warmup=config.warmup,
        )

        static_stat = aggregate(static_blocking)
        adaptive_stat = aggregate(adaptive_blocking)
        results[spec] = {
            "workload": spec,
            "shift_time": shift,
            "mean_load_scale": mean_scale,
            "static_blocking": {
                "mean": static_stat.mean, "half_width": static_stat.half_width,
            },
            "adaptive_blocking": {
                "mean": adaptive_stat.mean,
                "half_width": adaptive_stat.half_width,
            },
            "erlang_bound": bound,
            "static_excess_over_bound": static_stat.mean - bound,
            "adaptive_excess_over_bound": adaptive_stat.mean - bound,
            "threshold_updates_per_run": float(np.mean(update_counts)),
            "serve": {
                "recompute_on": {
                    "recompute_count": serve_on["recompute_count"],
                    "time_to_reconverge": serve_on["time_to_reconverge"],
                    "network_blocking": serve_on["network_blocking"],
                },
                "recompute_off": {
                    "recompute_count": serve_off["recompute_count"],
                    "time_to_reconverge": serve_off["time_to_reconverge"],
                    "network_blocking": serve_off["network_blocking"],
                },
            },
        }
    return {
        "topology": "nsfnet",
        "traffic": "nominal",
        "policy": "controlled",
        "max_hops": max_hops,
        "load_scale": load_scale,
        "update_interval": _UPDATE_INTERVAL,
        "ewma_weight": _EWMA_WEIGHT,
        "seeds": list(config.seeds),
        "measured_duration": config.measured_duration,
        "warmup": config.warmup,
        "workloads": results,
    }
