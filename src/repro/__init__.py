"""repro — controlled alternate routing in general-mesh packet flow networks.

A complete reproduction of Sibal & DeSimone, "Controlling Alternate Routing
in General-Mesh Packet Flow Networks" (ACM SIGCOMM 1994): the Theorem-1
state-protection machinery, the two-tier routing scheme, a call-by-call
loss-network simulator, the comparison baselines, and regeneration of every
table and figure in the paper's evaluation.

Quick tour (see README.md for the narrative)::

    from repro import (
        nsfnet_backbone, build_path_table, nsfnet_nominal_traffic,
        primary_link_loads, ControlledAlternateRouting,
        generate_trace, simulate,
    )

    net = nsfnet_backbone()
    table = build_path_table(net)
    traffic = nsfnet_nominal_traffic()
    loads = primary_link_loads(net, table, traffic)
    policy = ControlledAlternateRouting(net, table, loads)
    result = simulate(net, policy, generate_trace(traffic, 110.0, seed=0))
    print(result.network_blocking)
"""

from .api import (
    LabConfig,
    Scenario,
    StudyResult,
    run_scenario,
    run_study,
)
from .analysis import (
    FairnessReport,
    FixedPointResult,
    erlang_bound,
    erlang_fixed_point,
    fairness_report,
)
from .core import (
    BirthDeathChain,
    displacement_bound,
    erlang_b,
    figure2_curve,
    generalized_erlang_b,
    link_chain,
    min_protection_level,
    protection_levels,
    verify_theorem1,
)
from .routing import (
    ControlledAlternateRouting,
    MinLossSolution,
    OttKrishnanRouting,
    RoutingPolicy,
    SinglePathRouting,
    UncontrolledAlternateRouting,
    optimize_primary_flows,
)
from .sim import (
    ArrivalTrace,
    FailureScenario,
    LossNetworkSimulator,
    SimulationResult,
    apply_failures,
    generate_trace,
    simulate,
)
from .topology import (
    Network,
    build_path_table,
    fully_connected,
    min_hop_path,
    nsfnet_backbone,
    quadrangle,
    simple_paths_by_length,
)
from .traffic import (
    TrafficMatrix,
    nsfnet_nominal_traffic,
    primary_link_loads,
    uniform_traffic,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # façade
    "Scenario",
    "StudyResult",
    "LabConfig",
    "run_scenario",
    "run_study",
    # core
    "erlang_b",
    "generalized_erlang_b",
    "BirthDeathChain",
    "link_chain",
    "displacement_bound",
    "min_protection_level",
    "protection_levels",
    "figure2_curve",
    "verify_theorem1",
    # topology
    "Network",
    "fully_connected",
    "quadrangle",
    "nsfnet_backbone",
    "build_path_table",
    "min_hop_path",
    "simple_paths_by_length",
    # traffic
    "TrafficMatrix",
    "uniform_traffic",
    "nsfnet_nominal_traffic",
    "primary_link_loads",
    # routing
    "RoutingPolicy",
    "SinglePathRouting",
    "UncontrolledAlternateRouting",
    "ControlledAlternateRouting",
    "OttKrishnanRouting",
    "MinLossSolution",
    "optimize_primary_flows",
    # sim
    "ArrivalTrace",
    "generate_trace",
    "simulate",
    "LossNetworkSimulator",
    "SimulationResult",
    "FailureScenario",
    "apply_failures",
    # analysis
    "erlang_bound",
    "erlang_fixed_point",
    "FixedPointResult",
    "fairness_report",
    "FairnessReport",
]
