"""Routing policies: single-path, alternate (controlled/uncontrolled), shadow-price."""

from .alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
    UncontrolledAlternateRouting,
    per_link_max_hops,
)
from .adaptive import AdaptiveProtectionSimulator, simulate_adaptive
from .base import RouteChoice, RoutingPolicy, compile_route_choices
from .dar import DynamicAlternateRouting, PowerOfDAlternateRouting
from .estimator import EwmaRateEstimator, estimate_loads_from_trace
from .least_busy import LeastBusyAlternateRouting
from .minloss import MinLossSolution, optimize_primary_flows
from .shadow import OttKrishnanRouting, link_shadow_prices
from .single_path import SinglePathRouting
from .table import RouteTable

__all__ = [
    "RouteChoice",
    "RoutingPolicy",
    "compile_route_choices",
    "RouteTable",
    "SinglePathRouting",
    "UncontrolledAlternateRouting",
    "ControlledAlternateRouting",
    "LengthAdaptiveControlledRouting",
    "per_link_max_hops",
    "AdaptiveProtectionSimulator",
    "simulate_adaptive",
    "LeastBusyAlternateRouting",
    "DynamicAlternateRouting",
    "PowerOfDAlternateRouting",
    "OttKrishnanRouting",
    "link_shadow_prices",
    "MinLossSolution",
    "optimize_primary_flows",
    "EwmaRateEstimator",
    "estimate_loads_from_trace",
]
