"""Uncontrolled and controlled (state-protected) alternate routing.

Both tiers work the same way: the primary path is tried first; if any of its
links is full, loop-free alternates are attempted in order of increasing hop
length.  They differ in the per-link admission rule for *alternate* calls:

* **uncontrolled** — an alternate call needs only a free circuit on every
  link (threshold ``C``);
* **controlled** — additionally, every link must be below its
  state-protection threshold: occupancy strictly less than ``C - r`` where
  ``r`` is the Theorem-1 level of :func:`repro.core.min_protection_level`.
  Links whose primary demand is so high that no ``r <= C`` meets the
  Equation-15 test get ``r = C`` — they never carry alternate traffic
  (Table 1's overloaded links).

Primary calls are never subject to the threshold: state protection gives
primary traffic strict priority over alternate traffic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.protection import min_protection_levels
from ..topology.graph import Network
from ..topology.paths import Path, PathTable
from .base import RoutingPolicy, compile_route_choices

__all__ = [
    "UncontrolledAlternateRouting",
    "ControlledAlternateRouting",
    "LengthAdaptiveControlledRouting",
    "per_link_max_hops",
]


def per_link_max_hops(network: Network, table: PathTable) -> np.ndarray:
    """Per-link ``H^k``: the longest alternate path that traverses each link.

    Footnote 5 of the paper: instead of one global ``H``, "each link k can
    pick its own H^k, which would be the maximum hop-length of alternate-
    routed calls that traverse link k" — links only crossed by short
    alternates then protect less.  Links on no alternate path get 1 (their
    level is irrelevant; no alternate call ever asks).
    """
    hops = np.ones(network.num_links, dtype=np.int64)
    for od in table.od_pairs():
        for path in table.alternates.get(od, ()):
            length = len(path) - 1
            for link_index in network.path_links(path):
                if length > hops[link_index]:
                    hops[link_index] = length
    return hops


class UncontrolledAlternateRouting(RoutingPolicy):
    """Alternate routing with no control: any idle capacity is fair game."""

    name = "uncontrolled"
    discipline = "threshold"

    def __init__(
        self,
        network: Network,
        table: PathTable,
        splits: Mapping[tuple[int, int], Sequence[tuple[Path, float]]] | None = None,
        max_alternates: int | None = None,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, splits=splits,
            max_alternates=max_alternates,
        )
        super().__init__(network, choices, cum_probs)
        self.alt_thresholds = network.capacities()


class ControlledAlternateRouting(RoutingPolicy):
    """The paper's scheme: alternate routing tamed by state protection.

    ``primary_loads`` is the per-link primary demand ``Lambda^k`` (link-index
    order), normally from :func:`repro.traffic.primary_link_loads`; the paper
    assumes links know it a priori (its robustness makes estimation error
    benign — see the estimator ablation).  ``max_hops`` is the design
    parameter ``H``; it defaults to the table's hop limit, i.e. alternate
    paths as long as loop-freedom allows.

    ``protection_levels`` (link-index order) and per-link thresholds are
    exposed for inspection and for the Table-1 benchmark.
    """

    name = "controlled"
    discipline = "threshold"

    def __init__(
        self,
        network: Network,
        table: PathTable,
        primary_loads: np.ndarray,
        max_hops: int | None = None,
        per_link_hops: np.ndarray | None = None,
        protection_override: np.ndarray | None = None,
        splits: Mapping[tuple[int, int], Sequence[tuple[Path, float]]] | None = None,
        max_alternates: int | None = None,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, splits=splits,
            max_alternates=max_alternates,
        )
        super().__init__(network, choices, cum_probs)
        loads = self._link_loads(primary_loads)
        if max_hops is not None and per_link_hops is not None:
            raise ValueError("pass either max_hops or per_link_hops, not both")
        capacities = network.capacities()
        if per_link_hops is not None:
            hop_arr = np.asarray(per_link_hops, dtype=np.int64)
            if hop_arr.shape != (network.num_links,):
                raise ValueError("per_link_hops must be per-link")
            if (hop_arr < 1).any():
                raise ValueError("per-link hop limits must be >= 1")
            hops: int | np.ndarray = hop_arr
        else:
            hops = table.max_hops if max_hops is None else max_hops
        if protection_override is not None:
            levels = np.asarray(protection_override, dtype=np.int64)
            if levels.shape != (network.num_links,):
                raise ValueError("protection_override must be per-link")
            if (levels < 0).any() or (levels > capacities).any():
                raise ValueError("protection levels must lie in [0, capacity]")
        else:
            levels = min_protection_levels(loads, capacities, hops)
        self.max_hops = hops
        self.primary_loads = loads
        self.protection_levels = levels
        self.alt_thresholds = capacities - levels


class LengthAdaptiveControlledRouting(RoutingPolicy):
    """State protection keyed to the *actual* hop length of each alternate.

    Section 3.2 observes that the global-``H`` levels of Equation 15 "may be
    more conservative than they need to be".  This refinement keeps the
    guarantee with a tighter budget: an alternate path of exactly ``h`` hops
    only needs every link's displacement bound at or below ``1/h`` — so each
    link holds a *vector* of levels ``r(h) = min r : bound <= 1/h`` and an
    admission test that depends on the attempted path's length.  Short
    alternates face laxer thresholds; the Theorem-1 argument applies per
    path, so the better-than-single-path guarantee is preserved.
    """

    name = "length-adaptive"
    discipline = "length-threshold"

    def __init__(
        self,
        network: Network,
        table: PathTable,
        primary_loads: np.ndarray,
        splits: Mapping[tuple[int, int], Sequence[tuple[Path, float]]] | None = None,
    ):
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True, splits=splits
        )
        super().__init__(network, choices, cum_probs)
        loads = self._link_loads(primary_loads)
        capacities = network.capacities()
        self.primary_loads = loads
        # Alternate link-tuples have length == hop count; build a threshold
        # table for every hop length that actually occurs.
        lengths = {
            len(alt)
            for entries in self.choices.values()
            for choice in entries
            for alt in choice.alternates
        }
        self.protection_by_length: dict[int, np.ndarray] = {}
        self.length_thresholds: dict[int, list[int]] = {}
        for length in sorted(lengths) or [1]:
            levels = min_protection_levels(loads, capacities, length)
            self.protection_by_length[length] = levels
            self.length_thresholds[length] = (capacities - levels).tolist()
