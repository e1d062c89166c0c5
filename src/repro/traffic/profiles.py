"""Time-varying load profiles and nonstationary arrival traces.

The paper evaluates stationary Poisson load, but its deployment story —
links continuously re-estimating their primary demand — only matters when
demand *moves*.  This module supplies the moving demand: a piecewise-
constant :class:`LoadProfile` scaling a base traffic matrix over time, and a
thinning-based nonstationary trace generator compatible with the standard
simulator (the trace format is unchanged; only the arrival instants follow
the profile).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
import numpy as np

from ..sim.rng import substream
from ..sim.trace import ArrivalTrace
from .matrix import TrafficMatrix

__all__ = ["LoadProfile", "generate_nonstationary_trace"]


@dataclass(frozen=True)
class LoadProfile:
    """A piecewise-constant multiplier on a base demand matrix.

    ``breakpoints`` are the times at which the multiplier changes;
    ``scales[i]`` applies on ``[breakpoints[i], breakpoints[i+1])`` and
    ``scales[0]`` before the first breakpoint — so ``len(scales) ==
    len(breakpoints) + 1``.  All scales must be non-negative.
    """

    breakpoints: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.breakpoints) + 1:
            raise ValueError(
                f"need {len(self.breakpoints) + 1} scales for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.scales)}"
            )
        for s in self.scales:
            if not math.isfinite(s):
                raise ValueError(f"scales must be finite, got {s!r}")
            if s < 0:
                raise ValueError("scales must be non-negative")
        for b in self.breakpoints:
            if not math.isfinite(b):
                raise ValueError(f"breakpoints must be finite, got {b!r}")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be sorted")

    @staticmethod
    def constant(scale: float = 1.0) -> "LoadProfile":
        return LoadProfile(breakpoints=(), scales=(scale,))

    @staticmethod
    def step(at: float, before: float, after: float) -> "LoadProfile":
        """A single load shift at time ``at`` (e.g. a surge or failover)."""
        return LoadProfile(breakpoints=(at,), scales=(before, after))

    @staticmethod
    def day_night(
        period: float, day_scale: float, night_scale: float, horizon: float
    ) -> "LoadProfile":
        """Alternating day/night scales of equal length up to ``horizon``."""
        if period <= 0 or horizon <= 0:
            raise ValueError("period and horizon must be positive")
        breakpoints = []
        scales = [day_scale]
        t = period / 2.0
        day = False
        while t < horizon:
            breakpoints.append(t)
            scales.append(day_scale if day else night_scale)
            day = not day
            t += period / 2.0
        return LoadProfile(tuple(breakpoints), tuple(scales))

    @staticmethod
    def pulse(start: float, end: float, scale: float, base: float = 1.0) -> "LoadProfile":
        """``base`` everywhere except ``[start, end)``, where ``scale`` holds.

        The building block of surge scenarios: a regional overload that
        arrives and clears.
        """
        if end <= start:
            raise ValueError("pulse end must lie after start")
        return LoadProfile(breakpoints=(start, end), scales=(base, scale, base))

    @property
    def max_scale(self) -> float:
        return max(self.scales)

    def scale_at(self, time: float) -> float:
        """The multiplier in force at ``time``."""
        return self.scales[bisect_right(self.breakpoints, time)]

    def mean_scale(self, duration: float) -> float:
        """The time-averaged multiplier over ``[0, duration)``.

        Piecewise-constant, so it integrates exactly (no sampling).
        """
        edges = [0.0] + [b for b in self.breakpoints if 0.0 < b < duration]
        edges.append(duration)
        return sum(
            self.scale_at(t0) * (t1 - t0) for t0, t1 in zip(edges, edges[1:])
        ) / duration

    def scales_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`scale_at` over an array of times."""
        scales = np.asarray(self.scales, dtype=float)
        if not self.breakpoints:
            return np.full(np.asarray(times).shape, scales[0])
        index = np.searchsorted(
            np.asarray(self.breakpoints, dtype=float), times, side="right"
        )
        return scales[index]

    def multiply(self, other: "LoadProfile") -> "LoadProfile":
        """The pointwise product profile (piecewise-constant again).

        Composition law of the workload layer: overlaying two workloads
        multiplies their per-pair profiles, so a diurnal baseline with a
        flash crowd on top is itself a :class:`LoadProfile`.
        """
        merged = sorted(set(self.breakpoints) | set(other.breakpoints))
        scales = tuple(
            self.scale_at(t) * other.scale_at(t)
            for t in [merged[0] - 1.0 if merged else 0.0] + merged
        )
        return LoadProfile(breakpoints=tuple(merged), scales=scales)


def generate_nonstationary_trace(
    traffic: TrafficMatrix,
    profile: LoadProfile,
    duration: float,
    seed: int,
) -> ArrivalTrace:
    """Arrivals of a Poisson process whose rate follows ``profile``.

    Standard thinning: draw a homogeneous process at the profile's peak rate
    and keep each arrival with probability ``scale(t) / max_scale``.  O-D
    marks, holding times and routing uniforms are drawn as in the
    stationary generator, so the result plugs into the simulator unchanged.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    pairs: list[tuple[int, int]] = []
    rates: list[float] = []
    for od, demand in traffic.positive_pairs():
        pairs.append(od)
        rates.append(demand)
    base_rate = float(sum(rates))
    peak = base_rate * profile.max_scale
    rng = substream(seed, "arrivals", "nonstationary")
    if peak == 0.0:
        empty = np.empty(0)
        return ArrivalTrace(
            od_pairs=tuple(pairs),
            times=empty,
            od_index=np.empty(0, dtype=np.int64),
            holding_times=empty.copy(),
            uniforms=empty.copy(),
            duration=float(duration),
            seed=seed,
        )
    count = int(rng.poisson(peak * duration))
    candidate_times = np.sort(rng.uniform(0.0, duration, size=count))
    acceptance = rng.uniform(0.0, 1.0, size=count)
    keep = acceptance * profile.max_scale < profile.scales_at(candidate_times)
    times = candidate_times[keep]
    kept = int(times.size)
    probabilities = np.asarray(rates) / base_rate
    od_index = rng.choice(len(pairs), size=kept, p=probabilities)
    return ArrivalTrace(
        od_pairs=tuple(pairs),
        times=times,
        od_index=od_index.astype(np.int64),
        holding_times=rng.exponential(1.0, size=kept),
        uniforms=rng.uniform(0.0, 1.0, size=kept),
        duration=float(duration),
        seed=seed,
    )
