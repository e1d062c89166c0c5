"""Tests for the keyword-only configs and ``repro._compat.resolve_backend``.

The public config dataclasses are keyword-only (positional construction
raises :class:`TypeError`), and every simulation entry point validates its
``backend=`` keyword through :func:`resolve_backend`; the old ``reference=``
boolean is gone.  These tests pin down both contracts directly instead of
relying on the incidental coverage the callers provide.
"""

from __future__ import annotations

import warnings

import pytest

from repro._compat import resolve_backend
from repro.experiments.runner import ReplicationConfig
from repro.sim.signaling import SignalingConfig


class TestReplicationConfigShim:
    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReplicationConfig(measured_duration=25.0)

    def test_too_many_positional_raises(self):
        with pytest.raises(TypeError, match="positional"):
            ReplicationConfig(25.0, 5.0, (0,), "extra")

    def test_duplicate_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="positional"):
            ReplicationConfig(25.0, measured_duration=30.0)


class TestSignalingConfigShim:
    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SignalingConfig(propagation_delay=1e-4)

    def test_positional_construction_raises(self):
        with pytest.raises(TypeError, match="positional"):
            SignalingConfig(1e-4)


class TestResolveBackend:
    def test_plain_backend_passes_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("auto", "batch", "fast", "reference"):
                assert resolve_backend(name) == name

    def test_defaults_to_auto(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None) == "auto"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")


class TestBackendShim:
    """The public entry points take ``backend=`` and nothing else."""

    def _scenario(self):
        from repro.api import Scenario

        return Scenario(topology="quadrangle", traffic=2.0, policy="controlled")

    def test_reference_flag_is_rejected(self):
        from repro.api import run_scenario
        from repro.sim.simulator import simulate
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 4.0, 0)
        policy = scenario.build_policy("controlled")
        with pytest.raises(TypeError, match="reference"):
            simulate(scenario.network, policy, trace, warmup=1.0,
                     reference=True)
        with pytest.raises(TypeError, match="reference"):
            run_scenario(scenario, seed=0, duration=4.0, warmup=1.0,
                         reference=True)

    def test_simulate_unknown_backend_raises(self):
        from repro.sim.simulator import simulate
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 4.0, 0)
        policy = scenario.build_policy("controlled")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate(scenario.network, policy, trace, warmup=1.0,
                     backend="warp")
