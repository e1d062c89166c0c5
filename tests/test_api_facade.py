"""The ``repro.api`` façade and the keyword-only config shims."""

from __future__ import annotations

import pytest

from repro.api import Scenario, StudyResult, run_scenario, run_study
from repro.experiments.runner import ReplicationConfig
from repro.routing.alternate import ControlledAlternateRouting
from repro.sim.signaling import SignalingConfig
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.topology.paths import build_path_table
from repro.traffic.generators import uniform_traffic

QUICK = ReplicationConfig(measured_duration=5.0, warmup=1.0, seeds=(0, 1))


def _quick_scenario(**overrides) -> Scenario:
    defaults = dict(topology="quadrangle", traffic=90.0, policy="controlled")
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenario:
    def test_defaults_resolve_paper_setting(self):
        scenario = Scenario()
        assert scenario.network.num_nodes == 12
        assert scenario.traffic_matrix.total == pytest.approx(1015.6, abs=1.0)
        assert isinstance(scenario.build_policy(), ControlledAlternateRouting)

    def test_resolution_is_cached(self):
        scenario = Scenario(topology="quadrangle", traffic=2.0)
        assert scenario.network is scenario.network
        assert scenario.path_table is scenario.path_table

    def test_load_scale_applies(self):
        base = _quick_scenario()
        scaled = _quick_scenario(load_scale=1.5)
        assert scaled.traffic_matrix.total == pytest.approx(
            1.5 * base.traffic_matrix.total
        )

    def test_with_policy_keeps_everything_else(self):
        scenario = _quick_scenario(max_hops=2)
        other = scenario.with_policy("uncontrolled")
        assert other.policy == "uncontrolled"
        assert other.topology == scenario.topology
        assert other.max_hops == 2

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Scenario(policy="mystery")
        with pytest.raises(ValueError, match="unknown topology"):
            Scenario(topology="torus").network
        with pytest.raises(ValueError, match="nominal"):
            Scenario(topology="quadrangle", traffic="nominal").traffic_matrix
        with pytest.raises(ValueError, match="load_scale"):
            Scenario(load_scale=0.0)

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            Scenario("nsfnet")


class TestRunScenario:
    def test_matches_manual_wiring(self):
        scenario = _quick_scenario(policy="single-path")
        via_api = run_scenario(scenario, seed=4, duration=11.0, warmup=1.0)

        network = quadrangle()
        table = build_path_table(network)
        traffic = uniform_traffic(4, 90.0)
        from repro.routing.single_path import SinglePathRouting

        manual = simulate(
            network, SinglePathRouting(network, table),
            generate_trace(traffic, 11.0, 4), warmup=1.0,
        )
        assert via_api.network_blocking == manual.network_blocking
        assert via_api.total_offered == manual.total_offered

    def test_reference_backend_reaches_simulator(self):
        scenario = _quick_scenario()
        fast = run_scenario(scenario, seed=1, duration=6.0, warmup=1.0)
        ref = run_scenario(
            scenario, seed=1, duration=6.0, warmup=1.0, backend="reference"
        )
        assert fast.network_blocking == ref.network_blocking


class TestRunStudy:
    def test_single_policy_study(self):
        study = run_study(_quick_scenario(), config=QUICK)
        assert isinstance(study, StudyResult)
        assert set(study.outcomes) == {"controlled"}
        assert study.outcome.all_completed
        assert study.stat.num_runs == len(QUICK.seeds)

    def test_multi_policy_study_shares_traces(self):
        study = run_study(
            _quick_scenario(),
            policies=("single-path", "uncontrolled", "controlled"),
            config=QUICK,
        )
        blocking = study.blocking()
        assert set(blocking) == {"single-path", "uncontrolled", "controlled"}
        # Common random numbers: every policy saw identical arrivals.
        offered = {
            name: [r.total_offered for r in outcome.results]
            for name, outcome in study.outcomes.items()
        }
        assert offered["single-path"] == offered["uncontrolled"]
        assert offered["single-path"] == offered["controlled"]
        with pytest.raises(ValueError, match="policies"):
            study.outcome

    @pytest.mark.parametrize("lab", [False, True], ids=["direct", "lab"])
    def test_workload_built_once_per_study(self, lab, tmp_path, monkeypatch):
        import repro.api
        from repro.api import LabConfig

        calls = []
        build = repro.api.build_workload
        monkeypatch.setattr(repro.api, "build_workload",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        config = ReplicationConfig(measured_duration=5.0, warmup=1.0,
                                   seeds=(0, 1, 2))
        run_study(
            Scenario(topology="quadrangle", traffic=20.0,
                     workload="adversarial:7"),
            config=config, lab=LabConfig(store=tmp_path) if lab else None,
        )
        assert len(calls) == 1

    def test_top_level_reexports(self):
        import repro

        assert repro.Scenario is Scenario
        assert repro.run_scenario is run_scenario
        assert repro.run_study is run_study


class TestKeywordOnlyConfigs:
    def test_keyword_construction_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReplicationConfig(measured_duration=25.0)
            SignalingConfig(propagation_delay=0.01)

    def test_positional_overflow_and_duplicates_raise(self):
        with pytest.raises(TypeError, match="positional"):
            ReplicationConfig(1.0, 2.0, (0,), "extra")
        with pytest.raises(TypeError, match="positional"):
            ReplicationConfig(1.0, measured_duration=2.0)
        with pytest.raises(TypeError, match="positional"):
            SignalingConfig(0.01)
