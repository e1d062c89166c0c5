"""Tests for sweep persistence and the methodology (convergence) study."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.convergence import seed_convergence, warmup_sensitivity
from repro.experiments.runner import ReplicationConfig, SweepPoint
from repro.experiments.storage import load_sweep, save_sweep
from repro.sim.metrics import SweepStatistic
from repro.routing.single_path import SinglePathRouting
from repro.routing.alternate import UncontrolledAlternateRouting
from repro.traffic.generators import uniform_traffic


def make_points():
    point = SweepPoint(load=90.0)
    point.erlang_bound = 0.01
    point.blocking = {
        "single-path": SweepStatistic(0.05, 0.01, 0.004, 3, (0.04, 0.05, 0.06)),
        "controlled": SweepStatistic(0.03, 0.005, 0.002, 3, (0.025, 0.03, 0.035)),
    }
    return [point]


class TestStorage:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.json"
        config = ReplicationConfig(measured_duration=40.0, warmup=10.0, seeds=(0, 1, 2))
        save_sweep(path, make_points(), config=config, title="demo")
        points, loaded_config, title = load_sweep(path)
        assert title == "demo"
        assert loaded_config == config
        assert len(points) == 1
        assert points[0].load == 90.0
        assert points[0].erlang_bound == 0.01
        original = make_points()[0].blocking["single-path"]
        restored = points[0].blocking["single-path"]
        assert restored.mean == original.mean
        assert restored.values == original.values

    def test_no_config(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(path, make_points())
        __, config, title = load_sweep(path)
        assert config is None
        assert title == ""

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "points": []}))
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_file_is_human_readable_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(path, make_points(), title="x")
        document = json.loads(path.read_text())
        assert document["schema"] == "repro-sweep-v2"
        assert document["points"][0]["blocking"]["controlled"]["mean"] == 0.03

    def test_legacy_v1_file_is_refused(self, tmp_path):
        # v1 files predate provenance and are no longer migrated on load.
        path = tmp_path / "sweep.json"
        save_sweep(path, make_points(), title="legacy")
        document = json.loads(path.read_text())
        document["schema"] = "repro-sweep-v1"
        del document["provenance"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="'repro-sweep-v1'"):
            load_sweep(path)

    def test_provenance_mismatch_warns(self, tmp_path):
        from repro.experiments.storage import ProvenanceWarning

        path = tmp_path / "sweep.json"
        config = ReplicationConfig(measured_duration=40.0, warmup=10.0, seeds=(0, 1))
        save_sweep(path, make_points(), config=config)
        document = json.loads(path.read_text())
        document["provenance"]["repro_version"] = "0.0.0-other"
        path.write_text(json.dumps(document))
        with pytest.warns(ProvenanceWarning, match="0.0.0-other"):
            load_sweep(path)

    def test_edited_config_warns(self, tmp_path):
        from repro.experiments.storage import ProvenanceWarning

        path = tmp_path / "sweep.json"
        config = ReplicationConfig(measured_duration=40.0, warmup=10.0, seeds=(0, 1))
        save_sweep(path, make_points(), config=config)
        document = json.loads(path.read_text())
        document["config"]["seeds"] = [0, 1, 2, 3]
        path.write_text(json.dumps(document))
        with pytest.warns(ProvenanceWarning, match="config hash"):
            load_sweep(path)


class TestWarmupSensitivity:
    def test_zero_warmup_biases_low(self, quad_network, quad_table):
        # Starting from an idle network, early calls never block: measuring
        # from t=0 underestimates steady-state blocking.
        traffic = uniform_traffic(4, 95.0)
        policy = SinglePathRouting(quad_network, quad_table)
        outcome = warmup_sensitivity(
            quad_network, policy, traffic,
            warmups=(0.0, 10.0), measured_duration=30.0, seeds=range(4),
        )
        assert outcome[0.0].mean < outcome[10.0].mean

    def test_long_warmups_agree(self, quad_network, quad_table):
        # Past the transient, further warm-up changes nothing systematic.
        traffic = uniform_traffic(4, 95.0)
        policy = UncontrolledAlternateRouting(quad_network, quad_table)
        outcome = warmup_sensitivity(
            quad_network, policy, traffic,
            warmups=(10.0, 20.0), measured_duration=40.0, seeds=range(4),
        )
        assert outcome[10.0].mean == pytest.approx(outcome[20.0].mean, abs=0.03)

    def test_empty_warmups_rejected(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 10.0)
        policy = SinglePathRouting(quad_network, quad_table)
        with pytest.raises(ValueError):
            warmup_sensitivity(quad_network, policy, traffic, warmups=())


class TestSeedConvergence:
    def test_half_width_shrinks(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 95.0)
        policy = SinglePathRouting(quad_network, quad_table)
        outcome = seed_convergence(
            quad_network, policy, traffic,
            seed_counts=(5, 20), measured_duration=20.0,
        )
        assert outcome[20].half_width < outcome[5].half_width

    def test_means_consistent(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 95.0)
        policy = SinglePathRouting(quad_network, quad_table)
        outcome = seed_convergence(
            quad_network, policy, traffic,
            seed_counts=(5, 10), measured_duration=20.0,
        )
        assert outcome[5].mean == pytest.approx(outcome[10].mean, abs=0.03)

    def test_small_counts_rejected(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 10.0)
        policy = SinglePathRouting(quad_network, quad_table)
        with pytest.raises(ValueError):
            seed_convergence(quad_network, policy, traffic, seed_counts=(1,))


class TestParallelRunner:
    def test_parallel_matches_serial_bitwise(self, quad_network, quad_table):
        import numpy as np

        from repro.experiments.runner import (
            ReplicationConfig,
            run_replications_detailed,
        )
        from repro.routing.alternate import UncontrolledAlternateRouting

        config = ReplicationConfig(measured_duration=10.0, warmup=2.0, seeds=(0, 1, 2))
        traffic = uniform_traffic(4, 90.0)
        policy = UncontrolledAlternateRouting(quad_network, quad_table)
        serial = run_replications_detailed(quad_network, policy, traffic, config)
        parallel = run_replications_detailed(
            quad_network, policy, traffic, config, parallel=True, max_workers=2
        )
        assert parallel.stat.values == serial.stat.values
        for a, b in zip(serial.results, parallel.results):
            assert np.array_equal(a.blocked, b.blocked)
            assert a.seed == b.seed


class TestOptimalReservation:
    def test_sweep_structure(self, quad_network, quad_table):
        from repro.experiments.optimal_r import uniform_reservation_sweep
        from repro.experiments.runner import ReplicationConfig

        config = ReplicationConfig(measured_duration=10.0, warmup=2.0, seeds=(0, 1))
        traffic = uniform_traffic(4, 95.0)
        sweep = uniform_reservation_sweep(
            quad_network, quad_table, traffic, (0, 10, 100), config
        )
        assert set(sweep) == {0, 10, 100}
        assert all(0.0 <= s.mean <= 1.0 for s in sweep.values())

    def test_invalid_reservation_rejected(self, quad_network, quad_table):
        from repro.experiments.optimal_r import uniform_reservation_sweep

        traffic = uniform_traffic(4, 10.0)
        with pytest.raises(ValueError):
            uniform_reservation_sweep(quad_network, quad_table, traffic, (101,))

    def test_empirical_optimum_fields(self, quad_network, quad_table):
        from repro.experiments.optimal_r import empirical_optimal_reservation
        from repro.experiments.runner import ReplicationConfig

        config = ReplicationConfig(measured_duration=12.0, warmup=3.0, seeds=(0, 1))
        traffic = uniform_traffic(4, 95.0)
        result = empirical_optimal_reservation(
            quad_network, quad_table, traffic, (0, 6, 15, 100), config
        )
        assert result["best_r"] in (0, 6, 15, 100)
        assert result["equation15_r"] == 15  # Lambda=95, C=100, H=3
        assert result["penalty"] >= 0.0


class TestParallelComparePolicies:
    def test_parallel_preserves_common_random_numbers(self, quad_network, quad_table):
        from repro.experiments.runner import ReplicationConfig, compare_policies
        from repro.routing.single_path import SinglePathRouting

        config = ReplicationConfig(measured_duration=8.0, warmup=2.0, seeds=(0, 1))
        traffic = uniform_traffic(4, 90.0)
        policies = {
            "a": SinglePathRouting(quad_network, quad_table),
            "b": SinglePathRouting(quad_network, quad_table),
        }
        serial = compare_policies(quad_network, policies, traffic, config)
        parallel = compare_policies(
            quad_network, policies, traffic, config, parallel=True, max_workers=2
        )
        assert parallel["a"].values == serial["a"].values
        assert parallel["a"].values == parallel["b"].values  # CRN intact
