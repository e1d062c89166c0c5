"""Tests for the experiment harness (runner, figures, tables, ablations, report)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import estimator_ablation, protection_sensitivity
from repro.experiments.figures import (
    figure2_protection_levels,
    nsfnet_sweep,
    quadrangle_sweep,
)
from repro.experiments.report import format_sweep, format_table, format_table1
from repro.experiments.runner import (
    PAPER_CONFIG,
    ReplicationConfig,
    compare_policies,
    run_replications_detailed,
)
from repro.experiments.tables import regenerate_table1, table1_agreement
from repro.routing.single_path import SinglePathRouting
from repro.traffic.generators import uniform_traffic


class TestReplicationConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.measured_duration == 100.0
        assert PAPER_CONFIG.warmup == 10.0
        assert PAPER_CONFIG.seeds == tuple(range(10))
        assert PAPER_CONFIG.duration == 110.0

    def test_scaled(self):
        cheap = PAPER_CONFIG.scaled(duration_factor=0.2, num_seeds=3)
        assert cheap.measured_duration == 20.0
        assert cheap.seeds == (0, 1, 2)


class TestRunner:
    def test_run_replications(self, quad_network, quad_table, fast_config):
        traffic = uniform_traffic(4, 80.0)
        policy = SinglePathRouting(quad_network, quad_table)
        outcome = run_replications_detailed(
            quad_network, policy, traffic, fast_config
        )
        stat, results = outcome.stat, outcome.results
        assert stat.num_runs == len(fast_config.seeds)
        assert len(results) == len(fast_config.seeds)
        assert 0.0 <= stat.mean <= 1.0

    def test_compare_policies_uses_common_traces(self, quad_network, quad_table, fast_config):
        traffic = uniform_traffic(4, 80.0)
        policies = {
            "a": SinglePathRouting(quad_network, quad_table),
            "b": SinglePathRouting(quad_network, quad_table),
        }
        comparison = compare_policies(quad_network, policies, traffic, fast_config)
        # Identical policies on common random numbers give identical stats.
        assert comparison["a"].values == comparison["b"].values


class TestFigures:
    def test_figure2_structure(self):
        curves = figure2_protection_levels()
        assert set(curves) == {2, 6, 120}
        loads, r = curves[6]
        assert loads.shape == r.shape == (100,)

    def test_quadrangle_sweep_small(self, fast_config):
        points = quadrangle_sweep(loads=(80.0, 95.0), config=fast_config)
        assert [p.load for p in points] == [80.0, 95.0]
        for point in points:
            assert set(point.blocking) == {"single-path", "uncontrolled", "controlled"}
            assert point.erlang_bound is not None
            assert point.erlang_bound <= 1.0

    def test_nsfnet_sweep_small(self, fast_config):
        points = nsfnet_sweep(load_values=(10.0,), config=fast_config)
        (point,) = points
        assert point.load == 10.0
        assert point.blocking["controlled"].mean <= 1.0

    def test_ott_krishnan_included_on_request(self, fast_config):
        points = quadrangle_sweep(
            loads=(85.0,), config=fast_config, include_ott_krishnan=True
        )
        assert "ott-krishnan" in points[0].blocking


class TestTable1:
    def test_all_loads_match(self):
        rows = regenerate_table1()
        assert len(rows) == 30
        assert all(row.load_matches for row in rows)

    def test_protection_agreement_high(self):
        summary = table1_agreement()
        assert summary["load_match_fraction"] == 1.0
        assert summary["protection_match_fraction"] >= 0.85
        assert summary["worst_protection_gap"] <= 2.0

    def test_h11_needs_at_least_h6_protection(self):
        for row in regenerate_table1():
            assert row.r_h11 >= row.r_h6


class TestAblations:
    def test_protection_sensitivity(self, quad_network, quad_table, fast_config):
        traffic = uniform_traffic(4, 90.0)
        outcome = protection_sensitivity(
            quad_network, quad_table, traffic, offsets=(-1, 0, 1), config=fast_config
        )
        assert set(outcome) == {-1, 0, 1}
        assert all(0.0 <= stat.mean <= 1.0 for stat in outcome.values())

    def test_estimator_ablation(self, quad_network, quad_table, fast_config):
        traffic = uniform_traffic(4, 85.0)
        outcome = estimator_ablation(
            quad_network, quad_table, traffic, config=fast_config,
            measurement_duration=30.0,
        )
        assert outcome["max_load_error"] < 20.0
        assert outcome["max_protection_gap"] <= 10
        # Robustness: estimated-r blocking within a few points of known-r.
        assert abs(outcome["known"].mean - outcome["estimated"].mean) < 0.05


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["x", "value"], [[1, 0.5], [20, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_small_numbers_scientific(self):
        text = format_table(["b"], [[1.5e-5]])
        assert "e-05" in text

    def test_format_sweep(self, fast_config):
        points = quadrangle_sweep(loads=(85.0,), config=fast_config)
        text = format_sweep(points, title="demo")
        assert text.startswith("demo")
        assert "single-path" in text
        assert "erlang-bound" in text

    def test_format_sweep_empty(self):
        assert format_sweep([]) == "(empty sweep)"

    def test_format_table1(self):
        text = format_table1(regenerate_table1())
        assert "0->1" in text
        assert "r(H=6)" in text
        assert len(text.splitlines()) == 32  # header + rule + 30 rows
