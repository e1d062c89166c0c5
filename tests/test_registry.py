"""Tests for the experiment registry and its CLI surface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.experiments.runner import ReplicationConfig

TINY = ReplicationConfig(measured_duration=3.0, warmup=1.0, seeds=(0,))

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"

#: Names of the retired artifact subcommands, each now an alias of its id.
OLD_NAMES = [
    ("figure2", "FIG2"),
    ("table1", "TAB1"),
    ("quadrangle", "FIG3"),
    ("nsfnet", "FIG6"),
    ("bistability", "EXT-BIST"),
    ("dynamic-failures", "EXP-DYNFAIL"),
    ("theorem1", "THM1"),
    ("control-loop", "EXP-CTL"),
]


class TestRegistry:
    def test_ids_match_design_document(self):
        rows = set(re.findall(r"^\| ([A-Z0-9-]+) \|", DESIGN.read_text(), re.M))
        assert set(EXPERIMENTS) <= rows, set(EXPERIMENTS) - rows

    def test_bistability_report(self):
        report = run_experiment("EXT-BIST", TINY)
        assert "#fp(r=0)" in report

    def test_every_entry_names_a_benchmark_file(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        for experiment in EXPERIMENTS.values():
            assert (bench_dir / experiment.bench).exists(), experiment.bench

    def test_list_output(self):
        text = list_experiments()
        assert "FIG3" in text
        assert "bench_fig3_quadrangle.py" in text

    def test_run_analytic_experiments(self):
        fig2 = run_experiment("FIG2", TINY)
        assert "r(H=6)" in fig2
        tab1 = run_experiment("tab1", TINY)  # case-insensitive
        assert "agreement" in tab1

    def test_run_simulation_experiment(self):
        report = run_experiment("FIG3", TINY)
        assert "controlled" in report
        assert "single-path" in report

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("FIG99", TINY)


class TestCliIntegration:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "TAB1" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "FIG2", "--seeds", "1", "--duration", "3"]) == 0
        assert "Lambda" in capsys.readouterr().out

    @pytest.mark.parametrize("old_name, experiment_id", OLD_NAMES)
    def test_old_name_prints_what_the_id_prints(
        self, old_name, experiment_id, capsys
    ):
        flags = ["--seeds", "1", "--duration", "3"]
        assert main(["experiment", experiment_id, *flags]) == 0
        expected = capsys.readouterr().out
        assert main(["experiment", old_name, *flags]) == 0
        assert capsys.readouterr().out == expected


class TestRunAll:
    def test_report_contains_every_experiment(self, tmp_path):
        from repro.experiments.registry import run_all

        report = run_all(TINY)
        for experiment_id in EXPERIMENTS:
            assert f"## {experiment_id} " in report

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(
            ["report", "--seeds", "1", "--duration", "3", "--output", str(out)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert "Regenerated paper artifacts" in out.read_text()


class TestJobGraphs:
    def test_lab_runnable_ids(self):
        from repro.experiments.registry import lab_runnable_experiments

        runnable = lab_runnable_experiments()
        assert {"FIG3", "FIG6", "EXP-H6", "EXP-OK"} <= set(runnable)
        assert "FIG2" not in runnable  # analytic: nothing to simulate

    def test_fig3_graph_covers_every_load(self):
        from repro.experiments.figures import QUADRANGLE_LOADS
        from repro.experiments.registry import experiment_job_graph

        graph = experiment_job_graph("FIG3")
        assert len(graph) == len(QUADRANGLE_LOADS)
        loads = [scenario.traffic for scenario, __ in graph]
        assert loads == [float(load) for load in QUADRANGLE_LOADS]
        assert all(policies == ("single-path", "uncontrolled", "controlled")
                   for __, policies in graph)

    def test_h6_graph_restricts_hops(self):
        from repro.experiments.registry import experiment_job_graph

        graph = experiment_job_graph("EXP-H6")
        assert all(scenario.max_hops == 6 for scenario, __ in graph)

    def test_ott_krishnan_graph_adds_policy(self):
        from repro.experiments.registry import experiment_job_graph

        graph = experiment_job_graph("EXP-OK")
        assert all("ott-krishnan" in policies for __, policies in graph)

    def test_case_insensitive_and_errors(self):
        from repro.experiments.registry import experiment_job_graph

        assert experiment_job_graph("fig6") == experiment_job_graph("FIG6")
        with pytest.raises(KeyError, match="FIG99"):
            experiment_job_graph("FIG99")
        with pytest.raises(ValueError, match="FIG2"):
            experiment_job_graph("FIG2")
