"""The contract of the one study path.

Every study — ``run_study`` direct or through the lab, ``compare_policies``,
the paper's sweeps and the CLI's ``evaluate`` — runs its policies on shared
traces through one loop.  These tests pin what that loop must preserve:

* **digest pins** — SHA-256 over the full-precision numbers of the sweeps,
  the fairness and general-mesh comparisons and ``evaluate --json``;
* **trace counts** — one ``generate_trace`` call per seed that still has a
  job to run, whatever the number of policies;
* **one definition per sweep** — ``lab run --experiment`` and
  ``experiment`` give the same per-policy values;
* **policy lists** — an empty, repeated or unknown policy list fails before
  any work, in the API and at the CLI;
* **retries** — ``compare_policies`` honours ``max_seed_retries``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import cli
from repro.api import LabConfig, Scenario, run_study
from repro.experiments.runner import ReplicationConfig
from repro.lab.scheduler import LabInterrupted, run_lab_study
from repro.lab.store import ResultStore

DATA = Path(__file__).resolve().parent.parent / "data"
TINY = ReplicationConfig(measured_duration=3.0, warmup=1.0, seeds=(0, 1))
STUDY = Scenario(topology="quadrangle", traffic=90.0)
SPY_CONFIG = ReplicationConfig(measured_duration=3.0, warmup=1.0,
                               seeds=(0, 1, 2))


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _stat(stat) -> list:
    return [stat.mean, stat.std, stat.half_width, stat.num_runs,
            list(stat.values)]


def _sweep(points) -> list:
    return [
        {"load": point.load, "erlang_bound": point.erlang_bound,
         "blocking": {name: _stat(s) for name, s in point.blocking.items()}}
        for point in points
    ]


class TestDigestPins:
    """Numbers captured before the study paths were merged into one."""

    def test_quadrangle_sweep(self):
        from repro.experiments.figures import quadrangle_sweep

        points = quadrangle_sweep(loads=(85.0, 95.0), config=TINY)
        assert _digest(_sweep(points)) == (
            "35a1690b011de5aba0da7d3964317f7de2a0a7bf1320b353767d258dcf010f11"
        )

    def test_nsfnet_sweep(self):
        from repro.experiments.figures import nsfnet_sweep

        points = nsfnet_sweep(load_values=(10.0,), max_hops=6, config=TINY,
                              include_ott_krishnan=True)
        assert _digest(_sweep(points)) == (
            "a9ebb001e695e463196a0bdbff26e2bf9618d89aaca2a4bcf3ef6c0c06ffc935"
        )

    def test_fairness_comparison(self):
        from dataclasses import asdict

        from repro.experiments.prose import fairness_comparison

        reports = fairness_comparison(TINY)
        document = {name: asdict(report) for name, report in reports.items()}
        assert _digest(document) == (
            "b3038bf1f4845d545e0c91ecda8f247a5de9f5c562c8e62e44981132dcf8b1c9"
        )

    def test_general_mesh_comparison(self):
        from repro.experiments.generalization import general_mesh_comparison

        outcome = general_mesh_comparison(TINY)
        document = {
            case: {name: _stat(s) for name, s in stats.items()}
            for case, stats in outcome.items()
        }
        assert _digest(document) == (
            "060e0d8eb1de34927af64d0f272c8df9e7ede0ec896c97a4bc9df4b8762739ab"
        )

    def test_evaluate_json(self, capsys):
        assert cli.main([
            "evaluate", "--network", str(DATA / "quadrangle.json"),
            "--traffic", str(DATA / "quadrangle_90E.json"),
            "--seeds", "2", "--duration", "3", "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9246d32f60ee248050e124b580c95cc8a6f6264bf16e4cb28e922df55b10b788"
        )


class TestTraceCounts:
    """``generate_trace`` runs once per seed that still has a job to run."""

    POLICIES = ("controlled", "dar")

    @pytest.fixture
    def traced(self, monkeypatch):
        import repro.api

        seeds = []
        generate = repro.api.generate_trace

        def spy(traffic, duration, seed):
            seeds.append(seed)
            return generate(traffic, duration, seed)

        monkeypatch.setattr(repro.api, "generate_trace", spy)
        return seeds

    def test_direct_study(self, traced):
        run_study(STUDY, policies=self.POLICIES, config=SPY_CONFIG)
        assert traced == [0, 1, 2]

    def test_lab_cold_then_warm(self, traced, tmp_path):
        lab = LabConfig(store=tmp_path)
        run_study(STUDY, policies=self.POLICIES, config=SPY_CONFIG, lab=lab)
        assert traced == [0, 1, 2]
        traced.clear()
        warm = run_study(STUDY, policies=self.POLICIES, config=SPY_CONFIG,
                         lab=lab)
        assert warm.lab.cache_hits == warm.lab.total_jobs
        assert traced == []

    def test_budgeted_pass_builds_only_the_seeds_it_runs(self, traced,
                                                         tmp_path):
        with pytest.raises(LabInterrupted):
            run_study(STUDY, policies=self.POLICIES, config=SPY_CONFIG,
                      lab=LabConfig(store=tmp_path, max_jobs=4))
        assert traced == [0, 1, 2]
        traced.clear()
        resumed = run_study(STUDY, policies=self.POLICIES, config=SPY_CONFIG,
                            lab=LabConfig(store=tmp_path))
        assert resumed.lab.simulated == 2
        assert traced == [1, 2]


class TestOneDefinitionPerSweep:
    def test_lab_and_experiment_give_the_same_values(self, tmp_path, capsys):
        flags = ["--seeds", "2", "--duration", "5", "--json"]
        assert cli.main(["experiment", "EXP-OK", *flags]) == 0
        points = json.loads(capsys.readouterr().out)["data"]["points"]
        assert cli.main(["lab", "run", "--experiment", "EXP-OK", *flags,
                         "--store", str(tmp_path)]) == 0
        studies = json.loads(capsys.readouterr().out)["studies"]
        assert len(studies) == len(points) == 2
        for point, study in zip(points, studies):
            assert set(study["policies"]) == set(point["blocking"])
            for name, stat in point["blocking"].items():
                assert study["policies"][name]["values"] == stat["values"]


class TestPolicyLists:
    BAD = [((), "at least one policy"),
           (("controlled", "controlled"), "more than once"),
           (("controlled", "nope"), "unknown policy")]

    @pytest.mark.parametrize("policies, message", BAD,
                             ids=["empty", "repeated", "unknown"])
    @pytest.mark.parametrize("path", ["direct", "lab", "run_lab_study"])
    def test_rejected_before_any_work(self, policies, message, path,
                                      tmp_path, monkeypatch):
        import repro.api

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the policy check")

        monkeypatch.setattr(repro.api, "generate_trace", no_work)
        monkeypatch.setattr(Scenario, "build_policy", no_work)
        store = tmp_path / "store"
        with pytest.raises(ValueError, match=message):
            if path == "run_lab_study":
                run_lab_study(STUDY, policies=policies, config=TINY,
                              lab=LabConfig(store=store))
            else:
                run_study(STUDY, policies=policies, config=TINY,
                          lab=LabConfig(store=store) if path == "lab" else None)
        assert not store.exists()

    LAB_RUN = ["lab", "run", "--topology", "quadrangle", "--traffic", "90",
               "--seeds", "2", "--duration", "5"]

    @pytest.mark.parametrize("policies, message", [
        (["controlled", "controlled"], "more than once"),
        (["controlled", "nope"], "unknown policy"),
        (["nope"], "unknown policy"),
    ], ids=["repeated", "unknown-second", "unknown"])
    def test_lab_run_prints_one_line(self, policies, message, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(self.LAB_RUN + ["--policies", *policies,
                                     "--store", str(store)])
        text = str(excinfo.value.code)
        assert text.startswith("lab run: ") and message in text
        assert "\n" not in text
        assert ResultStore(store).list_studies() == []


class TestCompareRetries:
    def test_max_seed_retries_is_honoured_in_process(self, monkeypatch,
                                                     quad_network, quad_table):
        from repro.experiments import runner
        from repro.routing.single_path import SinglePathRouting
        from repro.traffic.generators import uniform_traffic

        simulate = runner.simulate
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate", fail_first)
        stats = runner.compare_policies(
            quad_network, {"single-path": SinglePathRouting(quad_network,
                                                            quad_table)},
            uniform_traffic(4, 90.0), TINY, max_seed_retries=0,
            backend="fast",
        )
        # Seed 0 failed once with no retry allowed; only seed 1 counts.
        assert stats["single-path"].num_runs == 1
        assert len(calls) == 2
