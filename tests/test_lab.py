"""Tests for repro.lab: hashing, the result store, and the scheduler.

The headline guarantees under test:

* a lab-orchestrated study is bit-identical to a direct ``run_study``;
* running the identical study twice gives 100% cache hits and zero
  simulation work on the second pass, with bit-identical results;
* a study interrupted partway (``max_jobs``) and then resumed merges to
  exactly the uninterrupted result, serially and on the process pool;
* no manifest a pass saves marks a job ``running``, so an interrupted or
  killed pass leaves none, and a pool that loses a worker still completes
  the study;
* overlapping studies share cached replications.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import cli
from repro.api import LabConfig, Scenario, run_study
from repro.experiments.runner import ReplicationConfig
from repro.lab import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    canonical_json,
    config_signature,
    job_key,
    read_events,
    result_from_document,
    result_to_document,
    scenario_signature,
)
from repro.lab.scheduler import LabInterrupted
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.traffic.generators import uniform_traffic

CONFIG = ReplicationConfig(measured_duration=8.0, warmup=2.0, seeds=(0, 1, 2))
SCENARIO = Scenario(topology="quadrangle", traffic=30.0)


def small_result(seed=0):
    network = quadrangle(100)
    traffic = uniform_traffic(4, 30.0)
    from repro.topology.paths import build_path_table
    from repro.routing.single_path import SinglePathRouting

    policy = SinglePathRouting(network, build_path_table(network))
    trace = generate_trace(traffic, 10.0, seed)
    return simulate(network, policy, trace, warmup=2.0)


def assert_results_identical(a, b):
    assert a.seed == b.seed
    assert a.od_pairs == b.od_pairs
    for name in ("offered", "blocked", "class_offered", "class_blocked"):
        left, right = getattr(a, name), getattr(b, name)
        assert np.array_equal(left, right)
        assert left.dtype == right.dtype
    assert a.primary_carried == b.primary_carried
    assert a.alternate_carried == b.alternate_carried
    assert a.warmup == b.warmup and a.duration == b.duration
    if a.dropped is None:
        assert b.dropped is None
    else:
        assert np.array_equal(a.dropped, b.dropped)


class TestHashing:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == canonical_json(
            {"a": [1.5, 2], "b": 1}
        )

    def test_job_key_sensitivity(self):
        sig = scenario_signature(SCENARIO)
        cfg = config_signature(CONFIG)
        base = job_key(sig, "controlled", cfg, 0, RESULT_SCHEMA_VERSION)
        assert base == job_key(sig, "controlled", cfg, 0, RESULT_SCHEMA_VERSION)
        assert base != job_key(sig, "uncontrolled", cfg, 0, RESULT_SCHEMA_VERSION)
        assert base != job_key(sig, "controlled", cfg, 1, RESULT_SCHEMA_VERSION)
        assert base != job_key(sig, "controlled", cfg, 0, RESULT_SCHEMA_VERSION + 1)
        other_cfg = config_signature(
            ReplicationConfig(measured_duration=9.0, warmup=2.0, seeds=(0,))
        )
        assert base != job_key(sig, "controlled", other_cfg, 0, RESULT_SCHEMA_VERSION)

    def test_seeds_do_not_enter_config_signature(self):
        # Different seed rosters share per-seed cache entries.
        a = config_signature(ReplicationConfig(measured_duration=8.0, warmup=2.0, seeds=(0, 1)))
        b = config_signature(ReplicationConfig(measured_duration=8.0, warmup=2.0, seeds=(0, 1, 2)))
        assert a == b

    def test_scenario_signature_distinguishes_ingredients(self):
        base = scenario_signature(SCENARIO)
        assert base != scenario_signature(Scenario(topology="quadrangle", traffic=31.0))
        assert base != scenario_signature(
            Scenario(topology="quadrangle", traffic=30.0, load_scale=1.1)
        )
        assert base != scenario_signature(
            Scenario(topology="quadrangle", traffic=30.0, max_hops=2)
        )

    def test_concrete_objects_hash_by_value(self):
        def build():
            return Scenario(
                topology=quadrangle(100), traffic=uniform_traffic(4, 30.0)
            )

        assert scenario_signature(build()) == scenario_signature(build())


class TestResultStore:
    def test_result_document_roundtrip_is_bit_identical(self):
        original = small_result()
        document = result_to_document(original, {"note": "test"})
        restored = result_from_document(json.loads(json.dumps(document)))
        assert_results_identical(original, restored)

    def test_put_get_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        result = small_result()
        assert "deadbeef" not in store
        store.put_result("deadbeef", result)
        assert "deadbeef" in store
        assert_results_identical(store.get_result("deadbeef"), result)
        assert store.get_result("cafe") is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_result("deadbeef", small_result())
        assert not list(tmp_path.rglob("*.tmp"))

    def test_gc_drops_unreferenced_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_result("aa00", small_result())
        store.put_result("bb11", small_result())
        store.save_manifest("study1", {"jobs": {"aa00": {"status": "done"}}})
        outcome = store.gc()
        assert outcome == {"removed": 1, "kept": 1}
        assert "aa00" in store and "bb11" not in store

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_result("aa00", small_result())
        stats = store.stats()
        assert stats["objects"] == 1
        assert stats["bytes"] > 0


class TestScheduler:
    def test_lab_matches_direct_run(self, tmp_path):
        direct = run_study(SCENARIO, config=CONFIG)
        labbed = run_study(SCENARIO, config=CONFIG, lab=LabConfig(store=tmp_path))
        assert labbed.stat == direct.stat
        for a, b in zip(direct.outcome.results, labbed.outcome.results):
            assert_results_identical(a, b)
        assert labbed.lab.simulated == len(CONFIG.seeds)
        assert labbed.lab.cache_hits == 0

    def test_second_pass_is_pure_cache(self, tmp_path):
        lab = LabConfig(store=tmp_path)
        first = run_study(SCENARIO, config=CONFIG, lab=lab)
        second = run_study(SCENARIO, config=CONFIG, lab=lab)
        assert second.lab.cache_hits == second.lab.total_jobs
        assert second.lab.simulated == 0
        assert second.stat == first.stat
        for a, b in zip(first.outcome.results, second.outcome.results):
            assert_results_identical(a, b)
        assert all(s.cached for s in second.outcome.statuses)

    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "pool"])
    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path, parallel):
        direct = run_study(SCENARIO, config=CONFIG)
        lab_store = tmp_path / "store"
        with pytest.raises(LabInterrupted) as excinfo:
            run_study(SCENARIO, config=CONFIG, parallel=parallel, max_workers=2,
                      lab=LabConfig(store=lab_store, max_jobs=1))
        assert excinfo.value.report.simulated == 1
        resumed = run_study(SCENARIO, config=CONFIG, parallel=parallel,
                            max_workers=2, lab=LabConfig(store=lab_store))
        assert resumed.lab.cache_hits == 1
        assert resumed.lab.simulated == len(CONFIG.seeds) - 1
        assert resumed.stat == direct.stat
        for a, b in zip(direct.outcome.results, resumed.outcome.results):
            assert_results_identical(a, b)

    def test_interrupt_leaves_no_job_running(self, tmp_path, monkeypatch):
        put_result = ResultStore.put_result
        calls = []

        def interrupt_second_put(store, *args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return put_result(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put_result", interrupt_second_put)
        with pytest.raises(LabInterrupted) as excinfo:
            run_study(SCENARIO, config=CONFIG, lab=LabConfig(store=tmp_path))
        manifest = ResultStore(tmp_path).load_manifest(excinfo.value.report.study)
        states = [entry["status"] for entry in manifest["jobs"].values()]
        assert "running" not in states
        assert states.count("done") == 1

    def test_no_saved_manifest_marks_a_job_running(self, tmp_path, monkeypatch):
        # A pass killed between two saves (SIGKILL, OOM) must not leave
        # jobs marked running that no live process holds.
        save_manifest = ResultStore.save_manifest
        saved = []

        def spy(store, study, manifest):
            saved.append({entry["status"] for entry in manifest["jobs"].values()})
            return save_manifest(store, study, manifest)

        monkeypatch.setattr(ResultStore, "save_manifest", spy)
        run_study(SCENARIO, config=CONFIG, lab=LabConfig(store=tmp_path))
        assert saved[0] == {"pending"}
        assert saved[-1] == {"done"}
        assert [s for s in saved if "running" in s] == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched simulator reaches forked workers only")
    def test_pool_losing_a_worker_still_completes(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        simulate_in_process = runner.simulate

        def die_in_pool_worker(*args, **kwargs):
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            return simulate_in_process(*args, **kwargs)

        direct = run_study(SCENARIO, config=CONFIG)
        monkeypatch.setattr(runner, "simulate", die_in_pool_worker)
        labbed = run_study(SCENARIO, config=CONFIG, parallel=True, max_workers=2,
                           lab=LabConfig(store=tmp_path))
        assert labbed.lab.simulated == len(CONFIG.seeds)
        assert labbed.stat == direct.stat
        for a, b in zip(direct.outcome.results, labbed.outcome.results):
            assert_results_identical(a, b)

    def test_overlapping_studies_share_replications(self, tmp_path):
        lab = LabConfig(store=tmp_path)
        run_study(SCENARIO, config=CONFIG, lab=lab)
        widened = run_study(
            SCENARIO, policies=("controlled", "uncontrolled"),
            config=CONFIG, lab=lab,
        )
        # The controlled seeds were cached by the first study; only the
        # uncontrolled ones simulate.
        assert widened.lab.cache_hits == len(CONFIG.seeds)
        assert widened.lab.simulated == len(CONFIG.seeds)

    def test_parallel_matches_serial(self, tmp_path):
        direct = run_study(SCENARIO, config=CONFIG)
        labbed = run_study(
            SCENARIO, config=CONFIG, parallel=True, max_workers=2,
            lab=LabConfig(store=tmp_path / "p"),
        )
        assert labbed.stat == direct.stat
        for a, b in zip(direct.outcome.results, labbed.outcome.results):
            assert_results_identical(a, b)

    def test_events_telemetry(self, tmp_path):
        lab = LabConfig(store=tmp_path)
        study = run_study(SCENARIO, config=CONFIG, lab=lab)
        events = list(read_events(study.lab.events))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "study_started"
        assert kinds[-1] == "study_finished"
        assert kinds.count("job_started") == len(CONFIG.seeds)
        assert kinds.count("job_finished") == len(CONFIG.seeds)
        finished = [e for e in events if e["kind"] == "job_finished"]
        assert all(e["elapsed"] > 0 for e in finished)
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress and progress[-1]["done"] == len(CONFIG.seeds)

    def test_statuses_carry_wall_clock(self, tmp_path):
        study = run_study(SCENARIO, config=CONFIG, lab=LabConfig(store=tmp_path))
        assert all(s.wall_clock is not None and s.wall_clock > 0
                   for s in study.outcome.statuses)
        assert not any(s.cached for s in study.outcome.statuses)

    def test_custom_objects_are_cacheable(self, tmp_path):
        scenario = Scenario(topology=quadrangle(100), traffic=uniform_traffic(4, 30.0))
        lab = LabConfig(store=tmp_path)
        run_study(scenario, config=CONFIG, lab=lab)
        rebuilt = Scenario(topology=quadrangle(100), traffic=uniform_traffic(4, 30.0))
        second = run_study(rebuilt, config=CONFIG, lab=lab)
        assert second.lab.cache_hits == second.lab.total_jobs


class TestLabCli:
    RUN_ARGS = [
        "lab", "run", "--topology", "quadrangle", "--traffic", "30",
        "--policies", "controlled", "--seeds", "3", "--duration", "8",
    ]

    def test_run_then_cached_rerun(self, tmp_path, capsys):
        store = str(tmp_path)
        assert cli.main(self.RUN_ARGS + ["--store", store, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)["studies"][0]
        assert first["simulated"] == 3 and first["cache_hits"] == 0
        assert cli.main(self.RUN_ARGS + ["--store", store, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)["studies"][0]
        assert second["simulated"] == 0 and second["cache_hits"] == 3
        assert second["policies"] == first["policies"]

    def test_interrupted_run_then_resume(self, tmp_path, capsys):
        store = str(tmp_path)
        assert cli.main(self.RUN_ARGS + ["--store", store, "--max-jobs", "1"]) == 3
        capsys.readouterr()
        assert cli.main(["lab", "status", "--store", store]) == 0
        assert "partial" in capsys.readouterr().out
        assert cli.main(["lab", "resume", "--store", store, "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)["studies"][0]
        assert resumed["cache_hits"] == 1 and resumed["simulated"] == 2
        # The resumed study matches a fresh uninterrupted run elsewhere.
        fresh = run_study(SCENARIO, config=CONFIG)
        assert resumed["policies"]["controlled"]["values"] == list(fresh.stat.values)

    def test_status_ls_gc(self, tmp_path, capsys):
        store = str(tmp_path)
        assert cli.main(self.RUN_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert cli.main(["lab", "status", "--store", store]) == 0
        assert "complete" in capsys.readouterr().out
        assert cli.main(["lab", "ls", "--store", store]) == 0
        assert "3 cached replications" in capsys.readouterr().out
        assert cli.main(["lab", "gc", "--store", store]) == 0
        assert "removed 0" in capsys.readouterr().out
        # Dropping the manifest orphans the objects; gc then removes them.
        studies = ResultStore(store).list_studies()
        ResultStore(store).manifest_path(studies[0]).unlink()
        assert cli.main(["lab", "gc", "--store", store]) == 0
        assert "removed 3" in capsys.readouterr().out

    def test_status_detail(self, tmp_path, capsys):
        store = str(tmp_path)
        assert cli.main(self.RUN_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        study = ResultStore(store).list_studies()[0]
        assert cli.main(["lab", "status", "--store", store, "--study", study]) == 0
        out = capsys.readouterr().out
        assert "seed" in out and "done" in out

    def test_experiment_job_graph_run(self, tmp_path, capsys):
        # EXP-OK at tiny fidelity: 2 load points x 4 policies x 2 seeds.
        assert cli.main([
            "lab", "run", "--experiment", "EXP-OK", "--seeds", "2",
            "--duration", "8", "--store", str(tmp_path), "--json",
        ]) == 0
        studies = json.loads(capsys.readouterr().out)["studies"]
        assert len(studies) == 2
        assert all(s["total_jobs"] == 8 for s in studies)

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["lab", "run", "--experiment", "NOPE", "--store", str(tmp_path)])

    def test_bad_traffic_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["lab", "run", "--traffic", "lots", "--store", str(tmp_path)])

    def test_resume_empty_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["lab", "resume", "--store", str(tmp_path / "void")])
