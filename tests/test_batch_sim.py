"""Lockstep batch kernel vs the per-seed loops: bit-identity and plumbing.

The batch simulator's contract is exact: for every seed the per-pair
offered/blocked counters, the carried splits and every derived statistic
must match ``backend="reference"`` bit for bit — on stationary NSFNet
traffic and on adversarial workload traces, for the first-feasible
disciplines it serves.  DAR and power-of-d run on the general loop; their
study results are pinned to digests of the reference loop's counters.  The
plumbing half covers the ``backend=`` keyword: fault planes fall back
transparently, seed order cannot matter, every :class:`StudyResult` names
the backend behind each policy and carries the per-seed arrays whichever
engine ran, and the lab records the producing backend in provenance without
disturbing job keys (so batch-produced results keep serving later runs from
cache).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import LabConfig, Scenario, StudyResult, run_study
from repro.experiments.runner import ReplicationConfig, run_replications_detailed
from repro.routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from repro.routing.dar import DynamicAlternateRouting, PowerOfDAlternateRouting
from repro.sim.batch import BatchSimulator, batch_ineligibility
from repro.sim.faultplane import single_failure_timeline
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.topology import nsfnet_backbone
from repro.topology.paths import build_path_table
from repro.traffic import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads

_COUNTERS = ("offered", "blocked", "primary_carried", "alternate_carried")


def _nsfnet():
    network = nsfnet_backbone()
    table = build_path_table(network)
    traffic = nsfnet_nominal_traffic()
    return network, table, traffic


def _assert_bit_identical(batch_result, scalar_result, label=""):
    for counter in _COUNTERS:
        assert np.array_equal(
            getattr(batch_result, counter), getattr(scalar_result, counter)
        ), f"{label}: {counter} diverged"
    assert batch_result.network_blocking == scalar_result.network_blocking
    assert batch_result.total_offered == scalar_result.total_offered


class TestBitIdentity:
    def test_nsfnet_nominal_matches_reference(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        traces = [generate_trace(traffic, 40.0, seed) for seed in range(4)]
        batch = BatchSimulator(network, policy, traces, warmup=10.0).run()
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_uncontrolled_matches_reference(self):
        network, table, traffic = _nsfnet()
        policy = UncontrolledAlternateRouting(network, table)
        traces = [generate_trace(traffic, 30.0, seed) for seed in (2, 9)]
        batch = BatchSimulator(network, policy, traces, warmup=10.0).run()
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_adversarial_workload_traces_match_reference(self):
        scenario = Scenario(topology="nsfnet", traffic="nominal",
                            policy="controlled", workload="adversarial:7")
        policy = scenario.build_policy("controlled")
        traces = [scenario.make_trace(30.0, seed) for seed in range(3)]
        batch = BatchSimulator(scenario.network, policy, traces,
                               warmup=10.0).run()
        for trace, result in zip(traces, batch):
            ref = simulate(scenario.network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_seed_order_invariance(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        traces = [generate_trace(traffic, 30.0, seed) for seed in range(4)]
        forward = BatchSimulator(network, policy, traces, warmup=10.0).run()
        backward = BatchSimulator(network, policy, traces[::-1],
                                  warmup=10.0).run()
        for res_f, res_b in zip(forward, backward[::-1]):
            _assert_bit_identical(res_f, res_b, "order")


class TestRandomAlternateDisciplines:
    """DAR and power-of-d have no batch kernel: a study of them runs on the
    general loop, and its counters must still equal what the reference loop
    gave for the same traces (SHA-256 of every seed's counters in seed
    order, recorded with ``backend="reference"``)."""

    @staticmethod
    def _study_digest(network, policy, traffic, seeds):
        traces = [generate_trace(traffic, 30.0, seed) for seed in seeds]
        assert policy.discipline in batch_ineligibility(policy, traces)
        outcome = run_replications_detailed(
            network, policy, traffic,
            ReplicationConfig(measured_duration=20.0, seeds=tuple(seeds)),
            traces=traces,
        )
        assert outcome.backend == "auto"
        digest = hashlib.sha256()
        for result in outcome.results:
            for counter in _COUNTERS:
                digest.update(
                    np.asarray(getattr(result, counter), dtype=np.int64).tobytes()
                )
        return digest.hexdigest()

    @pytest.mark.parametrize("reservation, expected", [
        (0, "858d18fe83fb0a53b4661fa097aa8974033fd68bd75dfca0d5d41dbeadb2078b"),
        (2, "d28f5c7cdc3b4f308b218e5c9752ca89e23ee0c7ffc00418b9d5c7ea9d8c72ca"),
    ], ids=["0", "2"])
    def test_dar_matches_scalar_loop(self, reservation, expected):
        network, table, traffic = _nsfnet()
        policy = DynamicAlternateRouting(
            network, table, trunk_reservation=reservation
        )
        assert self._study_digest(network, policy, traffic, (0, 1, 2)) == expected

    def test_dar_theorem1_thresholds_match_scalar_loop(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = DynamicAlternateRouting(network, table, primary_loads=loads)
        assert self._study_digest(network, policy, traffic, (1, 6)) == (
            "76c442d548f11d4db2d71a807c108e29b3bd7d1f12a26b29ce161ac3811d869e"
        )

    @pytest.mark.parametrize("d, expected", [
        (1, "960373cf9c5d0aa8a75372d287693e3075e04876d9c052e83513f58252d4dc4c"),
        (2, "3c78880b95339c31172c2b042303d0c4f766660d8ad258d4c55952a77fd1fbe6"),
        (3, "6994f4f6e06ade92b16b0253eb4a8e2c876505f8a4ca6d33b8abf73c9d025af3"),
    ], ids=["1", "2", "3"])
    def test_power_of_d_matches_scalar_loop(self, d, expected):
        network, table, traffic = _nsfnet()
        policy = PowerOfDAlternateRouting(network, table, d=d)
        assert self._study_digest(network, policy, traffic, (0, 1, 2)) == expected


class TestFallbacks:
    def test_fault_timeline_falls_back_bit_identically(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        trace = generate_trace(traffic, 40.0, 11)
        timeline = single_failure_timeline(2, 3, fail_at=15.0, repair_at=30.0)
        # A fault plane is inexpressible in the fast loop; backend "auto"
        # must degrade to the general loop, not error.
        via_auto = simulate(network, policy, trace, warmup=10.0,
                            faults=timeline, backend="auto")
        ref = simulate(network, policy, trace, warmup=10.0, faults=timeline,
                       backend="reference")
        _assert_bit_identical(via_auto, ref)

    def test_ineligibility_names_the_reason(self):
        network, table, traffic = _nsfnet()
        from repro.routing.shadow import OttKrishnanRouting

        loads = primary_link_loads(network, table, traffic)
        policy = OttKrishnanRouting(network, table, loads)
        traces = [generate_trace(traffic, 20.0, 0)]
        reason = batch_ineligibility(policy, traces)
        assert reason is not None and "batch kernel" in reason
        with pytest.raises(ValueError, match="batch kernel"):
            BatchSimulator(network, policy, traces)

    def test_runner_falls_back_per_seed_for_ineligible_policy(self):
        network, table, traffic = _nsfnet()
        from repro.routing.shadow import OttKrishnanRouting

        loads = primary_link_loads(network, table, traffic)
        policy = OttKrishnanRouting(network, table, loads)
        config = ReplicationConfig(measured_duration=10.0, seeds=(0, 1))
        outcome = run_replications_detailed(
            network, policy, traffic, config, backend="auto"
        )
        assert outcome.backend == "auto"
        assert all(s.backend == "auto" for s in outcome.statuses)


class TestBatchResult:
    QUICK = ReplicationConfig(measured_duration=15.0, seeds=(0, 1, 2))

    def _scenario(self):
        return Scenario(topology="nsfnet", traffic="nominal",
                        policy="controlled")

    def test_run_study_returns_batch_result(self):
        study = run_study(self._scenario(), config=self.QUICK)
        assert study.outcome.backend == "batch"
        assert study.backends == {"controlled": "batch"}

    def test_controlled_and_dar_study_splits_engines(self):
        # The shape of the paper-fidelity NSFNet study: the threshold policy
        # runs its seeds on the kernel, DAR seed by seed on the general loop.
        config = ReplicationConfig(measured_duration=10.0, seeds=(0, 1, 2))
        policies = ("controlled", "dar")
        study = run_study(Scenario(), policies=policies, config=config)
        assert study.backends == {"controlled": "batch", "dar": "auto"}
        reference = run_study(Scenario(), policies=policies, config=config,
                              backend="reference")
        for name in policies:
            for res, ref in zip(study.outcomes[name].results,
                                reference.outcomes[name].results, strict=True):
                _assert_bit_identical(res, ref, name)

    def test_forced_per_seed_backend_returns_plain_study(self):
        study = run_study(self._scenario(), config=self.QUICK, backend="fast")
        assert isinstance(study, StudyResult)
        assert study.outcome.backend == "fast"

    def test_batch_and_fast_studies_bit_identical(self):
        batch = run_study(self._scenario(), config=self.QUICK)
        fast = run_study(self._scenario(), config=self.QUICK, backend="fast")
        for res_b, res_f in zip(batch.outcome.results, fast.outcome.results):
            _assert_bit_identical(res_b, res_f)

    def test_per_seed_and_matrices(self):
        study = run_study(self._scenario(), config=self.QUICK)
        per_seed = study.outcome.results
        assert study.seeds() == self.QUICK.seeds
        blocking = study.blocking_by_seed()
        assert blocking.shape == (len(self.QUICK.seeds),)
        assert blocking.tolist() == [r.network_blocking for r in per_seed]
        offered = study.offered_matrix()
        blocked = study.blocked_matrix()
        assert offered.shape == blocked.shape
        assert offered.shape[0] == len(self.QUICK.seeds)
        assert np.array_equal(offered[1], per_seed[1].offered)

    @pytest.mark.parametrize("lab", [False, True], ids=["direct", "lab"])
    def test_per_seed_study_exposes_seed_arrays(self, tmp_path, lab):
        study = run_study(
            self._scenario(), config=self.QUICK, backend="fast",
            lab=LabConfig(store=tmp_path) if lab else None,
        )
        results = study.outcome.results
        assert study.backends == {"controlled": "fast"}
        assert study.seeds() == self.QUICK.seeds
        assert study.blocking_by_seed().tolist() == [
            r.network_blocking for r in results
        ]
        assert np.array_equal(study.offered_matrix(),
                              np.stack([r.offered for r in results]))
        assert np.array_equal(study.blocked_matrix(),
                              np.stack([r.blocked for r in results]))


class TestLabProvenance:
    QUICK = ReplicationConfig(measured_duration=12.0, seeds=(0, 1, 2))

    def _scenario(self):
        return Scenario(topology="nsfnet", traffic="nominal",
                        policy="controlled")

    def test_batch_results_cache_and_record_backend(self, tmp_path):
        from repro.lab.hashing import (
            config_signature,
            job_key,
            scenario_signature,
        )
        from repro.lab.store import RESULT_SCHEMA_VERSION, ResultStore

        lab = LabConfig(store=tmp_path / "store")
        scenario = self._scenario()
        first = run_study(scenario, config=self.QUICK, lab=lab)
        assert first.outcome.backend == "batch"
        assert first.lab.simulated == len(self.QUICK.seeds)

        store = ResultStore(tmp_path / "store")
        sig = scenario_signature(scenario)
        csig = config_signature(self.QUICK)
        for seed in self.QUICK.seeds:
            key = job_key(sig, "controlled", csig, seed, RESULT_SCHEMA_VERSION)
            document = store.get(key)
            assert document["provenance"]["backend"] == "batch"

        # The job key is backend-independent, so a resumed run — even one
        # requesting a different engine — must serve every seed from cache
        # and reproduce the results bit for bit.
        resumed = run_study(scenario, config=self.QUICK, lab=lab,
                            backend="reference")
        assert resumed.lab.cache_hits == len(self.QUICK.seeds)
        assert resumed.lab.simulated == 0
        for res_a, res_b in zip(first.outcome.results, resumed.outcome.results):
            _assert_bit_identical(res_a, res_b)

    @pytest.mark.parametrize("parallel, backend, recorded", [
        (False, "auto", "batch"),
        (False, "reference", "reference"),
        (True, "auto", "auto"),
        (True, "reference", "reference"),
    ])
    def test_lab_statuses_carry_backend(self, tmp_path, parallel, backend,
                                        recorded):
        lab = LabConfig(store=tmp_path / "store")
        study = run_study(self._scenario(), config=self.QUICK, lab=lab,
                          parallel=parallel, max_workers=2, backend=backend)
        assert all(
            s.backend == recorded for s in study.outcome.statuses
        )
