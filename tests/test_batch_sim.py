"""Lockstep batch kernel vs the per-seed loops: bit-identity and plumbing.

The batch simulator's contract is exact: for every seed the per-pair
offered/blocked counters, the carried splits and every derived statistic
must match ``backend="reference"`` bit for bit — on stationary NSFNet
traffic, on adversarial workload traces, and for each supported routing
discipline (threshold, DAR, power-of-d).  The plumbing half covers the
``backend=`` redesign: fault planes fall back transparently, seed order
cannot matter, ``run_study`` surfaces a :class:`BatchResult`, and the lab
records the producing backend in provenance without disturbing job keys
(so batch-produced results keep serving later runs from cache).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BatchResult, LabConfig, Scenario, StudyResult, run_study
from repro.experiments.runner import ReplicationConfig, run_replications_detailed
from repro.routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from repro.routing.dar import DynamicAlternateRouting, PowerOfDAlternateRouting
from repro.sim.batch import BatchSimulator, batch_ineligibility, simulate_batch
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
        batch = simulate_batch(network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_uncontrolled_matches_reference(self):
        network, table, traffic = _nsfnet()
        policy = UncontrolledAlternateRouting(network, table)
        traces = [generate_trace(traffic, 30.0, seed) for seed in (2, 9)]
        batch = simulate_batch(network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_adversarial_workload_traces_match_reference(self):
        scenario = Scenario(topology="nsfnet", traffic="nominal",
                            policy="controlled", workload="adversarial:7")
        policy = scenario.build_policy("controlled")
        traces = [scenario.make_trace(30.0, seed) for seed in range(3)]
        batch = simulate_batch(scenario.network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(scenario.network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"seed {trace.seed}")

    def test_single_seed_backend_batch_matches_fast(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        trace = generate_trace(traffic, 30.0, 5)
        via_batch = simulate(network, policy, trace, warmup=10.0,
                             backend="batch")
        via_fast = simulate(network, policy, trace, warmup=10.0,
                            backend="fast")
        _assert_bit_identical(via_batch, via_fast)

    def test_seed_order_invariance(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        traces = [generate_trace(traffic, 30.0, seed) for seed in range(4)]
        forward = simulate_batch(network, policy, traces, warmup=10.0)
        backward = simulate_batch(network, policy, traces[::-1], warmup=10.0)
        for res_f, res_b in zip(forward, backward[::-1]):
            _assert_bit_identical(res_f, res_b, "order")


class TestRandomAlternateDisciplines:
    @pytest.mark.parametrize("reservation", [0, 2])
    def test_dar_matches_scalar_loop(self, reservation):
        network, table, traffic = _nsfnet()
        policy = DynamicAlternateRouting(
            network, table, trunk_reservation=reservation
        )
        traces = [generate_trace(traffic, 30.0, seed) for seed in range(3)]
        batch = simulate_batch(network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"dar r={reservation}")

    def test_dar_theorem1_thresholds_match_scalar_loop(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = DynamicAlternateRouting(network, table, primary_loads=loads)
        traces = [generate_trace(traffic, 30.0, seed) for seed in (1, 6)]
        batch = simulate_batch(network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, "dar theorem1")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_of_d_matches_scalar_loop(self, d):
        network, table, traffic = _nsfnet()
        policy = PowerOfDAlternateRouting(network, table, d=d)
        traces = [generate_trace(traffic, 30.0, seed) for seed in range(3)]
        batch = simulate_batch(network, policy, traces, warmup=10.0)
        for trace, result in zip(traces, batch):
            ref = simulate(network, policy, trace, warmup=10.0,
                           backend="reference")
            _assert_bit_identical(result, ref, f"power-of-{d}")


class TestFallbacks:
    def test_fault_timeline_falls_back_bit_identically(self):
        network, table, traffic = _nsfnet()
        loads = primary_link_loads(network, table, traffic)
        policy = ControlledAlternateRouting(network, table, loads)
        trace = generate_trace(traffic, 40.0, 11)
        timeline = single_failure_timeline(2, 3, fail_at=15.0, repair_at=30.0)
        # A fault plane is inexpressible in the lockstep kernel; backend
        # "batch" must degrade to the general loop, not error.
        via_batch = simulate(network, policy, trace, warmup=10.0,
                             faults=timeline, backend="batch")
        ref = simulate(network, policy, trace, warmup=10.0, faults=timeline,
                       backend="reference")
        _assert_bit_identical(via_batch, ref)

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
        assert isinstance(study, BatchResult)
        assert study.outcome.backend == "batch"
        assert study.backends == {"controlled": "batch"}

    def test_forced_per_seed_backend_returns_plain_study(self):
        study = run_study(self._scenario(), config=self.QUICK, backend="fast")
        assert isinstance(study, StudyResult)
        assert not isinstance(study, BatchResult)
        assert study.outcome.backend == "fast"

    def test_batch_and_fast_studies_bit_identical(self):
        batch = run_study(self._scenario(), config=self.QUICK)
        fast = run_study(self._scenario(), config=self.QUICK, backend="fast")
        for res_b, res_f in zip(batch.outcome.results, fast.outcome.results):
            _assert_bit_identical(res_b, res_f)

    def test_per_seed_and_matrices(self):
        study = run_study(self._scenario(), config=self.QUICK)
        per_seed = study.per_seed()
        assert per_seed == study.outcome.results
        assert study.seeds() == self.QUICK.seeds
        blocking = study.blocking_by_seed()
        assert blocking.shape == (len(self.QUICK.seeds),)
        assert blocking.tolist() == [r.network_blocking for r in per_seed]
        offered = study.offered_matrix()
        blocked = study.blocked_matrix()
        assert offered.shape == blocked.shape
        assert offered.shape[0] == len(self.QUICK.seeds)
        assert np.array_equal(offered[1], per_seed[1].offered)


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
        assert isinstance(first, BatchResult)
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
