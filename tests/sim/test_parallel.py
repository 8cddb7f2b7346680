"""Equivalence and protocol tests for parallel + fault-dropping simulation.

The contract under test: every performance mode — coverage-only fault
dropping (`run_coverage`), process-parallel fan-out (`run_parallel`), and
their combination — produces results bit-identical to the plain serial
`FaultSimulator.run`, down to first-detect indices and fault ordering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generators
from repro.errors import BudgetExceededError, SimulationError
from repro.resilience import Budget
from repro.sim import (
    FaultSimResult,
    FaultSimulator,
    UniformRandomSource,
    run_parallel,
    split_chunks,
)
from repro.sim.parallel import MIN_FAULTS_PER_JOB


def _workload(seed, n_gates=30, n_patterns=192):
    circuit = generators.random_dag(5, n_gates, seed=seed)
    stimulus = UniformRandomSource(seed=seed).generate(
        circuit.inputs, n_patterns
    )
    return circuit, stimulus, n_patterns


class TestFaultDroppingEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), block=st.sampled_from([8, 64, 256]))
    def test_run_coverage_matches_exact(self, seed, block):
        circuit, stimulus, n = _workload(seed)
        exact = FaultSimulator(circuit).run(stimulus, n)
        dropped = FaultSimulator(circuit).run_coverage(
            stimulus, n, block=block
        )
        assert dropped.coverage_only
        assert dropped.coverage() == exact.coverage()
        assert dropped.first_detect == exact.first_detect
        # Same faults in the same (input) order.
        assert list(dropped.detection_word) == list(exact.detection_word)
        # Partial words agree with the exact words on the bits they carry.
        for fault, word in dropped.detection_word.items():
            assert bool(word) == bool(exact.detection_word[fault])

    def test_coverage_curve_matches_exact(self):
        circuit, stimulus, n = _workload(3)
        exact = FaultSimulator(circuit).run(stimulus, n)
        dropped = FaultSimulator(circuit).run_coverage(stimulus, n, block=16)
        assert dropped.coverage_curve() == exact.coverage_curve()

    def test_block_boundary_first_detects(self):
        # A block size that divides the budget unevenly still yields exact
        # first-detect indices across every block boundary.
        circuit, stimulus, n = _workload(11, n_patterns=100)
        exact = FaultSimulator(circuit).run(stimulus, n)
        dropped = FaultSimulator(circuit).run_coverage(stimulus, n, block=7)
        assert dropped.first_detect == exact.first_detect

    def test_detection_probability_refused(self):
        circuit, stimulus, n = _workload(0)
        dropped = FaultSimulator(circuit).run_coverage(stimulus, n)
        fault = next(iter(dropped.detection_word))
        with pytest.raises(SimulationError, match="coverage-only"):
            dropped.detection_probability(fault)

    def test_budget_charged_per_block(self):
        circuit, stimulus, n = _workload(0)
        with pytest.raises(BudgetExceededError) as err:
            FaultSimulator(circuit).run_coverage(
                stimulus, n, budget=Budget(max_patterns=8), block=16
            )
        assert err.value.resource == "patterns"


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_exact_mode_bit_identical(self, jobs):
        circuit, stimulus, n = _workload(1)
        serial = FaultSimulator(circuit).run(stimulus, n)
        parallel = run_parallel(circuit, stimulus, n, jobs=jobs, mode="exact")
        assert parallel.detection_word == serial.detection_word
        assert parallel.first_detect == serial.first_detect
        assert list(parallel.detection_word) == list(serial.detection_word)
        assert not parallel.coverage_only

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_coverage_mode_matches_exact(self, jobs):
        circuit, stimulus, n = _workload(2)
        serial = FaultSimulator(circuit).run(stimulus, n)
        parallel = run_parallel(
            circuit, stimulus, n, jobs=jobs, mode="coverage"
        )
        assert parallel.coverage_only
        assert parallel.coverage() == serial.coverage()
        assert parallel.first_detect == serial.first_detect

    def test_explicit_fault_list_order_preserved(self):
        circuit, stimulus, n = _workload(4)
        sim = FaultSimulator(circuit)
        faults = sim._resolve_faults(None, True)[::-1]  # reversed order
        serial = FaultSimulator(circuit).run(stimulus, n, faults=faults)
        parallel = run_parallel(circuit, stimulus, n, faults=faults, jobs=4)
        assert list(parallel.detection_word) == list(faults)
        assert parallel.detection_word == serial.detection_word

    def test_small_fault_list_runs_serially(self):
        # Below MIN_FAULTS_PER_JOB * jobs the pool cannot pay for itself;
        # the call must silently produce the serial result.
        circuit, stimulus, n = _workload(5)
        sim = FaultSimulator(circuit)
        faults = sim._resolve_faults(None, True)[: MIN_FAULTS_PER_JOB]
        serial = FaultSimulator(circuit).run(stimulus, n, faults=faults)
        parallel = run_parallel(
            circuit, stimulus, n, faults=faults, jobs=8, mode="exact"
        )
        assert parallel.detection_word == serial.detection_word

    def test_jobs_one_is_serial(self):
        circuit, stimulus, n = _workload(6)
        serial = FaultSimulator(circuit).run(stimulus, n)
        same = run_parallel(circuit, stimulus, n, jobs=1)
        assert same.detection_word == serial.detection_word

    def test_unknown_mode_rejected(self):
        circuit, stimulus, n = _workload(0)
        with pytest.raises(SimulationError, match="mode"):
            run_parallel(circuit, stimulus, n, jobs=2, mode="fast")

    def test_worker_budget_surfaces_in_parent(self):
        circuit, stimulus, n = _workload(7, n_gates=40, n_patterns=256)
        with pytest.raises(BudgetExceededError) as err:
            run_parallel(
                circuit,
                stimulus,
                n,
                jobs=2,
                mode="coverage",
                budget=Budget(max_patterns=4),
            )
        assert err.value.resource == "patterns"


class TestCubeShardedNumpy:
    """The numpy kernel across worker processes: each fault chunk is a
    shard of the batched cube, packed from the parent's good words."""

    @pytest.mark.parametrize("mode", ["exact", "coverage"])
    def test_bit_identical_to_interp_serial(self, mode):
        circuit, stimulus, n = _workload(8, n_gates=60, n_patterns=256)
        serial = FaultSimulator(circuit, kernel="interp").run(stimulus, n)
        parallel = run_parallel(
            circuit, stimulus, n, jobs=3, mode=mode, kernel="numpy"
        )
        assert parallel.first_detect == serial.first_detect
        assert list(parallel.detection_word) == list(serial.detection_word)
        if mode == "exact":
            assert parallel.detection_word == serial.detection_word

    def test_chaos_churn_keeps_result_identical(self, chunk_failure):
        # A worker dying mid-shard sends the whole call to the serial
        # fallback, which must reproduce the sharded cube's bits.
        circuit, stimulus, n = _workload(10, n_gates=60, n_patterns=256)
        serial = FaultSimulator(circuit, kernel="numpy").run(stimulus, n)
        chunk_failure("die", circuit, "numpy", 4)
        churned = run_parallel(
            circuit,
            stimulus,
            n,
            jobs=4,
            mode="exact",
            kernel="numpy",
        )
        assert churned.detection_word == serial.detection_word
        assert churned.first_detect == serial.first_detect


class TestSplitChunks:
    @settings(max_examples=25, deadline=None)
    @given(n_items=st.integers(0, 50), n_chunks=st.integers(1, 9))
    def test_partition_properties(self, n_items, n_chunks):
        items = list(range(n_items))
        chunks = split_chunks(items, n_chunks)
        # Concatenation restores the input: contiguous, order-preserving.
        assert [x for c in chunks for x in c] == items
        # Near-equal: sizes differ by at most one; no empty chunks.
        if chunks:
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1
        assert len(chunks) <= n_chunks

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            split_chunks([1, 2], 0)


class TestFaultSimResultCaching:
    def test_cached_counts_consistent(self):
        circuit, stimulus, n = _workload(8)
        result = FaultSimulator(circuit).run(stimulus, n)
        by_scan = sum(1 for w in result.detection_word.values() if w)
        assert result.n_detected() == by_scan
        assert result.n_detected() == by_scan  # cached second query
        assert result.coverage() == by_scan / len(result.detection_word)
        assert result.coverage_at(n) == result.coverage()
        assert result.coverage_at(0) == 0.0

    def test_empty_fault_list(self):
        result = FaultSimResult(n_patterns=8)
        assert result.coverage() == 1.0
        assert result.coverage_at(4) == 1.0

    def test_curve_monotone_and_bounded(self):
        circuit, stimulus, n = _workload(9)
        result = FaultSimulator(circuit).run(stimulus, n)
        curve = result.coverage_curve()
        covs = [c for _n, c in curve]
        assert covs == sorted(covs)
        assert curve[-1] == (n, result.coverage())
