"""Differential fuzz harness: finds planted bugs, shrinks them, bundles them."""

from __future__ import annotations

import pytest

from repro.analysis.fuzz import FuzzReport, run_fuzz, shrink_circuit
from repro.circuit import generators
from repro.sim.compile import clear_registry
from repro.verify import load_bundle, plant_logic_bug, replay_bundle


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


class TestCleanFuzz:
    def test_short_clean_campaign(self, tmp_path):
        report = run_fuzz(
            budget_ms=3000, seed=0, bundle_dir=str(tmp_path), max_gates=12
        )
        assert isinstance(report, FuzzReport)
        assert report.clean, report.describe()
        assert report.trials >= 1
        assert report.checks > report.trials  # several checks per trial
        assert "clean" in report.describe()

    def test_campaign_is_seed_deterministic(self, tmp_path):
        # Trial construction is a pure function of (seed, trial): the
        # same seed re-draws the same circuits.
        from repro.analysis.fuzz import _build_circuit

        a = [_build_circuit(t, 5, 20).structural_hash() for t in range(6)]
        b = [_build_circuit(t, 5, 20).structural_hash() for t in range(6)]
        assert a == b
        c = [_build_circuit(t, 6, 20).structural_hash() for t in range(6)]
        assert a != c


class TestNumpyKernelFuzz:
    import numpy as np

    def test_short_clean_campaign_on_numpy(self, tmp_path):
        report = run_fuzz(
            budget_ms=3000,
            seed=0,
            bundle_dir=str(tmp_path),
            max_gates=12,
            kernel="numpy",
        )
        assert report.clean, report.describe()
        assert report.trials >= 1

    def test_interp_kernel_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_fuzz(
                budget_ms=100,
                seed=0,
                bundle_dir=str(tmp_path),
                kernel="interp",
            )

    def test_numpy_divergence_bundled_with_kernel(self, tmp_path, monkeypatch):
        # Corrupt the array engine's cone propagation the way a real
        # engine bug would: every campaign lane keeps the interpreted
        # arbiter, so the fault lane must catch it and the bundle must
        # record which backend diverged.
        from repro.sim import npsim

        real_cone = npsim.propagate_cone
        real_batch = npsim.propagate_batch

        def corrupt_cone(state, cone, injected, want_diffs):
            detect, diffs = real_cone(state, cone, injected, want_diffs)
            return detect ^ 1, diffs

        def corrupt_batch(state, sites, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real_batch(state, sites, chunk_bytes)
            detect[:, 0] ^= self.np.uint64(1)
            return detect, evals

        # Corrupt both propagation strategies the engine picks between,
        # so the planted bug survives whichever one a trial exercises.
        monkeypatch.setattr(npsim, "propagate_cone", corrupt_cone)
        monkeypatch.setattr(npsim, "propagate_batch", corrupt_batch)
        report = run_fuzz(
            budget_ms=30_000,
            seed=3,
            bundle_dir=str(tmp_path),
            max_gates=16,
            kernel="numpy",
        )
        assert report.failures, "fuzzer missed the corrupted numpy engine"
        failure = report.failures[0]
        manifest, _ = load_bundle(failure.bundle)
        assert manifest["context"]["kernel"] == "numpy"
        # While the engine bug is still live the replay runs the numpy
        # fast path (the recorded kernel) and reproduces; once the
        # engine is healthy again the divergence correctly goes stale.
        assert replay_bundle(failure.bundle).reproduced
        monkeypatch.setattr(npsim, "propagate_cone", real_cone)
        monkeypatch.setattr(npsim, "propagate_batch", real_batch)
        assert not replay_bundle(failure.bundle).reproduced


class TestStoreLane:
    def test_clean_circuit_round_trips(self):
        from repro.analysis.fuzz import _check_store

        circuit = generators.random_dag(4, 10, seed=5)
        assert _check_store(circuit, seed=0, n_patterns=32) is None

    def test_short_clean_campaign_with_store(self, tmp_path):
        report = run_fuzz(
            budget_ms=3000,
            seed=0,
            bundle_dir=str(tmp_path),
            max_gates=10,
            store=True,
        )
        assert report.clean, report.describe()
        assert report.trials >= 1

    def test_nondeterministic_executor_is_caught(self, monkeypatch):
        # A cache built on a nondeterministic executor is poison; the
        # lane must flag it even though each run looks self-consistent.
        from repro.analysis import experiments as exps
        from repro.analysis.fuzz import _check_store

        real = exps.execute_sweep_job
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            result = real(payload)
            result = dict(result)
            result["cost"] = calls["n"]  # drifts between executions
            return result

        monkeypatch.setattr(exps, "execute_sweep_job", flaky)
        circuit = generators.random_dag(4, 10, seed=6)
        divergence = _check_store(circuit, seed=0, n_patterns=32)
        assert divergence is not None
        assert divergence.kind == "fuzz.store"
        assert "bit-identical" in divergence.message


class TestSaboteurSelfTest:
    def test_planted_kernel_bug_found_shrunk_and_replayable(self, tmp_path):
        """Acceptance criteria: find the miscompile, shrink to <=10 gates,
        write a bundle that deterministically reproduces."""
        report = run_fuzz(
            budget_ms=30_000,
            seed=1,
            bundle_dir=str(tmp_path),
            max_gates=20,
            saboteur=plant_logic_bug,
        )
        assert report.failures, "fuzzer missed the planted kernel bug"
        failure = report.failures[0]
        assert failure.kind == "fuzz.logic_sim"
        assert failure.gates_shrunk <= 10
        assert failure.gates_shrunk <= failure.gates_found
        manifest, circuit = load_bundle(failure.bundle)
        assert manifest["kind"] == "fuzz.logic_sim"
        assert circuit.gate_count() == failure.gates_shrunk
        result = replay_bundle(failure.bundle)
        assert result.reproduced
        assert replay_bundle(failure.bundle).reproduced  # deterministic

    def test_sabotaged_registry_is_cleared_after_campaign(self, tmp_path):
        from repro.sim.compile import registry_size

        run_fuzz(
            budget_ms=5_000,
            seed=2,
            bundle_dir=str(tmp_path),
            max_gates=10,
            saboteur=plant_logic_bug,
        )
        assert registry_size() == 0  # corrupt kernels never leak


class TestShrinker:
    def test_shrinks_to_single_gate_when_any_gate_fails(self):
        circuit = generators.random_dag(4, 25, seed=3)
        small = shrink_circuit(circuit, lambda c: True)
        assert small.gate_count() == 1
        small.validate()

    def test_keeps_circuit_when_nothing_smaller_fails(self):
        circuit = generators.random_dag(4, 10, seed=4)
        kept = shrink_circuit(circuit, lambda c: False)
        assert kept.structural_hash() == circuit.structural_hash()

    def test_predicate_preserving_reduction(self):
        # Failure depends on a property reductions can preserve: an AND
        # gate somewhere in the circuit.
        from repro.circuit.gates import GateType

        def has_and(c):
            return any(g.gate_type is GateType.AND for g in c.gates)

        circuit = generators.random_dag(4, 30, seed=5)
        if not has_and(circuit):
            pytest.skip("workload drew no AND gate")
        small = shrink_circuit(circuit, has_and)
        assert has_and(small)
        assert small.gate_count() <= circuit.gate_count()
        small.validate()
