"""Differential fuzz harness: finds planted bugs, shrinks them, bundles them."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis import fuzz
from repro.analysis.fuzz import FuzzReport, run_fuzz, shrink_circuit
from repro.circuit import GateType, generators
from repro.verify import load_bundle, replay_bundle


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
        # A multi-word pattern budget drives every lane through partial
        # last words and the batched sweep's chunk seams.
        report = run_fuzz(
            budget_ms=3000,
            seed=0,
            bundle_dir=str(tmp_path),
            max_gates=12,
            n_patterns=130,
        )
        assert report.clean, report.describe()
        assert report.trials >= 1

    def test_numpy_divergence_bundled_with_kernel(self, tmp_path, monkeypatch):
        # Corrupt the batched sweep the way a real engine bug would: the
        # fault lane forces the batch even on short fault lists, so it
        # must catch the bug and the bundle must record which backend
        # diverged.
        from repro.sim import npsim

        real_batch = npsim.propagate_batch

        def corrupt_batch(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real_batch(state, roots, chunk_bytes)
            detect[:, 0] ^= self.np.uint64(1)
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", corrupt_batch)
        report = run_fuzz(
            budget_ms=30_000,
            seed=3,
            bundle_dir=str(tmp_path),
            max_gates=16,
        )
        assert report.failures, "fuzzer missed the corrupted numpy engine"
        failure = report.failures[0]
        assert failure.kind == "fuzz.fault_sim"
        manifest, _ = load_bundle(failure.bundle)
        assert manifest["context"]["kernel"] == "numpy"
        # While the engine bug is still live the replay runs the forced
        # batch (the recorded kernel) and reproduces; once the engine is
        # healthy again the divergence correctly goes stale.
        assert replay_bundle(failure.bundle).reproduced
        monkeypatch.setattr(npsim, "propagate_batch", real_batch)
        assert not replay_bundle(failure.bundle).reproduced


class TestBatchSeamLane:
    """The chunk-seam lane: ``propagate_batch`` a few machines per chunk
    against the interpreted walk."""

    def test_clean_lane(self):
        from repro.analysis.fuzz import _check_batch_seams

        for seed in range(4):
            circuit = generators.random_dag(5, 24, seed=seed)
            assert _check_batch_seams(circuit, seed, 130) is None

    def test_planted_batch_bug_bundles_replayably(
        self, tmp_path, monkeypatch
    ):
        import numpy as np

        from repro.analysis.fuzz import _check_batch_seams
        from repro.cli import main
        from repro.sim import npsim
        from repro.verify import write_bundle

        real = npsim.propagate_batch

        def flip_bit_zero(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, roots, chunk_bytes)
            detect[:, 0] ^= np.uint64(1)
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", flip_bit_zero)
        circuit = generators.random_dag(5, 24, seed=2)
        divergence = _check_batch_seams(circuit, 0, 130)
        assert divergence is not None
        assert divergence.kind == "fuzz.batch_seams"
        # ``fuzz.tiled_batch`` is the lane's kind before tiling was
        # removed; its bundles carry the same context and replay too.
        paths = [
            write_bundle(
                kind,
                circuit=circuit,
                context=divergence.context,
                expected=divergence.expected,
                actual=divergence.actual,
                message=divergence.message,
                bundle_dir=tmp_path / kind,
            )
            for kind in (divergence.kind, "fuzz.tiled_batch")
        ]
        for path in paths:
            assert main(["replay", str(path)]) == 0
        monkeypatch.setattr(npsim, "propagate_batch", real)
        for path in paths:
            assert main(["replay", str(path)]) == 1


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
    def test_planted_kernel_bug_found_shrunk_and_replayable(
        self, tmp_path, engine_bug
    ):
        """Acceptance criteria: find the engine bug, shrink to <=10 gates,
        write a bundle that reproduces while the bug is live and goes
        stale once it is fixed."""
        lift = engine_bug(GateType.AND, GateType.OR)
        report = run_fuzz(
            budget_ms=30_000,
            seed=1,
            bundle_dir=str(tmp_path),
            max_gates=20,
        )
        assert report.failures, "fuzzer missed the planted engine bug"
        failure = report.failures[0]
        assert failure.kind == "fuzz.fault_sim"
        assert failure.gates_shrunk <= 10
        assert failure.gates_shrunk <= failure.gates_found
        manifest, circuit = load_bundle(failure.bundle)
        assert manifest["kind"] == "fuzz.fault_sim"
        assert manifest["context"]["kernel"] == "numpy"
        assert circuit.gate_count() == failure.gates_shrunk
        assert any(g.gate_type is GateType.AND for g in circuit.gates)
        result = replay_bundle(failure.bundle)
        assert result.reproduced
        assert replay_bundle(failure.bundle).reproduced  # deterministic
        lift()
        assert not replay_bundle(failure.bundle).reproduced


class TestIncrementalGainsLane:
    """The incremental lane also pits the batched candidate scorer
    against the interpreted walk, forced on regardless of dispatch."""

    def test_clean_lane(self):
        from repro.analysis.fuzz import _check_incremental

        for seed in range(6):
            circuit = generators.random_dag(5, 24, seed=seed)
            assert _check_incremental(circuit, seed) is None

    def test_planted_batch_bug_bundles_replayably(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.fuzz import _check_incremental
        from repro.sim import npsim
        from repro.verify import write_bundle

        real = npsim.PlacementBatch._chunk

        def off_by_one(self, sites, cpt, theta):
            gains, nodes = real(self, sites, cpt, theta)
            return [g + 1 for g in gains], nodes

        monkeypatch.setattr(npsim.PlacementBatch, "_chunk", off_by_one)
        circuit = generators.random_dag(5, 24, seed=2)
        divergence = _check_incremental(circuit, 0)
        assert divergence is not None
        assert divergence.kind == "incremental.gains"
        small = shrink_circuit(
            circuit, lambda c: _check_incremental(c, 0) is not None
        )
        assert small.gate_count() <= circuit.gate_count()
        final = _check_incremental(small, 0)
        path = write_bundle(
            final.kind,
            circuit=small,
            context=final.context,
            expected=final.expected,
            actual=final.actual,
            message=final.message,
            bundle_dir=tmp_path,
        )
        assert replay_bundle(path).reproduced
        monkeypatch.setattr(npsim.PlacementBatch, "_chunk", real)
        assert not replay_bundle(path).reproduced


# ---------------------------------------------------------------------------
# Planted bugs for the per-lane replay test.  Each takes ``(monkeypatch,
# engine_bug)``, plants its bug and returns a callable that lifts it.
# ---------------------------------------------------------------------------

_TEST_PID = os.getpid()


def _batch_plant(corrupt):
    """Corrupt ``propagate_batch``'s detection matrix in place with
    ``corrupt(detect, state, n_machines)``."""

    def plant(monkeypatch, _engine_bug):
        from repro.sim import npsim

        real = npsim.propagate_batch

        def planted(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, roots, chunk_bytes)
            corrupt(detect, state, len(roots))
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", planted)
        return lambda: monkeypatch.setattr(npsim, "propagate_batch", real)

    return plant


def _flip_bit_zero(detect, _state, _n):
    detect[:, 0] ^= np.uint64(1)


def _flip_second_machine(detect, _state, n):
    # Needs two fault machines in one cube: a one-fault run never sees it.
    if n > 1:
        detect[1, 0] ^= np.uint64(1)


def _flip_partial_blocks(detect, state, _n):
    # Hits only blocks whose last word is partial: the dropping run's
    # narrow blocks see it, the exact run's full word does not.
    if state.mask[-1] != ~np.uint64(0):
        detect[:, 0] ^= np.uint64(1)


def _fold_plant(only_in_workers=False):
    """An in-region fold that forgets the side inputs: every excited
    fault reaches its region root.  With ``only_in_workers``, forked
    pool workers inherit the bug and the parent's serial run is
    spared."""

    def plant(monkeypatch, _engine_bug):
        from repro.sim.fault_sim import FaultSimulator

        real = FaultSimulator._sensitization

        def planted(self, line, good_values, mask, memo):
            if only_in_workers and os.getpid() == _TEST_PID:
                return real(self, line, good_values, mask, memo)
            return mask

        monkeypatch.setattr(FaultSimulator, "_sensitization", planted)
        return lambda: monkeypatch.setattr(
            FaultSimulator, "_sensitization", real
        )

    return plant


def _method_plant(owner, name, wrap):
    """Replace ``owner.name`` with ``wrap(real)``."""

    def plant(monkeypatch, _engine_bug):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(real))
        return lambda: monkeypatch.setattr(owner, name, real)

    return plant


def _without_base_fixes(real):
    # A delta-only bug: the swept levels lose the base's control fixes.
    def delta(self, *args):
        saved, self._fixes = self._fixes, ({}, {})
        try:
            return real(self, *args)
        finally:
            self._fixes = saved

    return delta


def _gain_off_by_one(real):
    def chunk(self, sites, cpt, theta):
        gains, nodes = real(self, sites, cpt, theta)
        return [g + 1 for g in gains], nodes

    return chunk


def _free_observation_points(real):
    # The DP prices observation points at zero, so its optimum is not.
    def decision_cost(self, decision):
        return real(self, (False, decision[1]))

    return decision_cost


def _lane_cases():
    from repro.core.dp import DPSolver
    from repro.sim import npsim

    def dag():
        return generators.random_dag(5, 24, seed=2)

    floats = lambda _mp, bug: bug(  # noqa: E731
        GateType.AND, GateType.OR, folds="floats"
    )
    # id: (lane, kind it bundles, circuit, plant, shrink probes)
    return {
        "fault_sim": (
            lambda c: fuzz._check_fault_sim(c, 0, 64), "fuzz.fault_sim",
            dag, _batch_plant(_flip_bit_zero), 60,
        ),
        "fault_sim-two-machines": (
            lambda c: fuzz._check_fault_sim(c, 0, 64), "fuzz.fault_sim",
            dag, _batch_plant(_flip_second_machine), 60,
        ),
        "fault_sim-fold": (
            lambda c: fuzz._check_fault_sim(c, 0, 64), "fuzz.fault_sim",
            dag, _fold_plant(), 60,
        ),
        "coverage": (
            lambda c: fuzz._check_coverage(c, 0, 64), "fuzz.coverage",
            dag, _batch_plant(_flip_partial_blocks), 60,
        ),
        "placement": (
            lambda c: fuzz._check_placement(c, 0), "fuzz.placement",
            dag, floats, 60,
        ),
        "incremental": (
            lambda c: fuzz._check_incremental(c, 11), "fuzz.incremental",
            dag, _method_plant(
                npsim.PlacementBatch, "delta", _without_base_fixes
            ), 60,
        ),
        "incremental-gains": (
            lambda c: fuzz._check_incremental(c, 0), "incremental.gains",
            dag, _method_plant(
                npsim.PlacementBatch, "_chunk", _gain_off_by_one
            ), 60,
        ),
        "batch_seams": (
            lambda c: fuzz._check_batch_seams(c, 0, 130), "fuzz.batch_seams",
            dag, _batch_plant(_flip_bit_zero), 60,
        ),
        "dp_vs_exhaustive": (
            lambda c: fuzz._check_dp_vs_exhaustive(c, 0),
            "fuzz.dp_vs_exhaustive",
            lambda: generators.random_tree(6, seed=4),
            _method_plant(DPSolver, "_decision_cost", _free_observation_points),
            60,
        ),
        # every probe would start a process pool: bundled unshrunk
        "parallel": (
            lambda c: fuzz._check_parallel(c, 0, 64), "fuzz.parallel",
            dag, _fold_plant(only_in_workers=True), 0,
        ),
    }


class TestLaneBundlesReplay:
    """Every lane's shrunk bundle replays: exit 0 while its planted bug
    is live, exit 1 once it is lifted."""

    @pytest.mark.parametrize("case", sorted(_lane_cases()))
    def test_planted_bug_bundle_replays(
        self, case, tmp_path, monkeypatch, engine_bug
    ):
        from repro.cli import main
        from repro.verify import write_bundle

        lane, kind, build, plant, probes = _lane_cases()[case]
        if case == "parallel" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the plant reaches pool workers only through fork")
        circuit = build()
        lift = plant(monkeypatch, engine_bug)
        assert lane(circuit) is not None, "the lane missed the planted bug"
        small = shrink_circuit(
            circuit, lambda c: lane(c) is not None, max_probes=probes
        )
        divergence = lane(small)
        assert divergence.kind == kind
        path = write_bundle(
            divergence.kind,
            circuit=small,
            context=divergence.context,
            expected=divergence.expected,
            actual=divergence.actual,
            message=divergence.message,
            bundle_dir=tmp_path,
        )
        assert main(["replay", str(path)]) == 0
        lift()
        assert main(["replay", str(path)]) == 1


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
