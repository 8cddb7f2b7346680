"""Shadow verification: planted engine bugs must be caught and bundled."""

from __future__ import annotations

import json

import pytest

from repro.circuit import GateType
from repro.circuit.generators import c17, random_dag
from repro.errors import DivergenceError
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import all_stuck_at_faults
from repro.sim.logic_sim import LogicSimulator
from repro.sim.patterns import UniformRandomSource
from repro.verify import (
    Guard,
    GuardedSession,
    load_bundle,
    replay_bundle,
)


def _stim(circuit, n=64, seed=3):
    return UniformRandomSource(seed).generate(circuit.inputs, n)


class TestGuardSampling:
    def test_fraction_zero_never_checks(self):
        guard = Guard(fraction=0.0, seed=0)
        assert not any(guard.should_check() for _ in range(200))

    def test_fraction_one_always_checks(self):
        guard = Guard(fraction=1.0, seed=0)
        assert all(guard.should_check() for _ in range(200))

    def test_sampling_is_seeded(self):
        a = [Guard(fraction=0.3, seed=7).should_check() for _ in range(50)]
        b = [Guard(fraction=0.3, seed=7).should_check() for _ in range(50)]
        assert a == b

    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.3, 1.0])
    def test_sampled_draws_the_should_check_coins(self, fraction):
        # Fault blocks draw their coins in one pass; the picks and the
        # stream left behind must match one should_check per result.
        one, bulk = Guard(fraction, seed=5), Guard(fraction, seed=5)
        for n in (0, 1, 300, 7):
            picked = [i for i in range(n) if one.should_check()]
            assert bulk.sampled(n) == picked
        assert one.should_check() == bulk.should_check()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            Guard(fraction=1.5)


class TestFaultSimGuard:
    def test_clean_circuit_passes_full_shadowing(self, tmp_path):
        circuit = c17()
        stim = _stim(circuit)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        result = sim.run(stim, 64)
        assert guard.checks > 0
        assert guard.divergences == 0
        arbiter = FaultSimulator(circuit, kernel="interp").run(stim, 64)
        assert result.detection_word == arbiter.detection_word

    def test_planted_cone_bug_raises_with_bundle(self, tmp_path, engine_bug):
        from repro.cli import main
        from repro.sim import npsim

        circuit = c17()  # all-NAND: a NAND fold bug hits every cone
        stim = _stim(circuit)
        lift = engine_bug(GateType.NAND, GateType.AND)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        bad_sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        # A short fault list walks unless forced onto the batch.
        with npsim.forced(), pytest.raises(DivergenceError) as info:
            bad_sim.run(stim, 64, faults=all_stuck_at_faults(circuit)[:4])
        exc = info.value
        assert exc.kind == "fault_sim.cone"
        assert exc.bundle_path is not None
        manifest, bundled_circuit = load_bundle(exc.bundle_path)
        assert manifest["kind"] == "fault_sim.cone"
        assert manifest["context"]["kernel"] == "numpy"
        assert "sources" not in manifest
        assert sorted(bundled_circuit.inputs) == sorted(circuit.inputs)
        assert main(["replay", str(exc.bundle_path)]) == 0
        lift()
        assert main(["replay", str(exc.bundle_path)]) == 1

    def test_short_lists_walk_under_the_guard(self, tmp_path, engine_bug):
        # Unforced, a short list walks its few root machines on the
        # interpreter — the arbiter itself — so a batch-only engine bug
        # cannot touch it; the Guard still checks every fault's factored
        # word against the per-fault walk.
        circuit = c17()
        stim = _stim(circuit)
        engine_bug(GateType.NAND, GateType.AND)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        good = LogicSimulator(circuit).run(stim, 64)
        faults = all_stuck_at_faults(circuit)[:4]
        result = FaultSimulator(circuit, kernel="numpy", guard=guard).run(
            stim, 64, faults=faults, good_values=good
        )
        arbiter = FaultSimulator(circuit, kernel="interp").run(
            stim, 64, faults=faults
        )
        assert result.detection_word == arbiter.detection_word
        assert guard.checks == len(faults)
        assert guard.divergences == 0

    def test_replay_refuses_removed_cone_walk_bundles(self, tmp_path, capsys):
        # Per-output ``diffs`` bundles came only from the removed numpy
        # cone walk: replay refuses them (exit 2) instead of printing a
        # misleading "not reproduced".
        from repro.cli import main
        from repro.verify import write_bundle
        from repro.verify.bundle import fault_to_payload

        circuit = c17()
        good = LogicSimulator(circuit).run(_stim(circuit), 64)
        fault = all_stuck_at_faults(circuit)[0]
        context = {
            "fault": fault_to_payload(fault),
            "n_patterns": 64,
            "good_values": dict(good),
            "start": fault.node,
            "kernel": "numpy",
        }
        bundles = {
            variant: write_bundle(
                "fault_sim.cone",
                circuit=circuit,
                context={**context, "variant": variant},
                expected={"detect": 1},
                actual={"detect": 0},
                message="planted",
                bundle_dir=tmp_path / variant,
            )
            for variant in ("diffs", "detect")
        }
        assert main(["replay", str(bundles["diffs"])]) == 2
        err = capsys.readouterr().err
        assert "cone walk" in err and "removed" in err
        assert main(["replay", str(bundles["detect"])]) == 1  # healthy

    def test_bundle_replays_deterministically(self, tmp_path, engine_bug):
        from repro.sim import npsim

        circuit = c17()
        stim = _stim(circuit)
        lift = engine_bug(GateType.NAND, GateType.AND)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        # c17 reaches 3 root machines, which walk unless forced.
        with npsim.forced(), pytest.raises(DivergenceError) as info:
            FaultSimulator(circuit, kernel="numpy", guard=guard).run(
                stim, 64
            )
        for _ in range(2):  # deterministic: replays identically twice
            result = replay_bundle(info.value.bundle_path)
            assert result.reproduced
        lift()  # a healthy engine no longer reproduces the divergence
        assert not replay_bundle(info.value.bundle_path).reproduced

    def test_unguarded_run_is_unaffected(self):
        circuit = c17()
        stim = _stim(circuit)
        result = FaultSimulator(circuit, kernel="numpy").run(stim, 64)
        arbiter = FaultSimulator(circuit, kernel="interp").run(stim, 64)
        assert result.detection_word == arbiter.detection_word


class TestCopAndIncrementalGuards:
    def test_incremental_clean_under_ambient_session(self, tmp_path):
        from repro.core.incremental import IncrementalEvaluator
        from repro.core.problem import TPIProblem

        circuit = random_dag(n_inputs=4, n_gates=12, seed=5)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        with GuardedSession(
            fraction=1.0, seed=0, bundle_dir=tmp_path
        ) as guard:
            IncrementalEvaluator(problem).evaluate(())
        assert guard.divergences == 0


class TestIncrementalDeltaReplay:
    """``incremental.delta`` bundles (the vectorized placement delta
    behind ``evaluate``) must replay: reproduced while the engine bug is
    planted, stale once it is lifted."""

    def test_planted_sens_fold_bug_replays(self, tmp_path, engine_bug):
        from repro.cli import main
        from repro.core.incremental import IncrementalEvaluator
        from repro.core.problem import TestPoint, TestPointType, TPIProblem
        from repro.sim import npsim

        circuit = random_dag(8, 40, seed=3)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        lift = engine_bug(GateType.AND, GateType.OR, folds="floats")
        with npsim.forced(), GuardedSession(
            fraction=1.0, seed=0, bundle_dir=tmp_path
        ):
            inc = IncrementalEvaluator(problem, kernel="numpy")
            with pytest.raises(DivergenceError) as info:
                # a control point re-runs the planted probability fold on
                # the gates downstream of its site, so the delta's own
                # check fires before evaluate's from-scratch one
                for name in circuit.node_names:
                    inc.evaluate([TestPoint(name, TestPointType.CONTROL_AND)])
        assert info.value.kind == "incremental.delta"
        bundle = info.value.bundle_path
        assert bundle is not None
        manifest, _circuit = load_bundle(bundle)
        assert manifest["context"]["kernel"] == "numpy"
        assert main(["replay", bundle]) == 0
        assert replay_bundle(bundle).reproduced
        lift()
        assert main(["replay", bundle]) == 1
        assert not replay_bundle(bundle).reproduced

    def test_float_plant_corrupts_placement_pass(self, engine_bug):
        from repro.core.problem import TPIProblem
        from repro.core.virtual import evaluate_placement

        circuit = random_dag(8, 40, seed=3)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        reference = evaluate_placement(problem, [], kernel="interp")
        lift = engine_bug(GateType.AND, GateType.OR, folds="floats")
        corrupted = evaluate_placement(problem, [], kernel="numpy")
        assert corrupted.stem_pre != reference.stem_pre
        assert corrupted.wire_obs != reference.wire_obs
        lift()
        healthy = evaluate_placement(problem, [], kernel="numpy")
        assert healthy.stem_pre == reference.stem_pre
        assert healthy.wire_obs == reference.wire_obs


class TestGuardedSession:
    def test_ambient_guard_catches_planted_bug(self, tmp_path, engine_bug):
        from repro.sim import npsim

        circuit = c17()
        stim = _stim(circuit)
        engine_bug(GateType.NAND, GateType.AND)
        with pytest.raises(DivergenceError):
            with GuardedSession(fraction=1.0, seed=0, bundle_dir=tmp_path):
                with npsim.forced():  # c17's 3 root machines batch
                    FaultSimulator(circuit, kernel="numpy").run(stim, 64)

    def test_session_restores_previous_guard(self, tmp_path):
        from repro.verify import active_guard

        assert active_guard(None) is None
        with GuardedSession(fraction=0.5, bundle_dir=tmp_path) as outer:
            with GuardedSession(fraction=1.0, bundle_dir=tmp_path) as inner:
                assert active_guard(None) is inner
            assert active_guard(None) is outer
        assert active_guard(None) is None


class TestPlanting:
    def test_planted_logic_bug_changes_simulation(self, engine_bug):
        # The word-fold plant reaches the fault batch, the numpy
        # kernel's one uint64 pass.
        from repro.sim import npsim

        circuit = c17()
        stim = _stim(circuit)
        reference = FaultSimulator(circuit, kernel="interp").run(stim, 64)

        def batched():
            with npsim.forced():
                sim = FaultSimulator(circuit, kernel="numpy")
                return sim.run(stim, 64).detection_word

        lift = engine_bug(GateType.NAND, GateType.AND)
        assert batched() != reference.detection_word
        lift()
        assert batched() == reference.detection_word


class TestBundleFormat:
    def test_manifest_is_json_and_content_addressed(self, tmp_path):
        from repro.verify import write_bundle

        circuit = c17()
        path1 = write_bundle(
            "fuzz.fault_sim",
            circuit=circuit,
            context={"n_patterns": 8, "stimulus": {}},
            expected={"a": 1},
            actual={"a": 2},
            message="test",
            bundle_dir=tmp_path,
        )
        path2 = write_bundle(
            "fuzz.fault_sim",
            circuit=circuit,
            context={"n_patterns": 8, "stimulus": {}},
            expected={"a": 1},
            actual={"a": 2},
            message="test",
            bundle_dir=tmp_path,
        )
        assert path1 == path2  # identical divergence -> identical bundle
        manifest = json.loads((path1 / "manifest.json").read_text())
        assert manifest["schema"] == "repro-bundle/1"
        assert (path1 / "circuit.bench").exists()
