"""Word-parallel numpy backend: exact equality against the interpreter.

The numpy engine promises *bit-identical* results to the interpreted
arbiter on every pass — logic, fault propagation (with and without fault
dropping), both COP sweeps, and virtual placement evaluation.  These
tests hold it to that promise with exact ``==`` comparisons (no float
tolerance anywhere), exercise the packed-state Mapping semantics and the
plan registry, and verify the Guard shadow machinery catches a planted
numpy divergence the same way it catches a miscompiled kernel.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generators
from repro.core import TestPoint, TestPointType, TPIProblem, evaluate_placement
from repro.errors import DivergenceError
from repro.sim import (
    FaultSimulator,
    LogicSimulator,
    all_stuck_at_faults,
    resolve_kernel,
)
from repro.sim import npsim
from repro.sim.npsim import (
    PackedState,
    clear_plans,
    get_plan,
    plan_registry_size,
)
from repro.testability.cop import cop_measures
from repro.verify.guard import Guard

BACKENDS = ("interp", "compiled", "numpy")

PLACEABLE = (
    TestPointType.OBSERVATION,
    TestPointType.CONTROL_AND,
    TestPointType.CONTROL_OR,
    TestPointType.CONTROL_RANDOM,
)


def _stim(circuit, n_patterns, seed=0):
    rng = random.Random(seed)
    return {i: rng.getrandbits(n_patterns) for i in circuit.inputs}


def _circuits():
    return [
        generators.c17(),
        generators.wide_and_cone(8),
        generators.random_dag(5, 40, seed=11),
        generators.random_tree(12, seed=3),
    ]


class TestKernelResolution:
    def test_numpy_is_a_kernel_mode(self):
        from repro.sim import KERNEL_MODES

        assert "numpy" in KERNEL_MODES
        assert resolve_kernel("numpy") == "numpy"


class TestPlanRegistry:
    def test_plans_are_cached_per_circuit(self):
        circuit = generators.c17()
        clear_plans()
        a = get_plan(circuit)
        b = get_plan(circuit)
        assert a is b
        assert plan_registry_size() == 1

    def test_clear_plans_resets(self):
        circuit = generators.c17()
        get_plan(circuit)
        clear_plans()
        assert plan_registry_size() == 0

    def test_structural_twins_share_a_plan(self):
        a = generators.random_dag(4, 20, seed=9)
        b = generators.random_dag(4, 20, seed=9)
        clear_plans()
        assert get_plan(a) is get_plan(b)


class TestPackedState:
    def _state(self, n_patterns=70):
        circuit = generators.c17()
        stim = _stim(circuit, n_patterns, seed=4)
        state = LogicSimulator(circuit, kernel="numpy").run(stim, n_patterns)
        return circuit, stim, state

    def test_run_returns_packed_state(self):
        _, _, state = self._state()
        assert isinstance(state, PackedState)

    def test_mapping_protocol_matches_interp(self):
        circuit, stim, state = self._state()
        interp = LogicSimulator(circuit, kernel="interp").run(stim, 70)
        assert len(state) == len(interp)
        assert set(state) == set(interp)
        for name in interp:
            assert state[name] == interp[name], name

    def test_equality_with_plain_dict(self):
        circuit, stim, state = self._state()
        interp = LogicSimulator(circuit, kernel="interp").run(stim, 70)
        assert state == dict(interp)
        assert dict(state) == dict(interp)
        assert not (state == {**interp, circuit.outputs[0]: -1})

    def test_missing_name_raises(self):
        _, _, state = self._state()
        with pytest.raises(KeyError):
            state["no-such-net"]

    def test_unhashable(self):
        _, _, state = self._state()
        with pytest.raises(TypeError):
            hash(state)


class TestLogicEquality:
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 200, 1024])
    def test_all_backends_bit_identical(self, n_patterns):
        for circuit in _circuits():
            stim = _stim(circuit, n_patterns, seed=n_patterns)
            ref = LogicSimulator(circuit, kernel="interp").run(
                stim, n_patterns
            )
            for kernel in ("compiled", "numpy"):
                got = LogicSimulator(circuit, kernel=kernel).run(
                    stim, n_patterns
                )
                assert dict(got) == dict(ref), (circuit.name, kernel)

    def test_forces_fall_back_to_interp(self):
        # Node forces take the interpreted path regardless of backend;
        # results must still agree with an explicit interp run.
        circuit = generators.c17()
        stim = _stim(circuit, 64)
        node = circuit.node_names[-1]
        forces = {node: 0}
        got = LogicSimulator(circuit, kernel="numpy").run(
            stim, 64, node_forces=forces
        )
        ref = LogicSimulator(circuit, kernel="interp").run(
            stim, 64, node_forces=forces
        )
        assert dict(got) == dict(ref)


class TestFaultSimEquality:
    @pytest.mark.parametrize("n_patterns", [1, 64, 65, 900])
    def test_exact_mode(self, n_patterns):
        for circuit in _circuits():
            stim = _stim(circuit, n_patterns, seed=n_patterns + 1)
            faults = all_stuck_at_faults(circuit)
            ref = FaultSimulator(circuit, kernel="interp").run(
                stim, n_patterns, faults=faults
            )
            for kernel in ("compiled", "numpy"):
                got = FaultSimulator(circuit, kernel=kernel).run(
                    stim, n_patterns, faults=faults
                )
                assert got.detection_word == ref.detection_word, kernel
                assert got.first_detect == ref.first_detect, kernel

    @pytest.mark.parametrize("block", [32, 64, 128])
    def test_coverage_mode_with_fault_dropping(self, block):
        n_patterns = 700
        for circuit in _circuits():
            stim = _stim(circuit, n_patterns, seed=block)
            faults = all_stuck_at_faults(circuit)
            ref = FaultSimulator(circuit, kernel="interp").run_coverage(
                stim, n_patterns, faults=faults, block=block
            )
            for kernel in ("compiled", "numpy"):
                got = FaultSimulator(circuit, kernel=kernel).run_coverage(
                    stim, n_patterns, faults=faults, block=block
                )
                assert got.first_detect == ref.first_detect, kernel

    def test_per_output_responses(self):
        circuit = generators.random_dag(5, 40, seed=11)
        n_patterns = 130
        stim = _stim(circuit, n_patterns, seed=2)
        sims = {
            k: FaultSimulator(circuit, kernel=k) for k in BACKENDS
        }
        goods = {
            k: LogicSimulator(circuit, kernel=k).run(stim, n_patterns)
            for k in BACKENDS
        }
        for fault in all_stuck_at_faults(circuit):
            ref = sims["interp"].simulate_fault_responses(
                fault, goods["interp"], n_patterns
            )
            for kernel in ("compiled", "numpy"):
                got = sims[kernel].simulate_fault_responses(
                    fault, goods[kernel], n_patterns
                )
                assert got == ref, (fault, kernel)

    def test_cone_gate_evals_match_compiled(self):
        # Per-fault propagation evaluates whole cones like the compiled
        # kernels (the interpreter's event-driven walk legitimately
        # skips dead gates, so its count differs).
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 128, seed=7)
        faults = all_stuck_at_faults(circuit)
        comp = FaultSimulator(circuit, kernel="compiled")
        nump = FaultSimulator(circuit, kernel="numpy")
        good_c = LogicSimulator(circuit, kernel="compiled").run(stim, 128)
        good_n = LogicSimulator(circuit, kernel="numpy").run(stim, 128)
        for fault in faults:
            comp.simulate_fault(fault, good_c, 128)
            nump.simulate_fault(fault, good_n, 128)
        assert nump.gate_evals == comp.gate_evals

    def test_batched_run_counts_full_sweep_evals(self):
        # run() on a wide fault list takes the batched full-circuit pass,
        # whose honest work metric is gate rows × fault machines — at
        # least the summed cone sizes the compiled kernels would walk.
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 128, seed=7)
        faults = all_stuck_at_faults(circuit)
        comp = FaultSimulator(circuit, kernel="compiled")
        nump = FaultSimulator(circuit, kernel="numpy")
        comp.run(stim, 128, faults=faults)
        nump.run(stim, 128, faults=faults)
        assert nump.gate_evals >= comp.gate_evals

    def test_accepts_plain_dict_good_values(self):
        # Parallel workers ship plain dicts, not PackedState; the numpy
        # path must repack transparently.
        circuit = generators.c17()
        stim = _stim(circuit, 96, seed=5)
        good = dict(LogicSimulator(circuit, kernel="interp").run(stim, 96))
        sim_np = FaultSimulator(circuit, kernel="numpy")
        sim_it = FaultSimulator(circuit, kernel="interp")
        for fault in all_stuck_at_faults(circuit):
            assert sim_np.simulate_fault(
                fault, good, 96
            ) == sim_it.simulate_fault(fault, good, 96), fault


class TestBatchedFaultSim:
    """The fault-parallel batched sweep: one strategy, same answers."""

    def _sites(self, plan, state, faults):
        sites = []
        for f in faults:
            if f.branch is None:
                sites.append((plan.row[f.node], state.stuck_row(f.value)))
            else:
                sink, pin = f.branch
                forced = state.inject_branch(
                    sink, pin, state.stuck_row(f.value)
                ).copy()
                sites.append((plan.row[sink], forced))
        return sites

    @pytest.mark.parametrize("n_patterns", [64, 100, 200])
    def test_matches_per_cone_walks(self, n_patterns):
        circuit = generators.random_dag(5, 40, seed=11)
        plan = get_plan(circuit)
        stim = _stim(circuit, n_patterns, seed=3)
        state = LogicSimulator(circuit, kernel="numpy").run(stim, n_patterns)
        good = dict(state)
        faults = all_stuck_at_faults(circuit)
        detect, evals = npsim.propagate_batch(
            state, self._sites(plan, state, faults)
        )
        assert evals > 0
        interp = FaultSimulator(circuit, kernel="interp")
        words = npsim.rows_to_words(detect)
        for fault, word in zip(faults, words):
            assert word == interp.simulate_fault(
                fault, good, n_patterns
            ), fault

    def test_chunking_is_result_invariant(self):
        circuit = generators.random_dag(5, 40, seed=11)
        plan = get_plan(circuit)
        n_patterns = 130
        stim = _stim(circuit, n_patterns, seed=5)
        state = LogicSimulator(circuit, kernel="numpy").run(stim, n_patterns)
        sites = self._sites(plan, state, all_stuck_at_faults(circuit))
        full, evals_full = npsim.propagate_batch(state, sites)
        # ~4 fault machines per chunk forces many site-sorted chunks.
        tiny_budget = 8 * plan.n_rows * state.values.shape[1] * 4
        tiny, evals_tiny = npsim.propagate_batch(
            state, sites, chunk_bytes=tiny_budget
        )
        assert np.array_equal(full, tiny)
        # Site-sorted chunks block-copy their fault-free prefix rows, so
        # splitting can only shed evaluations, never add them.
        assert 0 < evals_tiny <= evals_full

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 50),
        tile=st.sampled_from([1, 2, 3, 5]),
        n_patterns=st.sampled_from([130, 192, 323]),
    )
    def test_tile_seams_bit_identical(self, seed, tile, n_patterns):
        # Word-axis tiling must commute with evaluation: any tile width
        # (including widths that straddle the last partial word) yields
        # the untiled detection matrix and gate-eval count exactly.
        circuit = generators.random_dag(5, 40, seed=seed)
        plan = get_plan(circuit)
        stim = _stim(circuit, n_patterns, seed=seed + 1)
        state = LogicSimulator(circuit, kernel="numpy").run(stim, n_patterns)
        sites = self._sites(plan, state, all_stuck_at_faults(circuit))
        # Pin the per-chunk fault capacity so tiling is the only thing
        # that varies (capacity is per-tile-footprint by default).
        rows = plan.n_rows + npsim.batch_staging_rows(plan)
        budget = 8 * rows * tile * 24
        full, evals_full = npsim.propagate_batch(
            state, sites, chunk_bytes=budget * max(state.values.shape[1], 1),
            tile_words=state.values.shape[1],
        )
        tiled, evals_tiled = npsim.propagate_batch(
            state, sites, chunk_bytes=budget, tile_words=tile
        )
        assert np.array_equal(full, tiled)

    def test_tiled_run_matches_interp_end_to_end(self):
        # Force tiles *and* chunks through a tiny memory budget and the
        # fault simulator must still reproduce the interpreted run and
        # coverage results exactly, first-detects included.
        from repro.sim.fault_sim import BatchPolicy

        circuit = generators.random_dag(5, 40, seed=13)
        plan = get_plan(circuit)
        n_patterns = 300
        stim = _stim(circuit, n_patterns, seed=4)
        rows = plan.n_rows + npsim.batch_staging_rows(plan)
        policy = BatchPolicy(
            min_faults=1, min_capacity=1, chunk_bytes=8 * rows * 2 * 5
        )
        ref = FaultSimulator(circuit, kernel="interp")
        sim = FaultSimulator(circuit, kernel="numpy", batch_policy=policy)
        res = sim.run(stim, n_patterns)
        exact = ref.run(stim, n_patterns)
        assert res.detection_word == exact.detection_word
        assert res.first_detect == exact.first_detect
        cov = FaultSimulator(
            circuit, kernel="numpy", batch_policy=policy
        ).run_coverage(stim, n_patterns, block=64)
        ref_cov = ref.run_coverage(stim, n_patterns, block=64)
        assert cov.first_detect == ref_cov.first_detect
        assert cov.detection_word == ref_cov.detection_word

    def test_capacity_charges_staging_rows(self):
        # Regression: capacity once counted only the faulty value cube,
        # letting wide-output circuits overshoot the memory budget by
        # the staged output block.  Pin the exact boundary: a budget of
        # precisely K machines' full footprint holds K, one byte less
        # holds K - 1, and cube-only accounting would still claim K fit.
        circuit = generators.random_dag(5, 40, seed=3)
        plan = get_plan(circuit)
        staging = npsim.batch_staging_rows(plan)
        assert staging == len(plan.outputs) + 3
        words, K = 4, 7
        n_patterns = words * 64
        footprint = 8 * (plan.n_rows + staging) * words
        capacity = lambda budget: npsim.batch_capacity(
            plan, n_patterns, chunk_bytes=budget, tile_words=words
        )
        assert capacity(footprint * K) == K
        assert capacity(footprint * K - 1) == K - 1
        assert 8 * plan.n_rows * words * K <= footprint * K - 1

    def test_strategy_picked_only_for_wide_fault_lists(self, monkeypatch):
        circuit = generators.c17()
        stim = _stim(circuit, 64)
        calls = []
        real = npsim.propagate_batch

        def spy(state, sites, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            calls.append(len(sites))
            return real(state, sites, chunk_bytes)

        monkeypatch.setattr(npsim, "propagate_batch", spy)
        faults = all_stuck_at_faults(circuit)
        sim = FaultSimulator(circuit, kernel="numpy")
        sim.run(stim, 64, faults=faults[:4])
        assert calls == []  # short list: per-cone walks
        sim.run(stim, 64, faults=faults)
        assert calls == [len(faults)]

    def test_batch_declined_outside_its_regime(self):
        sim = FaultSimulator(generators.c17(), kernel="numpy")
        assert sim._np_batch_ok(1000, 64)
        assert sim._np_batch_ok(1000, 1024)
        assert not sim._np_batch_ok(8, 64)  # too few faults
        # Wide patterns stay eligible: the sweep tiles the word axis, so
        # chunk capacity no longer collapses with the pattern budget.
        assert sim._np_batch_ok(1000, 65536)
        assert sim._np_batch_ok(1000, 1 << 26)

    def test_batch_policy_pins_the_decision(self):
        from repro.sim.fault_sim import BatchPolicy

        circuit = generators.c17()
        # The old fixed-width regime: cap the batch at 16 words and wide
        # pattern runs fall back to per-cone walks again.
        capped = FaultSimulator(
            circuit, kernel="numpy", batch_policy=BatchPolicy(max_words=16)
        )
        assert capped._np_batch_ok(1000, 1024)
        assert not capped._np_batch_ok(1000, 65536)
        # A higher fault floor declines lists the default accepts.
        picky = FaultSimulator(
            circuit, kernel="numpy", batch_policy=BatchPolicy(min_faults=64)
        )
        assert not picky._np_batch_ok(32, 64)
        assert picky._np_batch_ok(64, 64)

    def test_batch_policy_from_env(self, monkeypatch):
        from repro.sim.fault_sim import BatchPolicy

        monkeypatch.setenv("REPRO_NP_BATCH_MIN_FAULTS", "5")
        monkeypatch.setenv("REPRO_NP_BATCH_MAX_WORDS", "8")
        monkeypatch.setenv("REPRO_NP_BATCH_CHUNK_BYTES", str(1 << 20))
        policy = BatchPolicy.from_env()
        assert policy.min_faults == 5
        assert policy.max_words == 8
        assert policy.chunk_bytes == 1 << 20
        monkeypatch.setenv("REPRO_NP_BATCH_MAX_WORDS", "none")
        assert BatchPolicy.from_env().max_words is None
        monkeypatch.setenv("REPRO_NP_BATCH_MAX_WORDS", "0")
        assert BatchPolicy.from_env().max_words is None


class TestCopEquality:
    @pytest.mark.parametrize("stem_combine", ["or", "max"])
    def test_measures_bit_identical(self, stem_combine):
        for circuit in _circuits():
            ref = cop_measures(
                circuit, kernel="interp", stem_combine=stem_combine
            )
            for kernel in ("compiled", "numpy"):
                got = cop_measures(
                    circuit, kernel=kernel, stem_combine=stem_combine
                )
                assert got.probability == ref.probability, kernel
                assert got.observability == ref.observability, kernel
                assert got.branch_observability == (
                    ref.branch_observability
                ), kernel

    def test_overrides_fall_back_to_interp(self):
        circuit = generators.c17()
        node = circuit.node_names[-1]
        ref = cop_measures(
            circuit, kernel="interp", probability_overrides={node: 0.25}
        )
        got = cop_measures(
            circuit, kernel="numpy", probability_overrides={node: 0.25}
        )
        assert got.probability == ref.probability


def _random_points(circuit, seed, max_points=3):
    rng = random.Random(seed)
    points = []
    controlled = set()
    for _ in range(rng.randint(0, max_points)):
        node = rng.choice(circuit.node_names)
        kind = rng.choice(PLACEABLE)
        branch = None
        fanouts = circuit.fanouts(node)
        if fanouts and rng.random() < 0.4:
            branch = rng.choice(fanouts)
        site = (node, branch)
        if kind.is_control:
            if site in controlled:
                continue
            controlled.add(site)
        point = TestPoint(node, kind, branch=branch)
        if point not in points:
            points.append(point)
    return points


def _placement_payload(ev):
    return (
        ev.stem_pre,
        ev.stem_post,
        ev.wire_obs,
        ev.branch_pre,
        ev.branch_post,
        ev.branch_obs,
        ev.stem_post_obs,
    )


class TestPlacementEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_placements_bit_identical(self, seed):
        circuit = generators.random_dag(5, 35, seed=seed)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        points = _random_points(circuit, seed * 31 + 7)
        ref = evaluate_placement(problem, points, kernel="interp")
        for kernel in ("compiled", "numpy"):
            got = evaluate_placement(problem, points, kernel=kernel)
            assert _placement_payload(got) == _placement_payload(ref), kernel

    def test_empty_placement(self):
        circuit = generators.c17()
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        ref = evaluate_placement(problem, [], kernel="interp")
        got = evaluate_placement(problem, [], kernel="numpy")
        assert _placement_payload(got) == _placement_payload(ref)

    def test_incremental_base_pass_accepts_numpy(self):
        from repro.core.incremental import IncrementalEvaluator

        circuit = generators.random_dag(4, 20, seed=2)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        ref = IncrementalEvaluator(problem, kernel="interp").evaluate(())
        got = IncrementalEvaluator(problem, kernel="numpy").evaluate(())
        assert got.wire_obs == ref.wire_obs
        assert got.stem_pre == ref.stem_pre


class TestGuardOnNumpy:
    def test_clean_run_under_full_shadowing(self, tmp_path):
        circuit = generators.c17()
        stim = _stim(circuit, 64)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        result = sim.run(stim, 64)
        assert guard.checks > 0
        assert guard.divergences == 0
        arbiter = FaultSimulator(circuit, kernel="interp").run(stim, 64)
        assert result.detection_word == arbiter.detection_word

    def test_planted_cone_divergence_raises(self, tmp_path, monkeypatch):
        circuit = generators.c17()
        stim = _stim(circuit, 64)
        real = npsim.propagate_cone

        def corrupt(state, cone, injected, want_diffs):
            detect, diffs = real(state, cone, injected, want_diffs)
            return detect ^ 1, diffs  # flip pattern 0's verdict

        monkeypatch.setattr(npsim, "propagate_cone", corrupt)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        # A short fault list keeps run() on the per-cone strategy.
        faults = all_stuck_at_faults(circuit)[:4]
        with pytest.raises(DivergenceError) as info:
            sim.run(stim, 64, faults=faults)
        assert info.value.kind == "fault_sim.cone"
        assert guard.divergences == 1

    def test_planted_batch_divergence_raises(self, tmp_path, monkeypatch):
        circuit = generators.c17()
        stim = _stim(circuit, 64)
        real = npsim.propagate_batch

        def corrupt(state, sites, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, sites, chunk_bytes)
            detect[:, 0] ^= np.uint64(1)
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", corrupt)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        # c17's full collapsed list is wide enough for the batched pass.
        with pytest.raises(DivergenceError) as info:
            sim.run(stim, 64)
        assert info.value.kind == "fault_sim.cone"
        assert guard.divergences == 1

    def test_cop_shadow_records_numpy_kernel(self, tmp_path):
        circuit = generators.random_dag(4, 12, seed=5)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        cop_measures(circuit, kernel="numpy", guard=guard)
        assert guard.checks >= 1
        assert guard.divergences == 0


class TestBackendProperties:
    """Hypothesis sweep: every backend agrees on every measure."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        n_patterns=st.sampled_from([1, 17, 64, 65, 192]),
    )
    def test_fault_coverage_and_first_detect(self, seed, n_patterns):
        circuit = generators.random_dag(4, 25, seed=seed)
        stim = _stim(circuit, n_patterns, seed=seed)
        faults = all_stuck_at_faults(circuit)
        ref = FaultSimulator(circuit, kernel="interp").run_coverage(
            stim, n_patterns, faults=faults, block=64
        )
        for kernel in ("compiled", "numpy"):
            got = FaultSimulator(circuit, kernel=kernel).run_coverage(
                stim, n_patterns, faults=faults, block=64
            )
            assert got.first_detect == ref.first_detect, kernel
            assert got.n_detected() == ref.n_detected(), kernel

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_cop_and_placement(self, seed):
        circuit = generators.random_dag(4, 25, seed=seed)
        ref_cop = cop_measures(circuit, kernel="interp")
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        points = _random_points(circuit, seed ^ 0xBEEF)
        ref_ev = evaluate_placement(problem, points, kernel="interp")
        for kernel in ("compiled", "numpy"):
            got_cop = cop_measures(circuit, kernel=kernel)
            assert got_cop.probability == ref_cop.probability, kernel
            assert got_cop.observability == ref_cop.observability, kernel
            got_ev = evaluate_placement(problem, points, kernel=kernel)
            assert _placement_payload(got_ev) == (
                _placement_payload(ref_ev)
            ), kernel


class TestParallelNumpy:
    def test_jobs_chunking_matches_serial(self):
        from repro.sim import run_parallel

        circuit = generators.random_dag(5, 40, seed=11)
        n_patterns = 400
        stim = _stim(circuit, n_patterns, seed=9)
        faults = all_stuck_at_faults(circuit)
        serial = FaultSimulator(circuit, kernel="interp").run(
            stim, n_patterns, faults=faults
        )
        par = run_parallel(
            circuit, stim, n_patterns,
            faults=faults, jobs=2, kernel="numpy",
        )
        assert par.detection_word == serial.detection_word
        assert par.first_detect == serial.first_detect

    def test_jobs_coverage_matches_serial(self):
        from repro.sim import run_parallel

        circuit = generators.random_dag(5, 40, seed=11)
        n_patterns = 400
        stim = _stim(circuit, n_patterns, seed=10)
        faults = all_stuck_at_faults(circuit)
        serial = FaultSimulator(circuit, kernel="interp").run_coverage(
            stim, n_patterns, faults=faults, block=64
        )
        par = run_parallel(
            circuit, stim, n_patterns,
            faults=faults, jobs=2, kernel="numpy",
            mode="coverage", block=64,
        )
        assert par.first_detect == serial.first_detect
