"""Word-parallel numpy backend: exact equality against the interpreter.

The numpy engine promises *bit-identical* results to the interpreted
arbiter on every pass — fault propagation (with and without fault
dropping) and virtual placement evaluation.  These tests hold it to
that promise with exact ``==`` comparisons (no float tolerance
anywhere), exercise the good-machine pack and the plan registry, and
verify the Guard shadow machinery catches a planted numpy divergence.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuit import generators
from repro.core import TestPoint, TestPointType, TPIProblem, evaluate_placement
from repro.errors import DivergenceError
from repro.sim import (
    Fault,
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
from repro.verify.guard import Guard

BACKENDS = ("interp", "numpy")

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
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 200])
    def test_pack_round_trips_the_interpreted_words(self, n_patterns):
        # One bulk conversion lays every node's int word out in plan row
        # order, masked to the pattern count; rows_to_words inverts it.
        for circuit in _circuits():
            plan = get_plan(circuit)
            stim = _stim(circuit, n_patterns, seed=n_patterns)
            good = LogicSimulator(circuit).run(stim, n_patterns)
            state = PackedState(plan, good, n_patterns)
            assert state.values.shape == (plan.n_rows, (n_patterns + 63) // 64)
            assert not state.values.flags.writeable
            words = npsim.rows_to_words(state.values)
            assert {name: words[r] for name, r in plan.row.items()} == good


class TestFaultSimEquality:
    @pytest.mark.parametrize("n_patterns", [1, 64, 65, 900])
    def test_exact_mode(self, n_patterns):
        for circuit in _circuits():
            stim = _stim(circuit, n_patterns, seed=n_patterns + 1)
            faults = all_stuck_at_faults(circuit)
            ref = FaultSimulator(circuit, kernel="interp").run(
                stim, n_patterns, faults=faults
            )
            got = FaultSimulator(circuit, kernel="numpy").run(
                stim, n_patterns, faults=faults
            )
            assert got.detection_word == ref.detection_word
            assert got.first_detect == ref.first_detect

    @pytest.mark.parametrize("block", [32, 64, 128])
    def test_coverage_mode_with_fault_dropping(self, block):
        n_patterns = 700
        for circuit in _circuits():
            stim = _stim(circuit, n_patterns, seed=block)
            faults = all_stuck_at_faults(circuit)
            ref = FaultSimulator(circuit, kernel="interp").run_coverage(
                stim, n_patterns, faults=faults, block=block
            )
            got = FaultSimulator(circuit, kernel="numpy").run_coverage(
                stim, n_patterns, faults=faults, block=block
            )
            assert got.first_detect == ref.first_detect

    def test_per_output_responses(self):
        circuit = generators.random_dag(5, 40, seed=11)
        n_patterns = 130
        stim = _stim(circuit, n_patterns, seed=2)
        sims = {
            k: FaultSimulator(circuit, kernel=k) for k in BACKENDS
        }
        good = LogicSimulator(circuit).run(stim, n_patterns)
        for fault in all_stuck_at_faults(circuit):
            ref = sims["interp"].simulate_fault_responses(
                fault, good, n_patterns
            )
            got = sims["numpy"].simulate_fault_responses(
                fault, good, n_patterns
            )
            assert got == ref, fault

    def test_walked_gate_evals_match_interp(self):
        # A single fault walks on the interpreter on every kernel, so
        # the numpy simulator counts exactly the gates the event-driven
        # walk evaluates.
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 128, seed=7)
        good = LogicSimulator(circuit).run(stim, 128)
        nump = FaultSimulator(circuit, kernel="numpy")
        interp = FaultSimulator(circuit, kernel="interp")
        for fault in all_stuck_at_faults(circuit):
            assert nump.simulate_fault(
                fault, good, 128
            ) == interp.simulate_fault(fault, good, 128), fault
            assert nump.gate_evals == interp.gate_evals, fault

    def test_batched_run_counts_full_sweep_evals(self, monkeypatch):
        # run() on a wide fault list factors it by fanout-free region and
        # batches one flip machine per live root: gate_evals counts one
        # injection per branch fault plus the sweep's gate rows × root
        # machines, and the simulator counts those machines.
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 128, seed=7)
        faults = all_stuck_at_faults(circuit)
        sweeps = []
        real = npsim.propagate_batch

        def spy(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, roots, chunk_bytes)
            sweeps.append((len(roots), evals))
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", spy)
        batched = FaultSimulator(circuit, kernel="numpy")
        batched.run(stim, 128, faults=faults)
        ((machines, evals),) = sweeps
        assert machines == batched.machines
        assert 0 < machines < len(faults)
        branches = sum(1 for f in faults if f.branch is not None)
        assert batched.gate_evals == branches + evals
        assert evals <= machines * get_plan(circuit).n_rows

    def test_accepts_plain_dict_good_values(self):
        # Parallel workers hand run() the parent's int words; a batched
        # block packs them into its matrix and answers as the walk does.
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 96, seed=5)
        good = LogicSimulator(circuit).run(stim, 96)
        faults = all_stuck_at_faults(circuit)
        got = FaultSimulator(circuit, kernel="numpy").run(
            {}, 96, faults=faults, good_values=good
        )
        sim_it = FaultSimulator(circuit, kernel="interp")
        for fault in faults:
            assert got.detection_word[fault] == sim_it.simulate_fault(
                fault, good, 96
            ), fault


class TestBatchedFaultSim:
    """The flip-machine sweep: every column matches the walk."""

    def _flips(self, circuit, good, n_patterns):
        # Flipping a node at every pattern is stuck-at-0 where it is 1
        # and stuck-at-1 where it is 0: the two stem walks, ORed.
        interp = FaultSimulator(circuit, kernel="interp")
        return [
            interp.simulate_fault(Fault(name, 0), good, n_patterns)
            | interp.simulate_fault(Fault(name, 1), good, n_patterns)
            for name in get_plan(circuit)._row_names
        ]

    @pytest.mark.parametrize("n_patterns", [64, 100, 200])
    def test_matches_per_cone_walks(self, n_patterns):
        circuit = generators.random_dag(5, 40, seed=11)
        plan = get_plan(circuit)
        stim = _stim(circuit, n_patterns, seed=3)
        good = LogicSimulator(circuit).run(stim, n_patterns)
        state = PackedState(plan, good, n_patterns)
        detect, evals = npsim.propagate_batch(state, range(plan.n_rows))
        assert evals > 0
        assert npsim.rows_to_words(detect) == self._flips(
            circuit, good, n_patterns
        )

    def test_chunking_is_result_invariant(self):
        circuit = generators.random_dag(5, 40, seed=11)
        plan = get_plan(circuit)
        n_patterns = 130
        stim = _stim(circuit, n_patterns, seed=5)
        state = PackedState(
            plan, LogicSimulator(circuit).run(stim, n_patterns), n_patterns
        )
        roots = range(plan.n_rows)
        full, evals_full = npsim.propagate_batch(state, roots)
        # ~4 machines per chunk forces many row-sorted chunks.
        tiny_budget = 8 * plan.n_rows * state.values.shape[1] * 4
        tiny, evals_tiny = npsim.propagate_batch(
            state, roots, chunk_bytes=tiny_budget
        )
        assert np.array_equal(full, tiny)
        # Row-sorted chunks block-copy their unchanged prefix rows, so
        # splitting can only shed evaluations, never add them.
        assert 0 < evals_tiny <= evals_full

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 50),
        machines=st.sampled_from([1, 2, 3, 5]),
        n_patterns=st.sampled_from([130, 192, 323]),
    )
    def test_chunk_seams_bit_identical(self, seed, machines, n_patterns):
        # Any chunk width (including one machine per chunk) yields the
        # single-chunk detection matrix exactly, on roots in any order.
        circuit = generators.random_dag(5, 40, seed=seed)
        plan = get_plan(circuit)
        stim = _stim(circuit, n_patterns, seed=seed + 1)
        state = PackedState(
            plan, LogicSimulator(circuit).run(stim, n_patterns), n_patterns
        )
        roots = list(range(plan.n_rows))
        random.Random(seed).shuffle(roots)
        footprint = 8 * (plan.n_rows + npsim.batch_staging_rows(plan)) * (
            state.values.shape[1]
        )
        full, _ = npsim.propagate_batch(state, roots)
        chunked, _ = npsim.propagate_batch(
            state, roots, chunk_bytes=footprint * machines
        )
        assert np.array_equal(full, chunked)

    def test_forced_run_matches_interp_end_to_end(self):
        # Forced onto the batch, a short fault list at a width over the
        # cap must still reproduce the interpreted run and coverage
        # results exactly, first-detects included.
        circuit = generators.random_dag(5, 40, seed=13)
        n_patterns = 1500
        stim = _stim(circuit, n_patterns, seed=4)
        faults = all_stuck_at_faults(circuit)[:9]
        ref = FaultSimulator(circuit, kernel="interp")
        exact = ref.run(stim, n_patterns, faults=faults)
        ref_cov = ref.run_coverage(stim, n_patterns, faults=faults, block=64)
        with npsim.forced(), obs.recording(obs.RunRecorder(None)) as recorder:
            sim = FaultSimulator(circuit, kernel="numpy")
            res = sim.run(stim, n_patterns, faults=faults)
            cov = sim.run_coverage(stim, n_patterns, faults=faults, block=64)
        counters = recorder.metrics.snapshot()["counters"]
        assert set(counters) & _DISPATCH == {"dispatch.fault_sim.batch"}
        assert res.detection_word == exact.detection_word
        assert res.first_detect == exact.first_detect
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
            plan, n_patterns, chunk_bytes=budget
        )
        assert capacity(footprint * K) == K
        assert capacity(footprint * K - 1) == K - 1
        assert 8 * plan.n_rows * words * K <= footprint * K - 1

    def test_strategy_picked_only_for_many_root_machines(self, monkeypatch):
        # The rule counts root machines, not faults: c17's whole list
        # reaches 3 non-output roots and walks them; a DAG whose list
        # reaches 28 batches them in one sweep.
        calls = []
        real = npsim.propagate_batch

        def spy(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            calls.append(len(roots))
            return real(state, roots, chunk_bytes)

        monkeypatch.setattr(npsim, "propagate_batch", spy)
        c17 = generators.c17()
        sim = FaultSimulator(c17, kernel="numpy")
        sim.run(_stim(c17, 64), 64, faults=all_stuck_at_faults(c17))
        assert calls == [] and sim.machines == 3
        dag = generators.random_dag(5, 40, seed=11)
        sim = FaultSimulator(dag, kernel="numpy")
        sim.run(_stim(dag, 64), 64, faults=all_stuck_at_faults(dag))
        assert calls == [sim.machines]
        assert sim.machines >= npsim.BATCH_MIN_FAULTS

    def test_batch_declined_outside_its_regime(self):
        plan = get_plan(generators.c17())
        declined = npsim.fault_batch_declined
        floor, cap = npsim.BATCH_MIN_FAULTS, npsim.BATCH_MAX_WORDS
        assert (floor, cap) == (16, 64)
        assert declined(plan, 1000, 64) is None
        assert declined(plan, 16, 64) is None
        assert declined(plan, 15, 64) == "few_faults"
        assert declined(plan, 1000, 4096) is None
        assert declined(plan, 1000, 4097) == "too_wide"
        assert declined(plan, 1000, 65536) == "too_wide"
        assert declined(None, 1000, 64) == "interp"

    @pytest.mark.parametrize("words", [1, 64])
    def test_budget_admits_one_machine_at_most(self, words):
        # The batch takes a block while one root machine (its value
        # rows plus staging rows at the block's width) fits
        # BATCH_CHUNK_BYTES: at 64 words that is 12288 rows.
        from types import SimpleNamespace

        outputs = ["y"] * 5
        limit = npsim.BATCH_CHUNK_BYTES // (8 * words)
        rows = limit - npsim.batch_staging_rows(SimpleNamespace(outputs=outputs))
        fits = SimpleNamespace(n_rows=rows, outputs=outputs)
        over = SimpleNamespace(n_rows=rows + 1, outputs=outputs)
        assert npsim.batch_capacity(fits, 64 * words) == 1
        assert npsim.fault_batch_declined(fits, 1000, 64 * words) is None
        assert (
            npsim.fault_batch_declined(over, 1000, 64 * words)
            == "over_budget"
        )
        if words == 64:
            assert limit == 12288

    def test_forced_overrides_every_decline(self, monkeypatch):
        plan = get_plan(generators.c17())
        monkeypatch.setattr(npsim, "BATCH_CHUNK_BYTES", 8)
        declined = npsim.fault_batch_declined
        assert declined(plan, 1000, 64) == "over_budget"
        with npsim.forced():
            assert declined(plan, 15, 64) is None
            assert declined(plan, 1000, 4097) is None
            assert declined(plan, 1000, 64) is None
            assert declined(None, 1000, 64) == "interp"
            with npsim.forced():  # nesting restores the outer state
                pass
            assert declined(plan, 15, 64) is None
        assert declined(plan, 15, 64) == "few_faults"


#: The routing counters ``FaultSimulator`` emits, one per simulated block.
_DISPATCH = {
    "dispatch.fault_sim.batch",
    "dispatch.fault_sim.walk.interp",
    "dispatch.fault_sim.walk.few_faults",
    "dispatch.fault_sim.walk.too_wide",
    "dispatch.fault_sim.walk.over_budget",
}


class TestDispatchCounters:
    """Every simulated block is counted under the path that ran it."""

    def _counters(self, run):
        with obs.recording(obs.RunRecorder(None)) as recorder:
            run()
        counters = recorder.metrics.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k in _DISPATCH}

    def test_each_walk_reason_is_counted(self, monkeypatch):
        circuit = generators.random_dag(5, 40, seed=11)
        faults = all_stuck_at_faults(circuit)
        stim = _stim(circuit, 4160, seed=1)

        def run(kernel, n_patterns, fault_list):
            FaultSimulator(circuit, kernel=kernel).run(
                stim, n_patterns, faults=fault_list
            )

        assert self._counters(lambda: run("interp", 64, faults)) == {
            "dispatch.fault_sim.walk.interp": 1
        }
        assert self._counters(lambda: run("numpy", 64, faults[:15])) == {
            "dispatch.fault_sim.walk.few_faults": 1
        }
        assert self._counters(lambda: run("numpy", 4160, faults)) == {
            "dispatch.fault_sim.walk.too_wide": 1
        }
        assert self._counters(lambda: run("numpy", 4096, faults)) == {
            "dispatch.fault_sim.batch": 1
        }
        monkeypatch.setattr(npsim, "BATCH_CHUNK_BYTES", 8)
        assert self._counters(lambda: run("numpy", 64, faults)) == {
            "dispatch.fault_sim.walk.over_budget": 1
        }

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_one_count_per_dropping_block(self, kernel):
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 4096, seed=2)
        sim = FaultSimulator(circuit, kernel=kernel)
        results = []
        counts = self._counters(
            lambda: results.append(sim.run_coverage(stim, 4096, block=64))
        )
        # Blocks of 64, 128, ..., 2048 and a 64-pattern tail; the run
        # stops after the block where its last fault drops.
        ends = [64, 192, 448, 960, 1984, 4032, 4096]
        (result,) = results
        if result.undetected_faults():
            drawn = len(ends)
        else:
            last = max(result.first_detect.values())
            drawn = next(i for i, end in enumerate(ends) if last < end) + 1
        assert sum(counts.values()) == drawn

    def test_trace_file_carries_the_counters(self, tmp_path):
        import json

        wide = generators.random_dag(5, 40, seed=11)
        narrow = generators.c17()
        trace = tmp_path / "run.jsonl"
        with obs.recording(obs.RunRecorder(trace)):
            FaultSimulator(wide, kernel="numpy").run(_stim(wide, 64), 64)
            FaultSimulator(narrow, kernel="numpy").run(_stim(narrow, 64), 64)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        counters = next(
            r["metrics"]["counters"]
            for r in reversed(records)
            if r.get("event") == "metrics"
        )
        assert counters["dispatch.fault_sim.batch"] == 1
        assert counters["dispatch.fault_sim.walk.few_faults"] == 1

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_trace_carries_the_machine_count(self, tmp_path, kernel):
        # fault_sim.machines sits beside fault_sim.faults, and each run's
        # span says how many machines it simulated: one per live region
        # root on numpy, one per fault on the interpreter.
        import json

        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 256, seed=3)
        trace = tmp_path / "run.jsonl"
        sim = FaultSimulator(circuit, kernel=kernel)
        with obs.recording(obs.RunRecorder(trace)):
            exact = sim.run(stim, 256)
            sim.run_coverage(stim, 256, block=64)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {
            r["name"]: r["attrs"]["machines"]
            for r in records
            if r.get("event") == "span"
            and r["name"] in ("fault_sim.run", "fault_sim.run_coverage")
        }
        counters = next(
            r["metrics"]["counters"]
            for r in reversed(records)
            if r.get("event") == "metrics"
        )
        n_faults = len(exact.detection_word)
        assert counters["fault_sim.faults"] == 2 * n_faults
        assert counters["fault_sim.machines"] == sum(spans.values())
        assert counters["fault_sim.machines"] == sim.machines
        if kernel == "interp":
            assert spans["fault_sim.run"] == n_faults
        else:
            assert 0 < spans["fault_sim.run"] < n_faults


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
        got = evaluate_placement(problem, points, kernel="numpy")
        assert _placement_payload(got) == _placement_payload(ref)

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
        # A short fault list walks its root machines unless forced onto
        # the batch; forced, a planted batch bug must raise a
        # ``fault_sim.cone`` divergence whose bundle replays while
        # planted and goes stale once lifted.
        from repro.verify import replay_bundle

        circuit = generators.c17()
        stim = _stim(circuit, 64)
        real = npsim.propagate_batch

        def corrupt(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, roots, chunk_bytes)
            detect[:, 0] ^= np.uint64(1)  # flip pattern 0's verdict
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", corrupt)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        faults = all_stuck_at_faults(circuit)[:4]
        with npsim.forced(), pytest.raises(DivergenceError) as info:
            sim.run(stim, 64, faults=faults)
        assert info.value.kind == "fault_sim.cone"
        assert guard.divergences == 1
        bundle = info.value.bundle_path
        assert bundle is not None
        assert replay_bundle(bundle).reproduced
        monkeypatch.setattr(npsim, "propagate_batch", real)
        assert not replay_bundle(bundle).reproduced

    def test_planted_batch_divergence_raises(self, tmp_path, monkeypatch):
        circuit = generators.random_dag(5, 40, seed=11)
        stim = _stim(circuit, 64)
        real = npsim.propagate_batch

        def corrupt(state, roots, chunk_bytes=npsim.BATCH_CHUNK_BYTES):
            detect, evals = real(state, roots, chunk_bytes)
            detect[:, 0] ^= np.uint64(1)
            return detect, evals

        monkeypatch.setattr(npsim, "propagate_batch", corrupt)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        # This DAG's full collapsed list reaches enough region roots for
        # the batched pass.
        with pytest.raises(DivergenceError) as info:
            sim.run(stim, 64)
        assert info.value.kind == "fault_sim.cone"
        assert guard.divergences == 1

    def test_planted_fold_divergence_raises_on_walked_blocks(
        self, tmp_path, monkeypatch
    ):
        # The in-region fold runs on every numpy block, walked ones
        # included, so the Guard checks those too: a fold that forgets
        # the side inputs is caught on c17, whose roots walk.
        from repro.verify import replay_bundle

        circuit = generators.c17()
        stim = _stim(circuit, 64)
        real = FaultSimulator._sensitization
        monkeypatch.setattr(
            FaultSimulator, "_sensitization",
            lambda self, line, good, mask, memo: mask,
        )
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        sim = FaultSimulator(circuit, kernel="numpy", guard=guard)
        with obs.recording(obs.RunRecorder(None)) as recorder:
            with pytest.raises(DivergenceError) as info:
                sim.run(stim, 64)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["dispatch.fault_sim.walk.few_faults"] == 1
        assert info.value.kind == "fault_sim.cone"
        bundle = info.value.bundle_path
        assert replay_bundle(bundle).reproduced
        monkeypatch.setattr(FaultSimulator, "_sensitization", real)
        assert not replay_bundle(bundle).reproduced


class TestBackendProperties:
    """Hypothesis sweep: numpy agrees with the interpreter on every measure."""

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
        got = FaultSimulator(circuit, kernel="numpy").run_coverage(
            stim, n_patterns, faults=faults, block=64
        )
        assert got.first_detect == ref.first_detect
        assert got.n_detected() == ref.n_detected()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        n_patterns=st.sampled_from([960, 4096, 4160, 8192]),
        block=st.sampled_from([64, 4096]),
    )
    def test_run_and_coverage_across_the_width_cap(
        self, seed, n_patterns, block
    ):
        # Widths on both sides of BATCH_MAX_WORDS (64 words = 4096
        # patterns): exact runs and dropping blocks switch between the
        # batch and the walk, and every result must match the arbiter.
        circuit = generators.random_dag(6, 60, seed=seed)
        stim = _stim(circuit, n_patterns, seed=seed)
        faults = all_stuck_at_faults(circuit)
        ref = FaultSimulator(circuit, kernel="interp")
        got = FaultSimulator(circuit, kernel="numpy")
        exact = got.run(stim, n_patterns, faults=faults)
        ref_exact = ref.run(stim, n_patterns, faults=faults)
        assert exact.detection_word == ref_exact.detection_word
        assert exact.first_detect == ref_exact.first_detect
        cov = got.run_coverage(stim, n_patterns, faults=faults, block=block)
        ref_cov = ref.run_coverage(
            stim, n_patterns, faults=faults, block=block
        )
        assert cov.detection_word == ref_cov.detection_word
        assert cov.first_detect == ref_cov.first_detect

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_placement(self, seed):
        circuit = generators.random_dag(4, 25, seed=seed)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        points = _random_points(circuit, seed ^ 0xBEEF)
        ref_ev = evaluate_placement(problem, points, kernel="interp")
        got_ev = evaluate_placement(problem, points, kernel="numpy")
        assert _placement_payload(got_ev) == _placement_payload(ref_ev)


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
