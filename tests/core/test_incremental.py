"""Property tests: the incremental evaluator is bit-identical to
``evaluate_placement``, and the solvers built on it return unchanged
solutions.

``evaluate_placement`` stays the single ground-truth arbiter; these tests
pin the incremental fast path to it with *exact* float equality — any
reformulation of the COP recurrences that changes results in the last ulp
fails here.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, generators
from repro.circuit.generators import random_dag, rpr_mixed
from repro.circuit.library import benchmark
from repro.core import (
    IncrementalEvaluator,
    TestPoint,
    TestPointType,
    TPIProblem,
    evaluate_placement,
    prepare_for_tpi,
    solve_greedy,
)
from repro import obs
from repro.errors import DivergenceError
from repro.sim import all_stuck_at_faults, npsim
from repro.verify import Guard

OP = TestPointType.OBSERVATION
CONTROLS = [
    TestPointType.CONTROL_AND,
    TestPointType.CONTROL_OR,
    TestPointType.CONTROL_RANDOM,
]

_EVAL_FIELDS = (
    "stem_pre",
    "stem_post",
    "wire_obs",
    "branch_pre",
    "branch_post",
    "branch_obs",
    "stem_post_obs",
)


def _random_placement(circuit, rng_draw, max_points=4):
    """Draw a valid placement: at most one control point per stem."""
    names = list(circuit.node_names)
    n_points = rng_draw(st.integers(0, max_points))
    points = []
    controlled = set()
    for _ in range(n_points):
        node = rng_draw(st.sampled_from(names))
        if rng_draw(st.booleans()):
            points.append(TestPoint(node, OP))
        elif node not in controlled:
            controlled.add(node)
            points.append(TestPoint(node, rng_draw(st.sampled_from(CONTROLS))))
    return points


def _assert_identical(incremental_eval, reference_eval):
    for field in _EVAL_FIELDS:
        assert getattr(incremental_eval, field) == getattr(
            reference_eval, field
        ), f"{field} diverged"


class TestEvaluateEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 500))
    def test_random_dag_random_placements(self, data, seed):
        circuit = generators.random_dag(4, 18, seed=seed)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        base = _random_placement(circuit, data.draw)
        target = _random_placement(circuit, data.draw)
        inc = IncrementalEvaluator(problem, base_points=base)
        _assert_identical(
            inc.evaluate(target), evaluate_placement(problem, target)
        )

    def test_same_placement_short_circuit(self):
        circuit = generators.random_dag(4, 15, seed=1)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        pts = [TestPoint(circuit.outputs[0], OP)]
        inc = IncrementalEvaluator(problem, base_points=pts)
        _assert_identical(
            inc.evaluate(pts), evaluate_placement(problem, pts)
        )

    def test_removing_points_from_base(self):
        # The dirty region also covers sites present only in the base.
        circuit = generators.random_tree(30, seed=2)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        names = list(circuit.node_names)
        base = [
            TestPoint(names[1], TestPointType.CONTROL_AND),
            TestPoint(names[3], OP),
        ]
        inc = IncrementalEvaluator(problem, base_points=base)
        _assert_identical(inc.evaluate([]), evaluate_placement(problem, []))

    def test_rebase_moves_the_cache(self):
        circuit = generators.random_dag(4, 20, seed=3)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        inc = IncrementalEvaluator(problem)
        pts = [TestPoint(circuit.outputs[0], OP)]
        inc.rebase(pts)
        _assert_identical(inc.base, evaluate_placement(problem, pts))
        other = [TestPoint(circuit.inputs[0], TestPointType.CONTROL_OR)]
        _assert_identical(
            inc.evaluate(other), evaluate_placement(problem, other)
        )


class TestCandidateGain:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 300))
    def test_gain_equals_recompute(self, data, seed):
        circuit = generators.random_dag(4, 16, seed=seed)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        faults = all_stuck_at_faults(circuit)
        base = _random_placement(circuit, data.draw, max_points=2)
        inc = IncrementalEvaluator(problem, base_points=base, faults=faults)
        node = data.draw(st.sampled_from(list(circuit.node_names)))
        if data.draw(st.booleans()):
            candidate = TestPoint(node, OP)
        else:
            candidate = TestPoint(node, data.draw(st.sampled_from(CONTROLS)))
        controlled = {
            p.node for p in base if p.kind.is_control and p.branch is None
        }
        if candidate.kind.is_control and candidate.node in controlled:
            return  # invalid candidate (double control) — not scored

        theta = problem.threshold - 1e-12

        def n_failing(points):
            ev = evaluate_placement(problem, points)
            return sum(1 for f in faults if ev.fault_detection(f) < theta)

        expected = n_failing(base) - n_failing(base + [candidate])
        assert inc.candidate_gain(candidate) == expected

    def test_commit_extends_base(self):
        circuit = generators.random_tree(25, seed=4)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        inc = IncrementalEvaluator(problem)
        point = TestPoint(circuit.outputs[0], OP)
        inc.commit(point)
        assert point in inc.base_points
        _assert_identical(inc.base, evaluate_placement(problem, [point]))


#: The placement-delta dispatch counters (see ``_dispatch_counts``).
_DISPATCH = "dispatch.incremental."


def _dispatch_counts(run):
    """The ``dispatch.incremental.*`` counters one call of ``run`` emits."""
    with obs.recording(obs.RunRecorder(None)) as recorder:
        run()
    counters = recorder.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith(_DISPATCH)}


@contextmanager
def _gain_batch_bytes(budget):
    """Temporarily resize the batch scorer's chunk budget (None: keep)."""
    prior = npsim.GAIN_BATCH_BYTES
    if budget is not None:
        npsim.GAIN_BATCH_BYTES = budget
    try:
        yield
    finally:
        npsim.GAIN_BATCH_BYTES = prior


def _random_branch_placement(circuit, rng_draw, max_points=4):
    """Like :func:`_random_placement` but also draws branch sites."""
    names = list(circuit.node_names)
    n_points = rng_draw(st.integers(0, max_points))
    points = []
    controlled = set()
    for _ in range(n_points):
        node = rng_draw(st.sampled_from(names))
        branch = None
        fanouts = circuit.fanouts(node)
        if fanouts and rng_draw(st.booleans()):
            branch = rng_draw(st.sampled_from(fanouts))
        site = (node, branch)
        if rng_draw(st.booleans()):
            points.append(TestPoint(node, OP, branch=branch))
        elif site not in controlled:
            controlled.add(site)
            points.append(
                TestPoint(
                    node, rng_draw(st.sampled_from(CONTROLS)), branch=branch
                )
            )
    return points


class TestNumpyDeltaEquivalence:
    """The vectorized delta engine against both interpreted arbiters."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 500))
    def test_numpy_deltas_match_interp_and_recompute(self, data, seed):
        with npsim.forced():
            circuit = generators.random_dag(4, 24, seed=seed)
            problem = TPIProblem(circuit=circuit, threshold=0.05)
            base = _random_branch_placement(circuit, data.draw)
            target = _random_branch_placement(circuit, data.draw)
            inc_np = IncrementalEvaluator(
                problem, base_points=base, kernel="numpy"
            )
            inc_it = IncrementalEvaluator(
                problem, base_points=base, kernel="interp"
            )
            ref = evaluate_placement(problem, target, kernel="interp")
            got = []
            counts = _dispatch_counts(
                lambda: got.append(inc_np.evaluate(target))
            )
            _assert_identical(got[0], ref)
            _assert_identical(inc_it.evaluate(target), ref)
        if any(inc_np._diff_sites(target)):  # the forced engine ran it
            assert counts == {"dispatch.incremental.delta.batch": 1}
        else:
            assert counts == {}

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 200))
    def test_commit_sequences_track_exactly(self, data, seed):
        with npsim.forced():
            circuit = generators.random_dag(4, 20, seed=seed)
            problem = TPIProblem(circuit=circuit, threshold=0.05)
            faults = all_stuck_at_faults(circuit)
            base = _random_branch_placement(circuit, data.draw, max_points=2)
            inc_np = IncrementalEvaluator(
                problem, base_points=base, faults=faults, kernel="numpy"
            )
            inc_it = IncrementalEvaluator(
                problem, base_points=base, faults=faults, kernel="interp"
            )
            for cand in _random_branch_placement(
                circuit, data.draw, max_points=3
            ):
                try:
                    gain_np = inc_np.candidate_gain(cand)
                    gain_it = inc_it.candidate_gain(cand)
                except ValueError:
                    continue  # invalid site combination — not scored
                assert gain_np == gain_it, cand
                inc_np.commit(cand)
                inc_it.commit(cand)
                ref = evaluate_placement(
                    problem, inc_np.base_points, kernel="interp"
                )
                _assert_identical(inc_np.base, ref)

    def test_narrow_plans_decline_the_engine_by_default(self):
        # A deep chain has mean level width ~1 — far below the cutoff.
        circuit = generators.random_tree(40, seed=1)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        target = [TestPoint(circuit.outputs[0], OP)]
        numpy = IncrementalEvaluator(problem, kernel="numpy")
        interp = IncrementalEvaluator(problem, kernel="interp")
        assert _dispatch_counts(lambda: numpy.evaluate(target)) == {
            "dispatch.incremental.delta.walk.narrow": 1
        }
        assert _dispatch_counts(lambda: interp.evaluate(target)) == {
            "dispatch.incremental.delta.walk.interp": 1
        }
        # no diff, no delta: nothing to count
        assert _dispatch_counts(lambda: numpy.evaluate([])) == {}
        with npsim.forced():
            assert _dispatch_counts(lambda: numpy.evaluate(target)) == {
                "dispatch.incremental.delta.batch": 1
            }
            assert _dispatch_counts(lambda: interp.evaluate(target)) == {
                "dispatch.incremental.delta.walk.interp": 1
            }

    def test_forcing_reaches_an_evaluator_built_outside_it(self):
        # Both entry points pick their path per call, so forced() takes
        # effect on an evaluator that already exists.
        circuit = generators.random_dag(8, 40, seed=3)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        names = list(circuit.node_names)
        target = [
            TestPoint(names[5], TestPointType.CONTROL_AND),
            TestPoint(names[20], OP),
        ]
        candidates = [TestPoint(n, OP) for n in names]
        inc = IncrementalEvaluator(problem, kernel="numpy")
        arbiter = IncrementalEvaluator(problem, kernel="interp")
        calls = []
        real = npsim.PlacementBatch.delta

        def spy(self, *args):
            calls.append(1)
            return real(self, *args)

        got = []
        with npsim.forced(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(npsim.PlacementBatch, "delta", spy)
            counts = _dispatch_counts(lambda: (
                got.append(inc.evaluate(target)),
                got.append(inc.candidate_gains(candidates)),
            ))
        assert counts == {
            "dispatch.incremental.delta.batch": 1,
            "dispatch.incremental.gains.batch": 1,
        }
        assert len(calls) == 1
        _assert_identical(got[0], evaluate_placement(problem, target))
        assert got[1] == arbiter.candidate_gains(candidates)

    @pytest.mark.parametrize(
        "change", [TestPointType.CONTROL_OR, OP, None], ids=["or", "op", "lift"]
    )
    @pytest.mark.parametrize("branch", [False, True])
    def test_changed_or_lifted_base_controls(self, change, branch):
        # A control point the base has is changed, swapped for an
        # observation point or lifted, next to an added one; the forced
        # delta must rebuild that level's control fixes, not stack them.
        circuit = generators.random_dag(6, 40, seed=9)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        multi = [n for n in circuit.node_names if len(circuit.fanouts(n)) > 1]
        site = circuit.fanouts(multi[0])[0] if branch else None
        other = TestPoint(multi[1], TestPointType.CONTROL_RANDOM)
        base = [TestPoint(multi[0], TestPointType.CONTROL_AND, branch=site)]
        target = [other]
        if change is not None:
            target.append(TestPoint(multi[0], change, branch=site))
        with npsim.forced():
            inc = IncrementalEvaluator(problem, base_points=base, kernel="numpy")
            _assert_identical(
                inc.evaluate(target),
                evaluate_placement(problem, target, kernel="interp"),
            )
            _assert_identical(
                inc.evaluate(base + [other]),
                evaluate_placement(problem, base + [other], kernel="interp"),
            )

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 300))
    def test_deltas_and_gains_share_one_batch(self, data, seed):
        # evaluate() sweeps one column of the work matrices that
        # candidate_gains widens; each call leaves every column at base.
        circuit = generators.random_dag(4, 24, seed=seed)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        base = _random_branch_placement(circuit, data.draw, max_points=2)
        candidates = _gain_candidates(circuit, data.draw, base)
        arbiter = IncrementalEvaluator(problem, base_points=base, kernel="interp")
        with npsim.forced(), _gain_batch_bytes(4096):
            inc = IncrementalEvaluator(problem, base_points=base, kernel="numpy")
            for _ in range(2):
                target = _random_branch_placement(circuit, data.draw)
                _assert_identical(
                    inc.evaluate(target),
                    evaluate_placement(problem, target, kernel="interp"),
                )
                assert inc.candidate_gains(candidates) == (
                    arbiter.candidate_gains(candidates)
                )


def _gain_candidates(circuit, rng_draw, base):
    """Candidates of every flavour against ``base``.

    Stem and branch observation and control points at random sites, a
    control point on each of two primary inputs, and an observation point
    on every wire the base already observes (gain 0).  Second control
    points on a wire are left out (they raise).
    """
    names = list(circuit.node_names)
    controlled = {(p.node, p.branch) for p in base if p.kind.is_control}
    candidates = [
        TestPoint(p.node, OP, branch=p.branch) for p in base if p.kind is OP
    ]
    for name in circuit.inputs[:2]:
        if (name, None) not in controlled:
            candidates.append(
                TestPoint(name, rng_draw(st.sampled_from(CONTROLS)))
            )
    for _ in range(rng_draw(st.integers(1, 14))):
        node = rng_draw(st.sampled_from(names))
        fanouts = circuit.fanouts(node)
        branch = None
        if fanouts and rng_draw(st.booleans()):
            branch = rng_draw(st.sampled_from(fanouts))
        kind = rng_draw(st.sampled_from([OP] + CONTROLS))
        if kind.is_control and (node, branch) in controlled:
            continue
        candidates.append(TestPoint(node, kind, branch=branch))
    return candidates


class TestCandidateGains:
    """One batched call per greedy round equals per-candidate scoring."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 500),
        # 1 byte: one column per chunk; 4 KiB: two or three columns;
        # None: the default budget (every candidate in one chunk)
        budget=st.sampled_from([1, 4096, None]),
    )
    def test_batched_gains_equal_candidate_gain(self, data, seed, budget):
        circuit = generators.random_dag(4, 24, seed=seed)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        faults = all_stuck_at_faults(circuit)
        base = _random_branch_placement(circuit, data.draw, max_points=3)
        candidates = _gain_candidates(circuit, data.draw, base)
        arbiter = IncrementalEvaluator(
            problem, base_points=base, faults=faults, kernel="interp"
        )
        expected = [arbiter.candidate_gain(c) for c in candidates]
        assert arbiter.candidate_gains(candidates) == expected
        with npsim.forced(), _gain_batch_bytes(budget):
            inc = IncrementalEvaluator(
                problem, base_points=base, faults=faults, kernel="numpy"
            )
            got = []
            counts = _dispatch_counts(
                lambda: got.append(inc.candidate_gains(candidates))
            )
            assert got == [expected]
            if any(inc._candidate_diff(c) for c in candidates):
                # the batch scored them
                assert counts == {"dispatch.incremental.gains.batch": 1}
            assert [inc.candidate_gain(c) for c in candidates] == expected
        for cand, gain in zip(candidates, expected):
            if cand.kind is OP and cand in base:
                assert gain == 0

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 200))
    def test_batch_tracks_rebases(self, data, seed):
        circuit = generators.random_dag(4, 20, seed=seed)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        candidates = _gain_candidates(circuit, data.draw, [])
        with npsim.forced(), _gain_batch_bytes(4096):
            inc = IncrementalEvaluator(problem, kernel="numpy")
            arbiter = IncrementalEvaluator(problem, kernel="interp")
            for _ in range(3):
                controlled = {
                    (p.node, p.branch)
                    for p in inc.base_points
                    if p.kind.is_control
                }
                candidates = [
                    c for c in candidates
                    if not (c.kind.is_control and (c.node, c.branch) in controlled)
                ]
                if not candidates:
                    break
                gains = inc.candidate_gains(candidates)
                assert gains == arbiter.candidate_gains(candidates)
                best = candidates[gains.index(max(gains))]
                inc.commit(best)
                arbiter.commit(best)

    @pytest.mark.parametrize("kernel", ["numpy", "interp"])
    @pytest.mark.parametrize("branch", [False, True])
    def test_second_control_point_on_a_wire_raises(self, kernel, branch):
        circuit = generators.random_dag(4, 20, seed=7)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        node = next(n for n in circuit.node_names if len(circuit.fanouts(n)) > 1)
        site = circuit.fanouts(node)[0] if branch else None
        base = [TestPoint(node, TestPointType.CONTROL_AND, branch=site)]
        valid = TestPoint(circuit.outputs[0], OP)
        second = TestPoint(node, TestPointType.CONTROL_OR, branch=site)
        with npsim.forced():
            inc = IncrementalEvaluator(problem, base_points=base, kernel=kernel)
            with pytest.raises(ValueError, match="multiple control points"):
                inc.candidate_gain(second)
            with pytest.raises(ValueError, match="multiple control points"):
                inc.candidate_gains([valid, second])
        assert inc.stats["deltas"] == 0  # validated before any scoring

    @pytest.mark.parametrize("batched", [False, True])
    def test_tick_runs_per_walked_candidate_and_per_chunk(self, batched):
        circuit = generators.random_dag(4, 24, seed=11)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        candidates = [TestPoint(n, OP) for n in circuit.node_names]
        ticks = []
        with npsim.forced(), _gain_batch_bytes(4096):
            inc = IncrementalEvaluator(
                problem, kernel="numpy" if batched else "interp"
            )
            inc.candidate_gains(candidates, tick=lambda: ticks.append(1))
            if batched:
                columns = npsim.gain_batch_columns(npsim.get_plan(circuit))
                assert len(ticks) == -(-len(candidates) // columns) > 1
            else:
                assert len(ticks) == len(candidates)

    def test_guard_flips_one_coin_per_batched_candidate(self, tmp_path):
        circuit = generators.random_dag(4, 24, seed=11)
        problem = TPIProblem(circuit=circuit, threshold=0.05)
        base = [TestPoint(circuit.outputs[0], OP)]
        candidates = [TestPoint(n, OP) for n in circuit.node_names]
        live = [c for c in candidates if c not in base]
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        with npsim.forced():
            inc = IncrementalEvaluator(
                problem, base_points=base, kernel="numpy", guard=guard
            )
            gains = inc.candidate_gains(candidates)
        assert guard.checks == len(live)
        assert guard.divergences == 0
        assert gains == [inc._walk_gain(c) for c in candidates]

    def test_planted_float_bug_bundles_a_replayable_divergence(
        self, tmp_path, engine_bug
    ):
        from repro.cli import main

        circuit = generators.random_dag(8, 40, seed=3)
        problem = TPIProblem.from_test_length(circuit, n_patterns=64)
        candidates = [TestPoint(n, OP) for n in circuit.node_names]
        lift = engine_bug(GateType.AND, GateType.OR, folds="floats")
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        with npsim.forced():
            inc = IncrementalEvaluator(problem, kernel="numpy", guard=guard)
            with pytest.raises(DivergenceError) as info:
                inc.candidate_gains(candidates)
        assert info.value.kind == "incremental.gains"
        bundle = info.value.bundle_path
        assert bundle is not None
        assert main(["replay", bundle]) == 0  # reproduces while planted
        lift()
        assert main(["replay", bundle]) == 1  # a healthy engine agrees


class TestSolverEquivalence:
    def test_greedy_identical_with_and_without_incremental(self):
        circuit = prepare_for_tpi(benchmark("rprmix"))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=4096, escape_budget=0.001
        )
        fast = solve_greedy(problem, use_incremental=True)
        slow = solve_greedy(problem, use_incremental=False)
        assert fast.points == slow.points
        assert fast.cost == slow.cost
        assert fast.feasible == slow.feasible

    def test_greedy_identical_across_kernels(self):
        # Wide levels put the numpy solve on the vectorized delta engine
        # (no forcing) — the chosen points must not move.
        circuit = generators.random_dag(32, 1000, seed=5, fanin_span=250)
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=1024, escape_budget=0.01
        )
        interp = solve_greedy(problem, kernel="interp", max_iterations=4)
        solved = []
        counts = _dispatch_counts(lambda: solved.append(
            solve_greedy(problem, kernel="numpy", max_iterations=4)
        ))
        (vec,) = solved
        assert counts == {
            "dispatch.incremental.gains.batch": vec.stats["iterations"]
        }
        assert vec.points == interp.points
        assert vec.cost == interp.cost
        assert vec.feasible == interp.feasible

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_greedy_identical_on_random_trees(self, seed):
        circuit = generators.random_tree(40, seed=seed)
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=1024, escape_budget=0.01
        )
        fast = solve_greedy(problem, use_incremental=True)
        slow = solve_greedy(problem, use_incremental=False)
        assert fast.points == slow.points
        assert fast.cost == slow.cost
        assert fast.feasible == slow.feasible

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_dag(15, 150, seed=3),
            lambda: random_dag(25, 250, seed=4),
            lambda: rpr_mixed(12, 8, 3, seed=5, name="rprmix12"),
        ],
        ids=["rdag150", "rdag250", "rprmix12"],
    )
    def test_greedy_numpy_matches_interp_on_pipeline_shapes(self, make):
        # The dag_greedy pipeline population: planned at 2^16 patterns,
        # where the numpy solve scores every round on the batch.
        circuit = prepare_for_tpi(make())
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=1 << 16, escape_budget=0.001
        )
        solved = []
        counts = _dispatch_counts(
            lambda: solved.append(solve_greedy(problem, kernel="numpy"))
        )
        (vec,) = solved
        assert set(counts) == {"dispatch.incremental.gains.batch"}
        interp = solve_greedy(problem, kernel="interp")
        assert vec.points == interp.points
        assert vec.cost == interp.cost
        assert vec.feasible == interp.feasible
        assert vec.stats["evaluations"] == interp.stats["evaluations"]
        assert vec.stats["incremental_deltas"] == interp.stats["incremental_deltas"]
