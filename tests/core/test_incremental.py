"""Property tests: the incremental evaluator is bit-identical to
``evaluate_placement``, and the solvers built on it return unchanged
solutions.

``evaluate_placement`` stays the single ground-truth arbiter; these tests
pin the incremental fast path to it with *exact* float equality — any
reformulation of the COP recurrences that changes results in the last ulp
fails here.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generators
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
from repro.sim import all_stuck_at_faults

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


@contextmanager
def _forced_numpy_delta():
    """Pin the vectorized delta engine on regardless of circuit shape.

    The adaptive dispatch declines tiny/narrow circuits for performance;
    equivalence must hold on them regardless, so these tests force the
    engine via its environment override.
    """
    prior = os.environ.get("REPRO_NP_DELTA_MIN_WIDTH")
    os.environ["REPRO_NP_DELTA_MIN_WIDTH"] = "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_NP_DELTA_MIN_WIDTH"]
        else:
            os.environ["REPRO_NP_DELTA_MIN_WIDTH"] = prior


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
        with _forced_numpy_delta():
            circuit = generators.random_dag(4, 24, seed=seed)
            problem = TPIProblem(circuit=circuit, threshold=0.05)
            base = _random_branch_placement(circuit, data.draw)
            target = _random_branch_placement(circuit, data.draw)
            inc_np = IncrementalEvaluator(
                problem, base_points=base, kernel="numpy"
            )
            assert inc_np._np_delta is not None  # the forced engine is live
            inc_it = IncrementalEvaluator(
                problem, base_points=base, kernel="interp"
            )
            ref = evaluate_placement(problem, target, kernel="interp")
            _assert_identical(inc_np.evaluate(target), ref)
            _assert_identical(inc_it.evaluate(target), ref)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 200))
    def test_commit_sequences_track_exactly(self, data, seed):
        with _forced_numpy_delta():
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
        assert IncrementalEvaluator(problem, kernel="numpy")._np_delta is None
        with _forced_numpy_delta():
            inc = IncrementalEvaluator(problem, kernel="numpy")
            assert inc._np_delta is not None


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
        # (no env override) — the chosen points must not move.
        from repro.sim import npsim

        circuit = generators.random_dag(32, 1000, seed=5, fanin_span=250)
        assert npsim.delta_profitable(npsim.get_plan(circuit))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=1024, escape_budget=0.01
        )
        interp = solve_greedy(problem, kernel="interp", max_iterations=4)
        vec = solve_greedy(problem, kernel="numpy", max_iterations=4)
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
