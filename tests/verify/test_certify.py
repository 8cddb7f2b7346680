"""Solver result certification: planted lies must be rejected."""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuit.generators import random_dag, random_tree
from repro.core.dp import solve_tree
from repro.core.greedy import solve_greedy
from repro.core.problem import TestPoint, TestPointType, TPIProblem, TPISolution
from repro.errors import DivergenceError
from repro.verify import Guard, GuardedSession, certify_solution, replay_bundle


def _tree_problem(gates=8, seed=2, n_patterns=64):
    return TPIProblem.from_test_length(
        random_tree(gates, seed=seed), n_patterns=n_patterns,
        escape_budget=0.05,
    )


class TestCleanSolutionsPass:
    def test_dp_solution_certifies(self, tmp_path):
        problem = _tree_problem()
        with GuardedSession(fraction=0.0, bundle_dir=tmp_path):
            solution = solve_tree(problem)  # certifies internally
        assert certify_solution(problem, solution) is solution

    def test_greedy_solution_certifies(self):
        circuit = random_dag(n_inputs=4, n_gates=15, seed=9)
        problem = TPIProblem.from_test_length(circuit, n_patterns=256)
        solution = solve_greedy(problem)
        assert certify_solution(problem, solution) is solution


class TestPlantedSolverBugs:
    def test_off_by_one_cost_caught(self, tmp_path):
        """The acceptance-criteria planted bug: claimed objective + 0.5."""
        problem = _tree_problem()
        honest = solve_tree(problem)
        lying = dataclasses.replace(honest, cost=honest.cost + 0.5)
        guard = Guard(fraction=1.0, seed=0, bundle_dir=tmp_path)
        with pytest.raises(DivergenceError) as info:
            certify_solution(problem, lying, guard=guard)
        exc = info.value
        assert exc.kind == "solver.cost"
        assert exc.bundle_path is not None
        result = replay_bundle(exc.bundle_path)
        assert result.reproduced
        # Determinism: a second replay reaches the same verdict.
        assert replay_bundle(exc.bundle_path).reproduced

    def test_false_feasibility_caught(self, tmp_path):
        problem = _tree_problem()
        lying = TPISolution(
            points=[], cost=0.0, feasible=True, method="greedy"
        )
        guard = Guard(bundle_dir=tmp_path)
        with pytest.raises(DivergenceError) as info:
            certify_solution(problem, lying, guard=guard)
        assert info.value.kind == "solver.feasible"
        assert replay_bundle(info.value.bundle_path).reproduced

    def test_dp_claim_on_fanout_circuit_caught(self, tmp_path):
        circuit = random_dag(n_inputs=4, n_gates=15, seed=9)
        problem = TPIProblem.from_test_length(circuit, n_patterns=256)
        lying = TPISolution(
            points=[], cost=0.0, feasible=False, method="dp"
        )
        guard = Guard(bundle_dir=tmp_path)
        with pytest.raises(DivergenceError) as info:
            certify_solution(problem, lying, guard=guard)
        assert info.value.kind == "solver.dp_precondition"
        assert replay_bundle(info.value.bundle_path).reproduced

    def test_double_control_point_placement_caught(self, tmp_path):
        problem = _tree_problem()
        site = problem.circuit.gates[0].name
        lying = TPISolution(
            points=[
                TestPoint(node=site, kind=TestPointType.CONTROL_AND),
                TestPoint(node=site, kind=TestPointType.CONTROL_OR),
            ],
            cost=problem.costs.total(()),
            feasible=False,
            method="greedy",
        )
        guard = Guard(bundle_dir=tmp_path)
        with pytest.raises(DivergenceError) as info:
            certify_solution(problem, lying, guard=guard)
        assert info.value.kind == "solver.placement"


def _lie(kind):
    """A problem and a solution whose first false claim is ``kind``."""
    if kind == "solver.dp_precondition":
        circuit = random_dag(n_inputs=4, n_gates=15, seed=9)
        problem = TPIProblem.from_test_length(circuit, n_patterns=256)
        return problem, TPISolution(
            points=[], cost=0.0, feasible=False, method="dp"
        )
    problem = _tree_problem()
    if kind == "solver.cost":
        honest = solve_tree(problem)
        return problem, dataclasses.replace(honest, cost=honest.cost + 0.5)
    if kind == "solver.feasible":
        return problem, TPISolution(
            points=[], cost=0.0, feasible=True, method="greedy"
        )
    site = problem.circuit.gates[0].name
    points = [
        TestPoint(node=site, kind=TestPointType.CONTROL_AND),
        TestPoint(node=site, kind=TestPointType.CONTROL_OR),
    ]
    return problem, TPISolution(
        points=points, cost=problem.costs.total(()), feasible=False,
        method="greedy",
    )


class TestReplayWritesNothing:
    @pytest.mark.parametrize(
        "kind",
        [
            "solver.cost",
            "solver.dp_precondition",
            "solver.feasible",
            "solver.placement",
        ],
    )
    def test_replay_from_an_empty_directory_creates_nothing(
        self, kind, tmp_path, monkeypatch
    ):
        from repro.cli import main

        problem, lying = _lie(kind)
        guard = Guard(bundle_dir=tmp_path / "bundles")
        with pytest.raises(DivergenceError) as info:
            certify_solution(problem, lying, guard=guard)
        assert info.value.kind == kind
        empty = tmp_path / "cwd"
        empty.mkdir()
        monkeypatch.chdir(empty)
        assert main(["replay", info.value.bundle_path]) == 0
        assert list(empty.iterdir()) == []


class TestMaybeCertify:
    def test_noop_without_session(self):
        from repro.verify import maybe_certify

        problem = _tree_problem()
        lying = TPISolution(points=[], cost=0.0, feasible=True, method="greedy")
        # No ambient guard: the lie passes through untouched (zero cost).
        assert maybe_certify(problem, lying) is lying

    def test_session_certifies_solver_output(self, tmp_path):
        problem = _tree_problem()
        with GuardedSession(fraction=0.0, bundle_dir=tmp_path) as guard:
            solve_tree(problem)
        # certification ran even at sampling fraction 0 (it is not sampled)
        assert guard.divergences == 0

    def test_session_certify_false_disables(self, tmp_path):
        from repro.verify import maybe_certify

        problem = _tree_problem()
        lying = TPISolution(points=[], cost=0.0, feasible=True, method="greedy")
        with GuardedSession(certify=False, bundle_dir=tmp_path):
            assert maybe_certify(problem, lying) is lying

    def test_cascade_output_certified_under_session(self, tmp_path):
        from repro.core.cascade import solve_with_fallback

        circuit = random_dag(n_inputs=4, n_gates=15, seed=9)
        problem = TPIProblem.from_test_length(circuit, n_patterns=256)
        with GuardedSession(fraction=0.0, bundle_dir=tmp_path):
            solution = solve_with_fallback(problem)
        assert solution.method in ("dp-heuristic", "greedy", "random")
