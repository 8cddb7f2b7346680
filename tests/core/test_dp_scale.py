"""Scale limits of the solvers: deep chains and wide balanced trees.

On these inputs every solver either answers or raises an error from the
taxonomy.  None of them may run into Python's recursion limit: the chain
is deeper than that limit, so a solver that recursed once per tree level
would fail on it.  Greedy and the solver cascade must also choose the
same plan on the numpy kernel as on the interpreted arbiter, and the
CLI's ``stats`` and ``coverage`` must print the same lines on both.
"""

import sys

import pytest

from repro.circuit import CircuitBuilder, GateType, write_bench_file
from repro.circuit.generators import and_or_chain
from repro.cli import main
from repro.core import TPIProblem, quantized_tree_check, solve_greedy, solve_tree
from repro.core.cascade import solve_with_fallback
from repro.core.heuristic import solve_dp_heuristic
from repro.errors import BudgetExceededError, ReproError
from repro.resilience import Budget
from repro.sim import compile as kernels

CHAIN_GATES = 1500
TREE_LEAVES = 256
#: Greedy rounds per scale case: each round scores 128 candidates, which
#: is enough to drive both candidate-scoring paths.
GREEDY_ROUNDS = 3


def balanced_tree(leaves: int):
    """Balanced binary tree, AND and OR levels alternating."""
    b = CircuitBuilder(f"balanced{leaves}")
    layer = b.inputs(*[f"x{i}" for i in range(leaves)])
    level = 0
    while len(layer) > 1:
        kind = GateType.AND if level % 2 == 0 else GateType.OR
        layer = [
            b.gate(kind, [layer[i], layer[i + 1]]) for i in range(0, len(layer), 2)
        ]
        level += 1
    b.output(layer[0])
    return b.build()


@pytest.fixture(scope="module")
def chain_problem():
    chain = and_or_chain(CHAIN_GATES)
    return TPIProblem.from_test_length(chain, n_patterns=4096)


@pytest.fixture(scope="module")
def tree_problem():
    # 64 patterns: hard enough that the DP heuristic needs its greedy
    # mop-up, so the cascade case runs greedy on the wide tree too.
    tree = balanced_tree(TREE_LEAVES)
    return TPIProblem.from_test_length(tree, n_patterns=64)


def _outcome(solve):
    """A solver's plan, or the taxonomy error it raised."""
    try:
        solution = solve()
    except ReproError as exc:
        return type(exc).__name__
    return solution.points, solution.cost, solution.feasible


def test_chain_is_deeper_than_the_recursion_limit(chain_problem):
    assert chain_problem.circuit.depth() == CHAIN_GATES
    assert CHAIN_GATES > sys.getrecursionlimit()


def test_solve_tree_on_deep_chain(chain_problem):
    solution = solve_tree(chain_problem)
    assert solution.feasible
    assert solution.points
    assert solution.cost == chain_problem.costs.total(solution.points)
    assert quantized_tree_check(chain_problem, solution.points)


def test_dp_heuristic_on_deep_chain(chain_problem):
    solution = solve_dp_heuristic(chain_problem)
    assert solution.feasible
    assert solution.stats["dp_calls"] >= 1


def test_cli_insert_on_deep_chain(tmp_path, capsys):
    path = tmp_path / "chain.bench"
    write_bench_file(and_or_chain(CHAIN_GATES), path)
    assert main(["insert", str(path)]) == 0
    assert "feasible=True" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["stats", "coverage"])
def test_cli_simulation_on_deep_chain_matches_interp(
    command, tmp_path, capsys
):
    # The default 4096 patterns: the numpy kernel walks the chain's wide
    # fault-simulation blocks on the interpreter and must print exactly
    # what the interpreted kernel prints.
    path = tmp_path / "chain.bench"
    write_bench_file(and_or_chain(CHAIN_GATES), path)
    printed = {}
    for kernel in ("numpy", "interp"):
        assert main([command, str(path), "--kernel", kernel]) == 0
        printed[kernel] = capsys.readouterr().out
    assert printed["numpy"] == printed["interp"]
    assert "coverage" in printed["numpy"]


def test_balanced_tree_of_256_leaves():
    circuit = balanced_tree(256)
    assert len(circuit.inputs) == 256
    problem = TPIProblem.from_test_length(circuit, n_patterns=4096)
    solution = solve_tree(problem)
    assert solution.feasible
    assert quantized_tree_check(problem, solution.points)


def test_cell_budget_on_deep_chain_raises_budget_error(chain_problem):
    with pytest.raises(BudgetExceededError) as err:
        solve_tree(chain_problem, budget=Budget(max_dp_cells=1000))
    assert err.value.resource == "dp_cells"


@pytest.mark.parametrize("shape", ["chain", "tree"])
def test_greedy_plan_matches_interp(shape, chain_problem, tree_problem):
    problem = chain_problem if shape == "chain" else tree_problem
    outcomes = {
        kernel: _outcome(
            lambda: solve_greedy(
                problem, max_iterations=GREEDY_ROUNDS, kernel=kernel
            )
        )
        for kernel in ("numpy", "interp")
    }
    assert outcomes["numpy"] == outcomes["interp"]
    points, cost, _feasible = outcomes["numpy"]
    assert len(points) == GREEDY_ROUNDS
    assert cost == problem.costs.total(points)


@pytest.mark.parametrize("shape", ["chain", "tree"])
def test_cascade_plan_matches_interp(
    shape, chain_problem, tree_problem, monkeypatch
):
    problem = chain_problem if shape == "chain" else tree_problem
    outcomes = {}
    for kernel in ("numpy", "interp"):
        monkeypatch.setattr(kernels, "DEFAULT_KERNEL", kernel)
        outcomes[kernel] = _outcome(lambda: solve_with_fallback(problem))
    assert outcomes["numpy"] == outcomes["interp"]
    assert not isinstance(outcomes["numpy"], str), outcomes["numpy"]
