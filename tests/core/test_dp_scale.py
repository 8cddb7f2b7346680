"""Scale limits of the tree DP: deep chains and wide balanced trees.

On these inputs every solver either answers or raises an error from the
taxonomy.  None of them may run into Python's recursion limit: the chain
is deeper than that limit, so a solver that recursed once per tree level
would fail on it.
"""

import sys

import pytest

from repro.circuit import CircuitBuilder, GateType, write_bench_file
from repro.cli import main
from repro.core import TPIProblem, quantized_tree_check, solve_tree
from repro.core.heuristic import solve_dp_heuristic
from repro.errors import BudgetExceededError
from repro.resilience import Budget

CHAIN_GATES = 1500


def and_or_chain(gates: int):
    """Alternating AND/OR chain: each gate takes the chain and a fresh input."""
    b = CircuitBuilder(f"chain{gates}")
    acc = b.input("x0")
    for i in range(gates):
        kind = GateType.AND if i % 2 == 0 else GateType.OR
        acc = b.gate(kind, [acc, b.input(f"x{i + 1}")], name=f"g{i}")
    b.output(acc)
    return b.build()


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
