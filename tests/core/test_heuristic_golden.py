"""Golden equivalence: the DP heuristic's and the cascade's answers are pinned.

``data/heuristic_golden.json`` records, per seeded instance, what
:func:`solve_dp_heuristic`, the default :func:`solve_with_fallback`
cascade and the cascade degraded to greedy (a one-cell DP budget) return:
points in order, cost, feasibility, method and stats.  Small
``random_dag`` and ``rpr_mixed`` circuits run both on the dispatch rules
and under :func:`repro.sim.npsim.forced`; two DAGs with 35 and 46 rows
per level run unforced, where the numpy evaluator's placement deltas
take the vectorized engine on their own.

Any change to the placement-delta or candidate-scoring engines that
moves a plan, a cost or a counter shows up here as an exact mismatch.
Regenerate the fixture only from the previous implementation, after an
intended change of the solvers' output::

    PYTHONPATH=src python -m tests.core.test_heuristic_golden --write
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.circuit import Circuit
from repro.circuit.generators import random_dag, rpr_mixed
from repro.core import TPIProblem, prepare_for_tpi, solve_dp_heuristic
from repro.core.cascade import solve_with_fallback
from repro.resilience import Budget
from repro.sim import npsim

GOLDEN_PATH = Path(__file__).parent / "data" / "heuristic_golden.json"

#: A case builds ``(problem, forced)``.
Case = Callable[[], Tuple[TPIProblem, bool]]

_SMALL: Dict[str, Tuple[Callable[[], Circuit], int]] = {
    "rdag10x60/s1": (lambda: random_dag(10, 60, seed=1), 2048),
    "rdag12x90/s2": (lambda: random_dag(12, 90, seed=2, fanin_span=20), 1024),
    "rdag12x90/s3": (lambda: random_dag(12, 90, seed=3, fanin_span=20), 1024),
    "rdag12x90/s5": (lambda: random_dag(12, 90, seed=5, fanin_span=20), 1024),
    "rpr8x6/s0": (lambda: rpr_mixed(cone_width=8, corridor_length=6, seed=0), 4096),
    "rpr8x6/s2": (lambda: rpr_mixed(cone_width=8, corridor_length=6, seed=2), 4096),
    "rpr6x4x3/s4": (
        lambda: rpr_mixed(cone_width=6, corridor_length=4, n_blocks=3, seed=4),
        2048,
    ),
}

#: Wide enough (rows per level) for the vectorized delta without forcing.
_WIDE: Dict[str, Callable[[], Circuit]] = {
    "wide/rdag600": lambda: prepare_for_tpi(
        random_dag(64, 600, seed=1, fanin_span=200)
    ),
    "wide/rdag800": lambda: random_dag(64, 800, seed=2, fanin_span=250),
}


def golden_cases() -> Dict[str, Case]:
    """Every golden instance by name, in a fixed order."""
    cases: Dict[str, Case] = {}
    for name, (make, n_patterns) in _SMALL.items():
        for forced in (False, True):
            cases[f"{name}/{'forced' if forced else 'rules'}"] = (
                lambda make=make, n=n_patterns, forced=forced: (
                    TPIProblem.from_test_length(make(), n_patterns=n),
                    forced,
                )
            )
    for name, make in _WIDE.items():
        cases[name] = lambda make=make: (
            TPIProblem.from_test_length(
                make(), n_patterns=4096, escape_budget=0.001
            ),
            False,
        )
    return cases


def _record(solution) -> dict:
    return {
        "points": [
            [p.node, p.kind.value, list(p.branch) if p.branch else None]
            for p in solution.points
        ],
        "cost": solution.cost if math.isfinite(solution.cost) else None,
        "feasible": solution.feasible,
        "method": solution.method,
        "stats": dict(solution.stats),
    }


def run_case(case: Case) -> dict:
    """Solve one instance three ways and reduce the answers to records."""
    problem, forced = case()
    with npsim.forced() if forced else nullcontext():
        return {
            "heuristic": _record(solve_dp_heuristic(problem)),
            "cascade": _record(solve_with_fallback(problem)),
            # a one-cell DP budget degrades the cascade to greedy
            "cascade_greedy": _record(
                solve_with_fallback(problem, budget=Budget(max_dp_cells=1))
            ),
        }


_CASES = golden_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert list(golden) == list(_CASES)


@pytest.mark.parametrize("name", list(_CASES))
def test_matches_golden(name, golden):
    assert run_case(_CASES[name]) == golden[name]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_heuristic_golden --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {name: run_case(case) for name, case in _CASES.items()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one case a line
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
