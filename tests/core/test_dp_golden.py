"""Golden equivalence: the DP's plans and work counters are pinned.

``data/dp_golden.json`` records, for about 160 seeded instances, the
points, cost and feasibility :func:`solve_tree` returns, its table
statistics (``tables``, ``table_cells``, ``decisions``) and a digest of
its budget tick/charge sequence.  The instances span the T2, T3 and F2
suites, random trees of 3–60 gates, non-dyadic costs (which exercise the
``1e-12`` tie rule), restricted type sets, ``margin=1.5``, uniform and
geometric grids, the region driver's inputs (root observabilities, leaf
probabilities, enforced faults) and hand-built netlists with tie cells,
buffers, forests and mid-tree outputs.

Any change to the DP's evaluation order or tie breaking shows up here as
an exact mismatch.  Regenerate the fixture only after an intended change
of the DP's output::

    PYTHONPATH=src python -m tests.core.test_dp_golden --write
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.circuit import Circuit, CircuitBuilder, GateType, generators
from repro.core import (
    ProbabilityGrid,
    TestPointCosts,
    TestPointType,
    TPIProblem,
    solve_tree,
)
from repro.resilience import Budget

GOLDEN_PATH = Path(__file__).parent / "data" / "dp_golden.json"

OP = TestPointType.OBSERVATION
CP_AND = TestPointType.CONTROL_AND
CP_OR = TestPointType.CONTROL_OR
CP_RND = TestPointType.CONTROL_RANDOM

#: A case builds ``(problem, solve_tree keyword arguments)``.
Case = Callable[[], Tuple[TPIProblem, dict]]


def _tree_case(gates, seed, theta, **solve_kwargs) -> Case:
    def build():
        circuit = generators.random_tree(gates, seed=seed)
        return TPIProblem(circuit=circuit, threshold=theta), solve_kwargs

    return build


def _problem_case(circuit_fn, solve_kwargs=None, **problem_kwargs) -> Case:
    def build():
        problem = TPIProblem(circuit=circuit_fn(), **problem_kwargs)
        return problem, dict(solve_kwargs or {})

    return build


def _tie_cells() -> Circuit:
    b = CircuitBuilder("ties")
    x0, x1, x2, x3 = b.inputs("x0", "x1", "x2", "x3")
    one = b.const1(name="one")
    zero = b.const0(name="zero")
    a = b.and_(x0, one, name="a")
    o = b.or_(zero, x1, name="o")
    n = b.not_(b.const0(name="zero2"), name="n")
    x = b.xor(n, x2, name="x")
    g = b.nand(a, o, name="g")
    h = b.nor(x, x3, name="h")
    b.output(b.and_(g, h, name="y"))
    return b.build()


def _tie_root() -> Circuit:
    b = CircuitBuilder("tie_root")
    x0, x1 = b.inputs("x0", "x1")
    b.output(b.and_(x0, x1, name="y"), b.const1(name="t1"))
    b.output(b.buf(b.const0(name="t0"), name="tb"))
    return b.build()


def _buffers_and_inverters() -> Circuit:
    b = CircuitBuilder("bufinv")
    ins = b.inputs(*[f"x{i}" for i in range(6)])
    chain = b.buf(b.not_(b.buf(ins[0])))
    left = b.and_(chain, b.not_(ins[1]))
    right = b.or_(b.buf(ins[2]), b.not_(b.not_(ins[3])))
    mid = b.xnor(left, right)
    b.output(b.nand(b.buf(mid), b.and_(ins[4], ins[5]), name="y"))
    return b.build()


def _forest() -> Circuit:
    """Three output trees, one mid-tree output, one unused input."""
    b = CircuitBuilder("forest")
    ins = b.inputs(*[f"x{i}" for i in range(11)])
    a = b.and_(ins[0], ins[1], name="a")
    b.output(a)  # observed *and* feeding ``y0``
    y0 = b.and_(a, b.and_(ins[2], ins[3]), name="y0")
    y1 = b.or_(b.nor(ins[4], ins[5]), b.or_(ins[6], ins[7]), name="y1")
    y2 = b.nand(b.and_(ins[8], ins[9]), b.not_(b.const1(name="k")), name="y2")
    b.output(y0, y1, y2)
    return b.build()  # x10 floats: excluded from planning


def golden_cases() -> Dict[str, Case]:
    """Every golden instance by name, in a fixed order."""
    cases: Dict[str, Case] = {}

    # T2: the exhaustive-optimality suite (experiments.run_t2_dp_optimality).
    for seed in range(8):
        for theta in (0.02, 0.05, 0.10):
            cases[f"t2/s{seed}/th{theta}"] = _tree_case(
                6, seed, theta, grid=ProbabilityGrid.for_threshold(theta)
            )

    # T3: DP vs baselines, planned at θ × 2 (run_t3_tree_solver_comparison).
    for gates, seed in [(20, 0), (20, 1), (40, 2), (40, 3), (60, 4), (80, 5)]:

        def t3(gates=gates, seed=seed):
            circuit = generators.random_tree(gates, seed=seed)
            base = TPIProblem.from_test_length(
                circuit, n_patterns=4096, escape_budget=0.001
            )
            return TPIProblem(
                circuit=circuit, threshold=min(base.threshold * 2.0, 1.0)
            ), {}

        cases[f"t3/g{gates}/s{seed}"] = t3

    # F2: runtime scaling rows (run_f2_runtime_scaling).
    for gates in (5, 8, 10, 20, 40, 80, 120):
        cases[f"f2/g{gates}"] = _tree_case(
            gates, 13, 0.02, grid=ProbabilityGrid.for_threshold(0.02)
        )

    # Random trees of 3–60 gates under assorted thresholds and gate mixes.
    rng = random.Random(2024)
    gate_mixes = [
        None,
        (GateType.AND, GateType.OR),
        (GateType.NAND, GateType.NOR),
        (GateType.XOR, GateType.AND),
    ]
    for i in range(40):
        gates = rng.randint(3, 60)
        seed = rng.randrange(10_000)
        theta = rng.choice([0.005, 0.01, 0.02, 0.05, 0.1, 0.2])
        mix = gate_mixes[i % len(gate_mixes)]
        inverters = i % 3 != 0

        def rand_tree(gates=gates, seed=seed, theta=theta, mix=mix, inv=inverters):
            kwargs = {"include_inverters": inv}
            if mix is not None:
                kwargs["gate_types"] = mix
            circuit = generators.random_tree(gates, seed=seed, **kwargs)
            return TPIProblem(circuit=circuit, threshold=theta), {}

        cases[f"random/{i:02d}/g{gates}/s{seed}/th{theta}"] = rand_tree

    # Non-dyadic costs: sums that differ only in the last ulp exercise the
    # 1e-12 tie rule (first feasible candidate keeps its bucket).
    cost_models = [
        TestPointCosts(0.3, 0.7, 1.1, 0.9),
        TestPointCosts(0.1, 0.2, 0.3, 0.3),
        TestPointCosts(0.7, 0.3, 0.3, 1.3),
        TestPointCosts(1.0 / 3.0, 2.0 / 3.0, 1.0, 0.1 + 0.2),
    ]
    for i in range(16):
        costs = cost_models[i % len(cost_models)]
        gates = 6 + 3 * i
        seed = 300 + i
        theta = (0.01, 0.03, 0.08, 0.15)[i % 4]

        def nondyadic(gates=gates, seed=seed, theta=theta, costs=costs):
            circuit = generators.random_tree(gates, seed=seed)
            return TPIProblem(circuit=circuit, threshold=theta, costs=costs), {}

        cases[f"costs/{i:02d}/g{gates}"] = nondyadic

    # Instances whose plan flips if the rule loses its 1e-12 slack: a later
    # candidate cheaper by less than 1e-12 (0.1 + 0.2 against 0.3) must not
    # replace the first one found.
    tie_costs = [
        TestPointCosts(0.1, 0.2, 0.3, 0.3),
        TestPointCosts(0.1, 0.2, 0.3, 0.4),
        TestPointCosts(0.2, 0.1, 0.3, 0.3),
        TestPointCosts(0.1, 0.7, 0.3, 0.6),
        TestPointCosts(0.3, 0.1, 0.2, 0.6),
        TestPointCosts(0.7, 0.1, 0.2, 0.3),
    ]
    for gates, seed, theta, costs in [
        (10, 26203, 0.15, 3),
        (24, 23317, 0.05, 2),
        (17, 9189, 0.15, 4),
        (25, 84849, 0.1, 0),
        (23, 93719, 0.05, 1),
        (10, 63576, 0.1, 5),
    ]:

        def tie(gates=gates, seed=seed, theta=theta, costs=tie_costs[costs]):
            circuit = generators.random_tree(gates, seed=seed)
            return TPIProblem(circuit=circuit, threshold=theta, costs=costs), {}

        cases[f"ties/g{gates}/s{seed}"] = tie

    # Restricted type sets (including sets that can make instances infeasible).
    type_sets = [
        (OP,),
        (CP_AND, CP_OR),
        (OP, CP_RND),
        (CP_RND,),
        (OP, CP_AND),
        (CP_OR,),
        (OP, CP_OR, CP_RND),
    ]
    for i in range(14):
        types = type_sets[i % len(type_sets)]
        gates = 5 + 4 * i
        seed = 500 + i
        theta = (0.02, 0.06)[i % 2]

        def restricted(gates=gates, seed=seed, theta=theta, types=types):
            circuit = generators.random_tree(gates, seed=seed)
            problem = TPIProblem(
                circuit=circuit,
                threshold=theta,
                allowed_types=types,
                costs=TestPointCosts(0.3, 0.7, 1.1, 0.9),
            )
            return problem, {}

        cases[f"types/{i:02d}/{'+'.join(t.value for t in types)}"] = restricted

    # margin = 1.5 against BIST-derived thresholds.
    for i, (gates, n_patterns) in enumerate(
        [(8, 256), (12, 1024), (16, 4096), (24, 2048), (30, 512), (36, 4096),
         (44, 1024), (50, 8192)]
    ):

        def margin(gates=gates, n_patterns=n_patterns, seed=700 + i):
            circuit = generators.random_tree(gates, seed=seed)
            problem = TPIProblem.from_test_length(circuit, n_patterns=n_patterns)
            return problem, {"margin": 1.5}

        cases[f"margin/g{gates}/n{n_patterns}"] = margin

    # Uniform and geometric grids other than the default.
    grids = [
        ("uniform8", lambda: ProbabilityGrid(8)),
        ("uniform16", lambda: ProbabilityGrid(16)),
        ("uniform32", lambda: ProbabilityGrid(32)),
        ("geo-r1.5", lambda: ProbabilityGrid.geometric(0.004, ratio=1.5)),
        ("geo-r3", lambda: ProbabilityGrid.geometric(0.002, ratio=3.0)),
        ("geo-u4", lambda: ProbabilityGrid.geometric(0.01, uniform_steps=4)),
    ]
    for i in range(12):
        label, make_grid = grids[i % len(grids)]
        gates = 7 + 3 * i
        theta = (0.05, 0.02)[i % 2]
        cases[f"grid/{label}/g{gates}"] = (
            lambda gates=gates, seed=800 + i, theta=theta, make_grid=make_grid: (
                TPIProblem(
                    circuit=generators.random_tree(gates, seed=seed),
                    threshold=theta,
                ),
                {"grid": make_grid()},
            )
        )

    # The region driver's inputs: boundary leaf probabilities, per-node
    # fault enforcement, root observabilities and skewed input sources.
    for i in range(15):
        gates = 4 + 3 * i
        seed = 900 + i
        theta = (0.01, 0.04, 0.1)[i % 3]

        def region(gates=gates, seed=seed, theta=theta, variant=i % 5):
            circuit = generators.random_tree(gates, seed=seed)
            pick = random.Random(seed)
            leaves = {
                name: pick.choice([0.001, 0.05, 0.2, 0.5, 0.75, 0.97, 0.999,
                                   pick.random()])
                for name in circuit.inputs
            }
            enforced = {
                name: pick.choice(
                    [(True, True), (True, False), (False, True), (False, False)]
                )
                for name in circuit.node_names
                if pick.random() < 0.4
            }
            roots = {out: pick.choice([0.02, 0.3, 1.0]) for out in circuit.outputs}
            problem = TPIProblem(circuit=circuit, threshold=theta)
            if variant == 0:
                return problem, {"leaf_probabilities": leaves}
            if variant == 1:
                return problem, {"enforced_faults": enforced}
            if variant == 2:
                return problem, {"root_observabilities": roots}
            if variant == 3:
                problem.input_probabilities = leaves
                return problem, {"enforced_faults": enforced, "margin": 1.5}
            return problem, {
                "leaf_probabilities": leaves,
                "enforced_faults": enforced,
                "root_observabilities": roots,
            }

        cases[f"region/{i:02d}/g{gates}"] = region

    # Hand-built netlists: tie cells, buffers, forests, mid-tree outputs.
    for theta in (0.02, 0.1):
        cases[f"hand/ties/th{theta}"] = _problem_case(_tie_cells, threshold=theta)
        cases[f"hand/tie-root/th{theta}"] = _problem_case(
            _tie_root, threshold=theta
        )
        cases[f"hand/bufinv/th{theta}"] = _problem_case(
            _buffers_and_inverters, threshold=theta
        )
        cases[f"hand/forest/th{theta}"] = _problem_case(_forest, threshold=theta)
        cases[f"hand/chain40/th{theta}"] = _problem_case(
            lambda: generators.and_or_chain(40), threshold=theta
        )
    cases["hand/wand16"] = _problem_case(
        lambda: generators.wide_and_cone(16), threshold=0.005
    )
    cases["hand/corridor10"] = _problem_case(
        lambda: generators.rpr_corridor(10),
        solve_kwargs={"margin": 1.5},
        threshold=0.0017,
    )

    # Infeasible instances: θ above ½, and a type set that cannot help.
    cases["infeasible/theta0.6"] = _tree_case(9, 41, 0.6)
    cases["infeasible/forest-theta0.55"] = _problem_case(_forest, threshold=0.55)
    cases["infeasible/op-only"] = _problem_case(
        lambda: generators.wide_and_cone(12),
        threshold=0.05,
        allowed_types=(OP,),
    )
    return cases


class _RecordingBudget(Budget):
    """An unlimited budget that logs every tick and charge in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []

    def tick(self, where: str = "") -> None:
        self.log.append(where)
        super().tick(where)

    def charge(self, resource: str, n: int = 1, where: str = "") -> None:
        self.log.append([resource, n, where])
        super().charge(resource, n, where)


def run_case(case: Case) -> dict:
    """Solve one instance and reduce the answer to its golden record.

    ``budget`` digests the sequence of budget ticks and per-table cell
    charges, which pins the order tables are built in.
    """
    problem, kwargs = case()
    budget = _RecordingBudget()
    solution = solve_tree(problem, budget=budget, **kwargs)
    return {
        "points": [[p.node, p.kind.value] for p in solution.points],
        "cost": solution.cost if math.isfinite(solution.cost) else None,
        "feasible": solution.feasible,
        "stats": {
            key: int(solution.stats[key])
            for key in ("tables", "table_cells", "decisions")
        },
        "budget": hashlib.sha256(json.dumps(budget.log).encode()).hexdigest()[:16],
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
        sys.exit("usage: python -m tests.core.test_dp_golden --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {name: run_case(case) for name, case in _CASES.items()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one case a line
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
