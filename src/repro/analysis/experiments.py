"""Experiment runners behind the benchmark harness (T1–T4, F1–F4).

Each function reproduces one table or figure of the reconstructed
evaluation (DESIGN.md §5) and returns structured data plus a rendered
table, so the pytest-benchmark entries in ``benchmarks/`` stay thin and the
same logic is importable from notebooks and examples.

Long runs are expected to hit bad inputs and budget exhaustion (general
TPI is NP-complete), so the module also hosts the *hardened* drivers
(DESIGN.md §8): :func:`run_circuit_sweep` isolates per-circuit crashes and
runs every circuit as a job of a sweep-fabric campaign
(:mod:`repro.fabric`) whose journal commits each outcome durably, so a
killed sweep resumes where it stopped, and
:func:`run_experiments_checkpointed` does the same at experiment
granularity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..circuit.analysis import has_reconvergent_fanout, is_fanout_free
from ..circuit.bench_io import parse_bench_file
from ..circuit.generators import random_tree
from ..circuit.library import benchmark, benchmark_names
from ..circuit.netlist import Circuit
from ..circuit.verilog_io import parse_verilog_file
from ..core.cascade import DEFAULT_CASCADE, solve_with_fallback
from ..core.dp import quantized_tree_check, solve_tree
from ..core.evaluate import CoverageReport, evaluate_solution, measure_coverage
from ..core.exhaustive import solve_exhaustive
from ..core.greedy import solve_greedy
from ..core.heuristic import solve_dp_heuristic
from ..core.prepare import prepare_for_tpi
from ..core.problem import TPIProblem, TPISolution
from ..core.quantize import ProbabilityGrid
from ..core.random_placement import solve_random
from ..core.virtual import evaluate_placement
from ..errors import BudgetExceededError, ExperimentError, ParseError
from ..resilience import Budget
from ..sim.faults import all_stuck_at_faults, collapse_faults
from ..sim.patterns import UniformRandomSource
from .tables import Table

__all__ = [
    "ExperimentResult",
    "SweepOutcome",
    "execute_experiment_job",
    "execute_sweep_job",
    "run_circuit_sweep",
    "experiment_runners",
    "run_experiments_checkpointed",
    "run_t1_circuit_characteristics",
    "run_t2_dp_optimality",
    "run_t3_tree_solver_comparison",
    "run_t4_coverage_improvement",
    "run_f1_points_curve",
    "run_f2_runtime_scaling",
    "run_f3_testlength_curves",
    "run_f4_quantization_ablation",
    "run_e1_misr_aliasing",
    "run_e2_margin_ablation",
    "run_e3_strategy_comparison",
    "run_e4_multiphase",
    "run_e5_weighted_random",
]


@dataclass
class ExperimentResult:
    """One experiment's output: identifier, structured rows, rendered text."""

    experiment_id: str
    description: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def table(self) -> Table:
        """Render the rows into a :class:`~repro.analysis.tables.Table`."""
        t = Table(self.headers)
        for row in self.rows:
            t.add_row(row)
        return t

    def render(self) -> str:
        """Full text block: id, description, table."""
        return self.table().render(
            title=f"[{self.experiment_id}] {self.description}"
        )


# ----------------------------------------------------------------- T1
def run_t1_circuit_characteristics(
    names: Optional[Sequence[str]] = None,
    n_patterns: int = 1024,
    seed: int = 1,
) -> ExperimentResult:
    """T1 — benchmark suite characteristics and baseline coverage."""
    result = ExperimentResult(
        experiment_id="T1",
        description="benchmark characteristics + baseline LFSR coverage",
        headers=[
            "circuit",
            "inputs",
            "gates",
            "depth",
            "stems",
            "faults",
            "fanout-free",
            "reconvergent",
            f"cov@{n_patterns}",
        ],
    )
    for name in names or benchmark_names():
        circuit = benchmark(name)
        stats = circuit.stats()
        collapsed = collapse_faults(circuit)
        sim = measure_coverage(
            circuit, n_patterns, UniformRandomSource(seed=seed)
        )
        result.rows.append(
            [
                name,
                stats["inputs"],
                stats["gates"],
                stats["depth"],
                stats["stems"],
                collapsed.size(),
                is_fanout_free(circuit),
                has_reconvergent_fanout(circuit),
                sim.coverage(),
            ]
        )
    return result


# ----------------------------------------------------------------- T2
def run_t2_dp_optimality(
    n_trees: int = 8,
    tree_gates: int = 6,
    thresholds: Sequence[float] = (0.02, 0.05, 0.10),
    grid: Optional[ProbabilityGrid] = None,
) -> ExperimentResult:
    """T2 — DP cost equals the exhaustive optimum on small trees.

    Both solvers score feasibility with the same quantized algebra, so the
    comparison is apples-to-apples; a mismatch anywhere is a bug.
    """
    result = ExperimentResult(
        experiment_id="T2",
        description="DP vs exhaustive optimum (quantized algebra)",
        headers=["tree", "theta", "dp cost", "optimal cost", "match"],
    )
    for seed in range(n_trees):
        circuit = random_tree(tree_gates, seed=seed)
        for theta in thresholds:
            problem = TPIProblem(circuit=circuit, threshold=theta)
            g = grid or ProbabilityGrid.for_threshold(theta)
            dp = solve_tree(problem, grid=g)

            def check(points, _problem=problem, _g=g):
                return quantized_tree_check(_problem, points, grid=_g)

            exhaustive = solve_exhaustive(
                problem, feasibility=check, max_subset_size=4
            )
            result.rows.append(
                [
                    circuit.name,
                    theta,
                    dp.cost,
                    exhaustive.cost,
                    abs(dp.cost - exhaustive.cost) < 1e-9,
                ]
            )
    return result


# ----------------------------------------------------------------- T3
def run_t3_tree_solver_comparison(
    tree_specs: Optional[Sequence[Tuple[int, int]]] = None,
    n_patterns: int = 4096,
    escape_budget: float = 0.001,
    margin: float = 2.0,
) -> ExperimentResult:
    """T3 — DP vs greedy vs random placement cost on fanout-free circuits.

    All three solvers plan against the *same* requirement — θ × margin —
    so the comparison is apples-to-apples (the DP needs the margin to cover
    quantization slack; giving the baselines a looser target would hand
    them an unfair discount).  Feasibility of every solution is then
    verified at the planning threshold with the continuous evaluator.
    """
    if tree_specs is None:
        tree_specs = [(20, 0), (20, 1), (40, 2), (40, 3), (60, 4), (80, 5)]
    result = ExperimentResult(
        experiment_id="T3",
        description="solver cost comparison on fanout-free circuits",
        headers=[
            "circuit",
            "gates",
            "dp cost",
            "greedy cost",
            "random cost",
            "dp feasible",
            "greedy feasible",
        ],
    )
    for gates, seed in tree_specs:
        circuit = random_tree(gates, seed=seed)
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=n_patterns, escape_budget=escape_budget
        )
        # One shared planning requirement for every solver.
        planning = TPIProblem(
            circuit=circuit,
            threshold=min(problem.threshold * margin, 1.0),
            costs=problem.costs,
            allowed_types=problem.allowed_types,
            input_probabilities=problem.input_probabilities,
        )
        dp = solve_tree(planning)
        # Verification happens at the *original* threshold: the margin is
        # exactly the slack that keeps the quantized plan valid there.
        dp_ok = evaluate_placement(problem, dp.points).is_feasible()
        greedy = solve_greedy(planning)
        rnd = solve_random(planning, seed=seed)
        result.rows.append(
            [
                circuit.name,
                gates,
                dp.cost,
                greedy.cost,
                rnd.cost if rnd.feasible else None,
                dp.feasible and dp_ok,
                greedy.feasible,
            ]
        )
    return result


# ----------------------------------------------------------------- T4
def run_t4_coverage_improvement(
    names: Optional[Sequence[str]] = None,
    n_patterns: int = 4096,
    escape_budget: float = 0.001,
) -> Tuple[ExperimentResult, Dict[str, CoverageReport]]:
    """T4 — measured coverage before/after insertion on general circuits.

    The DP heuristic and greedy each plan a placement; both are physically
    inserted and fault simulated under the same pattern budget.
    """
    if names is None:
        names = ["eqcmp12", "wand16", "wor16", "corridor12", "rprmix", "rprmix_big"]
    result = ExperimentResult(
        experiment_id="T4",
        description=f"measured stuck-at coverage @ {n_patterns} patterns",
        headers=[
            "circuit",
            "faults",
            "base cov",
            "dp #cp",
            "dp #op",
            "dp cov",
            "greedy #tp",
            "greedy cov",
        ],
    )
    reports: Dict[str, CoverageReport] = {}
    for name in names:
        circuit = prepare_for_tpi(benchmark(name))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=n_patterns, escape_budget=escape_budget
        )
        dp_solution = solve_dp_heuristic(problem)
        dp_report = evaluate_solution(problem, dp_solution, n_patterns)
        greedy_solution = solve_greedy(problem)
        greedy_report = evaluate_solution(problem, greedy_solution, n_patterns)
        reports[name] = dp_report
        result.rows.append(
            [
                name,
                dp_report.n_faults,
                dp_report.baseline_coverage,
                dp_report.n_control,
                dp_report.n_observation,
                dp_report.modified_coverage,
                len(greedy_solution.points),
                greedy_report.modified_coverage,
            ]
        )
    return result, reports


# ----------------------------------------------------------------- F1
def run_f1_points_curve(
    name: str = "rprmix",
    n_patterns: int = 4096,
    escape_budget: float = 0.001,
) -> ExperimentResult:
    """F1 — measured coverage as a function of inserted point count.

    Prefixes of the DP-heuristic placement (in selection order) are
    inserted one point at a time; coverage should rise monotonically to the
    full-placement value (modulo random-pattern noise).
    """
    circuit = prepare_for_tpi(benchmark(name))
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=n_patterns, escape_budget=escape_budget
    )
    solution = solve_dp_heuristic(problem)
    result = ExperimentResult(
        experiment_id="F1",
        description=f"coverage vs #test points on {name}",
        headers=["#points", "cost", "coverage"],
    )
    for k in range(len(solution.points) + 1):
        prefix = TPISolution(
            points=solution.points[:k],
            cost=problem.costs.total(solution.points[:k]),
            feasible=False,
            method="prefix",
        )
        report = evaluate_solution(problem, prefix, n_patterns)
        result.rows.append([k, prefix.cost, report.modified_coverage])
    return result


# ----------------------------------------------------------------- F2
def run_f2_runtime_scaling(
    tree_sizes: Sequence[int] = (10, 20, 40, 80, 120),
    threshold: float = 0.02,
    exhaustive_limit: int = 12,
) -> ExperimentResult:
    """F2 — DP runtime grows polynomially; exhaustive explodes.

    Exhaustive search is only attempted on trees small enough to finish;
    larger entries show the DP alone.
    """
    result = ExperimentResult(
        experiment_id="F2",
        description="runtime scaling: DP (polynomial) vs exhaustive",
        headers=["gates", "dp seconds", "dp cost", "exhaustive seconds"],
    )
    grid = ProbabilityGrid.for_threshold(threshold)
    for gates in tree_sizes:
        circuit = random_tree(gates, seed=13)
        problem = TPIProblem(circuit=circuit, threshold=threshold)
        with obs.timed("experiments.f2.dp", gates=gates) as dp_span:
            dp = solve_tree(problem, grid=grid)
        ex_seconds: Optional[float] = None
        if gates <= exhaustive_limit:
            def check(points, _p=problem, _g=grid):
                return quantized_tree_check(_p, points, grid=_g)

            with obs.timed("experiments.f2.exhaustive", gates=gates) as ex_span:
                solve_exhaustive(problem, feasibility=check, max_subset_size=3)
            ex_seconds = ex_span.seconds
        result.rows.append([gates, dp_span.seconds, dp.cost, ex_seconds])
    return result


# ----------------------------------------------------------------- F3
def run_f3_testlength_curves(
    name: str = "eqcmp12",
    n_patterns: int = 8192,
    escape_budget: float = 0.001,
) -> ExperimentResult:
    """F3 — coverage vs test length before and after insertion.

    The after-insertion curve must dominate the baseline and reach its
    plateau earlier — the "curve shifts up and left" figure.
    """
    circuit = prepare_for_tpi(benchmark(name))
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=n_patterns, escape_budget=escape_budget
    )
    solution = solve_dp_heuristic(problem)
    report = evaluate_solution(problem, solution, n_patterns)
    result = ExperimentResult(
        experiment_id="F3",
        description=f"coverage vs test length on {name} (before/after TPI)",
        headers=["patterns", "baseline", "with test points"],
    )
    modified = dict(report.modified_curve)
    for n, base_cov in report.baseline_curve:
        result.rows.append([n, base_cov, modified.get(n)])
    return result


# ----------------------------------------------------------------- F4
def run_f4_quantization_ablation(
    tree_gates: int = 40,
    seed: int = 2,
    threshold: float = 0.01,
    ratios: Sequence[float] = (4.0, 2.0, 1.5, 1.25),
) -> ExperimentResult:
    """F4 — grid density vs DP cost and runtime.

    Finer geometric ratios enlarge the grid; cost should plateau while
    runtime grows — the knob's practical operating point.
    """
    circuit = random_tree(tree_gates, seed=seed)
    problem = TPIProblem(circuit=circuit, threshold=threshold)
    result = ExperimentResult(
        experiment_id="F4",
        description="quantization ablation: grid density vs cost/runtime",
        headers=["ratio", "grid size", "dp cost", "seconds", "continuous ok"],
    )
    for ratio in ratios:
        grid = ProbabilityGrid.for_threshold(threshold, ratio=ratio)
        with obs.timed(
            "experiments.f4.dp", ratio=ratio, grid_size=len(grid)
        ) as dp_span:
            dp = solve_tree(problem, grid=grid)
        ok = evaluate_placement(problem, dp.points).is_feasible()
        result.rows.append([ratio, len(grid), dp.cost, dp_span.seconds, ok])
    return result


# ----------------------------------------------------------------- E1
def run_e1_misr_aliasing(
    widths: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
    n_patterns: int = 128,
    seed: int = 5,
) -> ExperimentResult:
    """E1 (extension) — signature aliasing rate vs MISR width.

    Theory predicts an aliasing probability approaching ``2^-k`` for a
    ``k``-bit MISR; the table reports the measured rate next to it.
    """
    from ..bist import BISTArchitecture, run_bist
    from ..circuit.generators import random_dag

    circuit = random_dag(10, 120, seed=seed)
    result = ExperimentResult(
        experiment_id="E1",
        description="MISR width vs measured signature aliasing",
        headers=[
            "misr width",
            "output detected",
            "signature detected",
            "aliased",
            "measured rate",
            "2^-k",
        ],
    )
    for width in widths:
        report = run_bist(
            circuit, BISTArchitecture(n_patterns=n_patterns, misr_width=width)
        )
        result.rows.append(
            [
                width,
                len(report.output_detected),
                len(report.signature_detected),
                len(report.aliased),
                report.aliasing_rate,
                2.0**-width,
            ]
        )
    return result


# ----------------------------------------------------------------- E2
def run_e2_margin_ablation(
    margins: Sequence[float] = (1.0, 1.25, 1.5, 2.0, 3.0),
    tree_gates: int = 60,
    seed: int = 9,
    n_patterns: int = 4096,
) -> ExperimentResult:
    """E2 (extension) — DP planning margin vs cost and continuous validity.

    The margin plans against θ×margin to cover quantization slack: too
    small and the continuous model may reject the plan, too large and the
    DP over-inserts.  The table locates the knee.
    """
    circuit = random_tree(tree_gates, seed=seed)
    problem = TPIProblem.from_test_length(circuit, n_patterns=n_patterns)
    result = ExperimentResult(
        experiment_id="E2",
        description="DP planning margin vs cost / continuous feasibility",
        headers=["margin", "dp cost", "#points", "continuous ok"],
    )
    for margin in margins:
        solution = solve_tree(problem, margin=margin)
        ok = evaluate_placement(problem, solution.points).is_feasible()
        result.rows.append(
            [margin, solution.cost, len(solution.points), ok]
        )
    return result


# ----------------------------------------------------------------- E3
def run_e3_strategy_comparison(
    names: Optional[Sequence[str]] = None,
    n_patterns: int = 4096,
) -> ExperimentResult:
    """E3 (extension) — fix the patterns or fix the circuit?

    The historical fork in random-pattern-resistance: deterministic
    top-off cubes (ATPG, this library's PODEM) versus test point insertion
    (the paper).  Both reach full coverage; the currencies differ — stored
    deterministic patterns vs inserted hardware.
    """
    from ..atpg import top_off

    if names is None:
        names = ["eqcmp12", "wand16", "corridor12", "rprmix"]
    result = ExperimentResult(
        experiment_id="E3",
        description=f"random-only vs ATPG top-off vs TPI @ {n_patterns} patterns",
        headers=[
            "circuit",
            "random cov",
            "topoff cov",
            "#cubes",
            "tpi cov",
            "#points",
        ],
    )
    for name in names:
        circuit = prepare_for_tpi(benchmark(name))
        topoff_report = top_off(circuit, n_random_patterns=n_patterns)
        problem = TPIProblem.from_test_length(circuit, n_patterns=n_patterns)
        solution = solve_dp_heuristic(problem)
        tpi_report = evaluate_solution(problem, solution, n_patterns)
        result.rows.append(
            [
                name,
                topoff_report.random_coverage,
                topoff_report.final_coverage,
                topoff_report.n_deterministic_patterns,
                tpi_report.modified_coverage,
                len(solution.points),
            ]
        )
    return result


# ----------------------------------------------------------------- E4
def run_e4_multiphase(
    names: Optional[Sequence[str]] = None,
    n_patterns: int = 4096,
) -> ExperimentResult:
    """E4 (extension) — always-random vs multi-phase fixed-value CPs.

    The same placement is driven two ways: every control point fed by an
    independent pseudo-random signal (the 1987 scheme), or grouped into
    fixed-value phases (the successor scheme).  Expected shape: phased
    operation matches random-driven coverage with only a couple of phases
    — confirming that few of the 2^K control combinations matter.
    """
    from ..core.evaluate import evaluate_solution
    from ..core.phases import measure_phase_coverage, schedule_phases
    from ..core.problem import TestPointType

    fixed_types = (
        TestPointType.OBSERVATION,
        TestPointType.CONTROL_AND,
        TestPointType.CONTROL_OR,
    )
    if names is None:
        names = ["wand16", "wor16", "rprmix", "eqcmp12"]
    result = ExperimentResult(
        experiment_id="E4",
        description="random-driven vs multi-phase fixed-value control points",
        headers=[
            "circuit",
            "#points",
            "random-driven cov",
            "#phases",
            "phased cov",
        ],
    )
    for name in names:
        circuit = prepare_for_tpi(benchmark(name))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=n_patterns, allowed_types=fixed_types
        )
        solution = solve_dp_heuristic(problem)
        random_driven = evaluate_solution(problem, solution, n_patterns)
        plan = schedule_phases(problem, solution.points, n_patterns=n_patterns)
        phased_cov = measure_phase_coverage(problem, plan, n_patterns)
        result.rows.append(
            [
                name,
                len(solution.points),
                random_driven.modified_coverage,
                plan.n_phases,
                phased_cov,
            ]
        )
    return result


# ----------------------------------------------------------------- E5
def run_e5_weighted_random(
    names: Optional[Sequence[str]] = None,
    n_patterns: int = 4096,
    n_trials: int = 3,
) -> ExperimentResult:
    """E5 (extension) — weighted-random patterns vs test point insertion.

    Weighted random (biasing input probabilities) was the main
    pattern-side contemporary of TPI.  Expected shape: it rescues
    excitation-limited circuits (wide AND/OR cones) but is powerless on
    correlation-limited ones (equality comparators), where TPI still wins
    — the qualitative argument for circuit modification.
    """
    from ..sim.fault_sim import FaultSimulator
    from ..sim.patterns import WeightedRandomSource
    from ..testability.weights import optimize_weights

    if names is None:
        names = ["wand16", "wor16", "eqcmp12", "rprmix"]
    result = ExperimentResult(
        experiment_id="E5",
        description="uniform vs optimized weighted-random vs TPI (measured)",
        headers=[
            "circuit",
            "uniform cov",
            "weighted cov",
            "#biased inputs",
            "tpi cov",
            "#points",
        ],
    )
    for name in names:
        circuit = prepare_for_tpi(benchmark(name))
        sim = FaultSimulator(circuit)

        def measured(source) -> float:
            total = 0.0
            for trial in range(n_trials):
                source.seed = trial + 1
                stim = source.generate(circuit.inputs, n_patterns)
                total += sim.run(stim, n_patterns).coverage()
            return total / n_trials

        uniform_cov = measured(UniformRandomSource())
        weight_result = optimize_weights(circuit, n_patterns=n_patterns)
        weighted_cov = measured(
            WeightedRandomSource(weights=weight_result.weights)
        )
        problem = TPIProblem.from_test_length(circuit, n_patterns=n_patterns)
        solution = solve_dp_heuristic(problem)
        tpi_report = evaluate_solution(problem, solution, n_patterns)
        result.rows.append(
            [
                name,
                uniform_cov,
                weighted_cov,
                len(weight_result.biased_inputs()),
                tpi_report.modified_coverage,
                len(solution.points),
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Hardened drivers: crash-isolated, checkpointed, resumable (DESIGN.md §8)
# ---------------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """One circuit's result inside a :func:`run_circuit_sweep` run.

    ``status`` is ``"ok"``, ``"parse_error"``, ``"budget_exceeded"``,
    ``"error"`` (any other exception, recorded instead of propagated so a
    sweep survives individual circuits going wrong) or ``"quarantined"``
    (the fabric gave up on a job that kept failing).  Failed circuits keep
    the error type and message; successful ones record which cascade stage
    produced the solution and how many stages were skipped over.
    """

    circuit: str
    path: str
    status: str
    solver: Optional[str] = None
    cost: Optional[float] = None
    n_points: Optional[int] = None
    fallbacks: Optional[int] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    # Measured-coverage extras (``measure_coverage=True`` sweeps only).
    # Defaults keep checkpoints from older sweeps loadable as-is.
    baseline_coverage: Optional[float] = None
    modified_coverage: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        """One JSON record (stable key order)."""
        return json.dumps(asdict(self), sort_keys=True)

    def describe(self) -> str:
        """One human-readable sweep-progress line."""
        if self.ok:
            extra = f" (+{self.fallbacks} fallbacks)" if self.fallbacks else ""
            if self.modified_coverage is not None:
                extra += (
                    f" cov={100 * (self.baseline_coverage or 0.0):.1f}%"
                    f"->{100 * self.modified_coverage:.1f}%"
                )
            return (
                f"{self.circuit:20s} ok: {self.solver} "
                f"cost={self.cost:g} points={self.n_points}{extra}"
            )
        return f"{self.circuit:20s} {self.status}: {self.error}"


def _load_netlist_file(path: Path) -> Circuit:
    if path.suffix in (".v", ".sv"):
        return parse_verilog_file(path)
    return parse_bench_file(path)


def _sweep_one(
    path: Path,
    n_patterns: int,
    escape_budget: float,
    budget: Optional[Budget],
    solvers: Sequence[str],
    measure_coverage: bool = False,
    jobs: int = 1,
) -> SweepOutcome:
    """Solve one circuit, converting every failure into a recorded outcome."""
    circuit_id = path.stem
    try:
        circuit = prepare_for_tpi(_load_netlist_file(path))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=n_patterns, escape_budget=escape_budget
        )
        solution = solve_with_fallback(
            problem,
            solvers=solvers,
            budget=budget.renewed() if budget is not None else None,
        )
        baseline_cov = modified_cov = None
        if measure_coverage:
            # Fault-dropping coverage mode: the sweep only needs the
            # numbers, never the full detection words.
            report = evaluate_solution(
                problem, solution, n_patterns, jobs=jobs, mode="coverage"
            )
            baseline_cov = report.baseline_coverage
            modified_cov = report.modified_coverage
        return SweepOutcome(
            circuit=circuit_id,
            path=str(path),
            status="ok",
            solver=solution.method,
            cost=solution.cost,
            n_points=len(solution.points),
            fallbacks=int(solution.stats.get("fallbacks", 0)),
            baseline_coverage=baseline_cov,
            modified_coverage=modified_cov,
        )
    except ParseError as exc:
        status = "parse_error"
        error: Exception = exc
    except BudgetExceededError as exc:
        status = "budget_exceeded"
        error = exc
    except Exception as exc:  # crash isolation: anything else is recorded
        status = "error"
        error = exc
    obs.event(
        "sweep_circuit_failed",
        circuit=circuit_id,
        status=status,
        error=type(error).__name__,
        reason=str(error),
    )
    obs.count("sweep.failures")
    obs.count(f"sweep.failures.{status}")
    return SweepOutcome(
        circuit=circuit_id,
        path=str(path),
        status=status,
        error_type=type(error).__name__,
        error=str(error),
    )


# ---------------------------------------------------------------------------
# Fabric executors and payload plumbing.  Executors are module-level and
# take/return plain JSON-able data: they are dispatched by kind inside
# worker processes (repro.fabric.worker) and their results land verbatim
# in the fabric's journal.  Domain failures (parse errors, budget
# exhaustion, experiment crashes) are *results* here (a failed outcome
# record); only an exception escaping the executor is a fabric failure
# that triggers retry/quarantine.
# ---------------------------------------------------------------------------
def _budget_spec(budget: Optional[Budget]) -> Optional[Dict[str, object]]:
    """JSON-able budget limits (clocks restart on reconstruction)."""
    if budget is None:
        return None
    return {
        "wall_ms": budget.wall_ms,
        "max_dp_cells": budget.limits["dp_cells"],
        "max_backtracks": budget.limits["backtracks"],
        "max_patterns": budget.limits["patterns"],
    }


def _budget_from_spec(spec: Optional[Dict[str, object]]) -> Optional[Budget]:
    if not spec:
        return None
    return Budget(
        wall_ms=spec.get("wall_ms"),  # type: ignore[arg-type]
        max_dp_cells=spec.get("max_dp_cells"),  # type: ignore[arg-type]
        max_backtracks=spec.get("max_backtracks"),  # type: ignore[arg-type]
        max_patterns=spec.get("max_patterns"),  # type: ignore[arg-type]
    )


def execute_sweep_job(payload: Dict[str, object]) -> dict:
    """Fabric executor for one sweep circuit (kind ``sweep_circuit``)."""
    outcome = _sweep_one(
        Path(str(payload["path"])),
        int(payload["n_patterns"]),  # type: ignore[arg-type]
        float(payload["escape_budget"]),  # type: ignore[arg-type]
        _budget_from_spec(payload.get("budget")),  # type: ignore[arg-type]
        tuple(payload.get("solvers") or DEFAULT_CASCADE),  # type: ignore[arg-type]
        measure_coverage=bool(payload.get("measure_coverage", False)),
        jobs=int(payload.get("jobs", 1)),  # type: ignore[arg-type]
    )
    return asdict(outcome)


def execute_experiment_job(payload: Dict[str, object]) -> dict:
    """Fabric executor for one experiment table (kind ``experiment``)."""
    key = str(payload["experiment"])
    runners = experiment_runners()
    if key not in runners:
        # A campaign bug, not a domain failure: let the fabric quarantine.
        raise ExperimentError(f"unknown experiment {key!r}")
    try:
        with obs.span(f"experiment.{key}"):
            rendered = runners[key]().render()
        return {"experiment": key, "status": "ok", "rendered": rendered}
    except Exception as exc:  # isolation: record, keep going
        obs.event(
            "experiment_failed",
            experiment=key,
            error=type(exc).__name__,
            reason=str(exc),
        )
        obs.count("experiments.failures")
        return {
            "experiment": key,
            "status": "error",
            "error_type": type(exc).__name__,
            "error": str(exc),
        }


def _sweep_content_key(path: Path) -> str:
    """Content address for one netlist file, most to least precise.

    Parseable circuits key on ``Circuit.structural_hash()`` — two files
    with identical structure under the same config are one fabric job.
    Unparseable files key on their raw bytes (the parse error *is* the
    result, and identical bytes fail identically); unreadable paths key
    on the path string (the read error is all there is).
    """
    try:
        return "circuit:" + _load_netlist_file(path).structural_hash()
    except Exception:
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:32]
            return "file:" + digest
        except OSError:
            return "path:" + str(path)


def run_circuit_sweep(
    paths: Sequence[Union[str, Path]],
    results_path: Union[str, Path],
    *,
    n_patterns: int = 1024,
    escape_budget: float = 0.001,
    budget: Optional[Budget] = None,
    solvers: Sequence[str] = DEFAULT_CASCADE,
    max_circuits: Optional[int] = None,
    measure_coverage: bool = False,
    jobs: int = 1,
    fabric: bool = True,
    workers: int = 1,
    lease_timeout_s: float = 30.0,
    chaos=None,
    interrupt=None,
    store: Union[str, Path, None] = None,
    store_verify_fraction: float = 0.05,
) -> List[SweepOutcome]:
    """Plan test points for every circuit file, surviving bad apples.

    The sweep runs as a supervised fabric campaign
    (:class:`~repro.fabric.FabricSupervisor`).  Each netlist becomes one
    content-addressed job (structurally identical circuits under the
    same config collapse to a single job), executed by leased workers —
    or in-process with ``workers <= 1`` — and committed exactly once to
    the journal at ``results_path``.  Each circuit runs in isolation: a
    parse error, budget exhaustion or crash is recorded as a failed
    :class:`SweepOutcome` and the sweep moves on; a job that keeps
    killing its worker is quarantined (``status="quarantined"``, carrying
    its last fabric error).  A killed run loses at most the jobs in
    flight, and a rerun with the same journal and config serves every
    committed job from it without recomputation.

    Parameters
    ----------
    paths:
        Netlist files (``.bench`` / ``.v`` / ``.sv``).
    results_path:
        The fabric journal (created if missing; use a new path to start
        over).
    budget:
        Per-circuit cooperative budget; each circuit gets a fresh clock
        (:meth:`~repro.resilience.Budget.renewed`).
    solvers:
        Cascade stages for :func:`~repro.core.cascade.solve_with_fallback`.
    max_circuits:
        Stop after running this many *new* circuits (resume testing knob).
    measure_coverage:
        Also insert each solution and record measured before/after fault
        coverage (fault-dropping simulation; full detection words are
        never materialized).
    jobs:
        Worker processes for the coverage measurement's fault simulation.
    fabric:
        Must be True; ``False`` asked for the removed serial checkpoint
        runner and raises :class:`ValueError`.
    workers:
        Fabric pool width (``<= 1`` runs the campaign in-process).
    lease_timeout_s:
        Fabric lease liveness window.
    chaos:
        Optional :class:`~repro.resilience.chaos.FabricChaosSpec` for
        fault-injection campaigns.
    interrupt:
        Optional :class:`~repro.resilience.interrupt.GracefulInterrupt`;
        when it reports SIGTERM/SIGINT the sweep stops at the next job
        boundary (commits already durable) by raising
        :class:`~repro.errors.SweepInterrupted`.
    store:
        Optional directory of a cross-campaign
        :class:`~repro.fabric.store.ResultStore`.  Jobs with a verified
        store entry commit without recomputation; fresh commits are
        published back for future campaigns.
    store_verify_fraction:
        Seeded fraction of store hits re-executed and compared bit-exact
        (cache-poisoning audit); only meaningful with ``store``.

    Returns the outcomes for all circuits in ``paths`` that have run so
    far, recorded-or-fresh, in ``paths`` order.
    """
    if not fabric:
        raise ValueError(
            "fabric=False asked for the serial checkpoint runner, which "
            "was removed: every sweep runs on the fabric"
        )
    from ..fabric import FabricSupervisor, ResultJournal, ResultStore
    from ..fabric.jobs import Job

    results_path = Path(results_path)
    file_paths = [Path(p) for p in paths]
    if results_path.parent != Path(""):
        results_path.parent.mkdir(parents=True, exist_ok=True)
    # Everything that can change a result belongs in the identity config;
    # ``jobs`` (inner fault-sim parallelism) is excluded on purpose — the
    # parallel simulator is bit-identical to serial, so it must not split
    # the dedup space.
    config: Dict[str, object] = {
        "schema": "sweep-job/1",
        "n_patterns": int(n_patterns),
        "escape_budget": float(escape_budget),
        "budget": _budget_spec(budget),
        "solvers": list(solvers),
        "measure_coverage": bool(measure_coverage),
    }
    journal = ResultJournal(results_path)
    try:
        campaign: List[Job] = []
        by_path: Dict[str, str] = {}
        seen: Dict[str, Job] = {}
        fresh = 0
        for path in file_paths:
            content_key = _sweep_content_key(path)
            job = Job.build(
                "sweep_circuit",
                content_key,
                config,
                payload={
                    "path": str(path),
                    "n_patterns": int(n_patterns),
                    "escape_budget": float(escape_budget),
                    "budget": _budget_spec(budget),
                    "solvers": list(solvers),
                    "measure_coverage": bool(measure_coverage),
                    "jobs": int(jobs),
                },
                index=len(campaign),
            )
            by_path[str(path)] = job.job_id
            if job.job_id in seen:
                obs.count("sweep.deduped")
                continue
            if not journal.is_done(job.job_id):
                if max_circuits is not None and fresh >= max_circuits:
                    continue  # left for a later resume
                fresh += 1
            seen[job.job_id] = job
            campaign.append(job)
        supervisor = FabricSupervisor(
            journal,
            workers=workers,
            lease_timeout_s=lease_timeout_s,
            chaos=chaos,
            interrupt=interrupt,
            store=ResultStore(Path(store)) if store is not None else None,
            store_verify_fraction=store_verify_fraction,
        )
        results = supervisor.run(campaign)
        outcomes: List[SweepOutcome] = []
        for path in file_paths:
            job_id = by_path[str(path)]
            result = results.get(job_id)
            if result is not None:
                # Rehydrate the shared (deduped) result for this path.
                outcomes.append(
                    SweepOutcome(
                        **{
                            **result,
                            "circuit": path.stem,
                            "path": str(path),
                        }
                    )
                )
                continue
            record = journal.quarantined.get(job_id)
            if record is not None:
                errors = record.get("errors") or []
                last = errors[-1] if errors else {}
                outcomes.append(
                    SweepOutcome(
                        circuit=path.stem,
                        path=str(path),
                        status="quarantined",
                        error_type=last.get("type"),
                        error=last.get("message"),
                    )
                )
            # else: capped by max_circuits — not run yet.
        return outcomes
    finally:
        journal.close()


def experiment_runners() -> Dict[str, Callable[[], ExperimentResult]]:
    """Registry of the evaluation suite, keyed by experiment id."""
    return {
        "t1": lambda: run_t1_circuit_characteristics(),
        "t2": lambda: run_t2_dp_optimality(),
        "t3": lambda: run_t3_tree_solver_comparison(),
        "t4": lambda: run_t4_coverage_improvement()[0],
        "f1": lambda: run_f1_points_curve(),
        "f2": lambda: run_f2_runtime_scaling(),
        "f3": lambda: run_f3_testlength_curves(),
        "f4": lambda: run_f4_quantization_ablation(),
        "e1": lambda: run_e1_misr_aliasing(),
        "e2": lambda: run_e2_margin_ablation(),
        "e3": lambda: run_e3_strategy_comparison(),
        "e4": lambda: run_e4_multiphase(),
        "e5": lambda: run_e5_weighted_random(),
    }


def run_experiments_checkpointed(
    keys: Sequence[str],
    results_path: Union[str, Path],
    workers: int = 1,
    lease_timeout_s: float = 30.0,
    chaos=None,
    interrupt=None,
    store: Union[str, Path, None] = None,
    store_verify_fraction: float = 0.05,
) -> List[dict]:
    """Run experiments with per-experiment crash isolation and resume.

    Mirrors :func:`run_circuit_sweep` at experiment granularity: each
    experiment is one fabric job (leased workers, or in-process with
    ``workers <= 1``), its rendered table (or failure) is committed
    exactly once to the journal at ``results_path``, and a rerun serves
    already-committed experiments from it.  ``interrupt`` stops at the
    next experiment boundary by raising
    :class:`~repro.errors.SweepInterrupted`.  Records come back in
    ``keys`` order.
    """
    runners = experiment_runners()
    unknown = [k for k in keys if k not in runners]
    if unknown:
        raise ExperimentError(
            f"unknown experiments {unknown} (choose from {list(runners)})"
        )
    from ..fabric import FabricSupervisor, ResultJournal, ResultStore
    from ..fabric.jobs import Job

    results_path = Path(results_path)
    if results_path.parent != Path(""):
        results_path.parent.mkdir(parents=True, exist_ok=True)
    config: Dict[str, object] = {"schema": "experiment-job/1"}
    journal = ResultJournal(results_path)
    try:
        campaign: List[Job] = []
        by_key: Dict[str, str] = {}
        for key in keys:
            if key in by_key:
                continue
            job = Job.build(
                "experiment",
                f"experiment:{key}",
                config,
                payload={"experiment": key},
                index=len(campaign),
            )
            by_key[key] = job.job_id
            campaign.append(job)
        supervisor = FabricSupervisor(
            journal,
            workers=workers,
            lease_timeout_s=lease_timeout_s,
            chaos=chaos,
            interrupt=interrupt,
            store=ResultStore(Path(store)) if store is not None else None,
            store_verify_fraction=store_verify_fraction,
        )
        results = supervisor.run(campaign)
        records: List[dict] = []
        for key in keys:
            job_id = by_key[key]
            result = results.get(job_id)
            if result is not None:
                records.append(dict(result))
                continue
            record = journal.quarantined.get(job_id)
            errors = (record or {}).get("errors") or []
            last = errors[-1] if errors else {}
            records.append(
                {
                    "experiment": key,
                    "status": "quarantined",
                    "error_type": last.get("type"),
                    "error": last.get("message"),
                }
            )
        return records
    finally:
        journal.close()
