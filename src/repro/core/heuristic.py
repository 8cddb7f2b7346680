"""DP-based heuristic for general (reconvergent) circuits.

The paper's tractable core — the exact tree DP — is lifted to arbitrary
circuits by iterating over fanout-free regions:

1. evaluate the current placement analytically and collect failing faults;
2. for every region owning a failing fault, re-plan that region from
   scratch with the tree DP against its current environment (leaf
   probabilities, root observability);
3. repeat until no fault fails, nothing changes, or the round budget is
   exhausted;
4. optionally let the greedy solver mop up leftovers the quantized
   regional view could not fix (orphan PI stems, cross-region conflicts).

The result is not globally optimal — the general problem is NP-complete —
but inherits the DP's within-region optimality, which is where most of the
structure lives (experiment T4 quantifies the margin over pure greedy).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.analysis import fanout_free_regions
from ..resilience import Budget
from ..sim.faults import Fault, testable_stuck_at_faults
from .dp import solve_tree
from .greedy import solve_greedy
from .incremental import IncrementalEvaluator
from .problem import TestPoint, TPIProblem, TPISolution
from .quantize import ProbabilityGrid
from .regions import (
    extract_region_subproblem,
    fault_region_owner,
    owner_of_fault,
)

__all__ = ["solve_dp_heuristic"]

_Wire = Tuple[str, Optional[Tuple[str, int]]]


def _merge_points(
    existing: Sequence[TestPoint], new: Sequence[TestPoint]
) -> List[TestPoint]:
    """Append ``new`` onto ``existing``, dropping wire-level conflicts.

    A wire keeps its first control point; duplicate observation points
    collapse.  Needed because two regions can share a boundary wire (a
    fanout-1 root feeding the next region).
    """
    merged = list(existing)
    controlled: Set[_Wire] = {
        (p.node, p.branch) for p in existing if p.kind.is_control
    }
    present: Set[TestPoint] = set(existing)
    for p in new:
        if p in present:
            continue
        wire = (p.node, p.branch)
        if p.kind.is_control:
            if wire in controlled:
                continue
            controlled.add(wire)
        present.add(p)
        merged.append(p)
    return merged


def solve_dp_heuristic(
    problem: TPIProblem,
    grid: Optional[ProbabilityGrid] = None,
    faults: Optional[Sequence[Fault]] = None,
    max_rounds: int = 8,
    final_greedy: bool = True,
    margin: float = 1.5,
    budget: Optional[Budget] = None,
) -> TPISolution:
    """Iterative DP-on-regions TPI for circuits with reconvergent fanout.

    Parameters
    ----------
    problem:
        The instance; any combinational circuit with ≤2-input gates.
    grid:
        Quantization grid shared by all regional DPs.
    faults:
        Faults to satisfy (default: the full stuck-at list).
    max_rounds:
        Maximum re-planning sweeps over the regions.
    final_greedy:
        Run the greedy mop-up stage on whatever the regional DPs left
        failing (recommended; off for ablations).
    margin:
        Planning margin forwarded to the regional DPs (``θ × margin``),
        covering quantization slack and cross-region coupling.
    budget:
        Optional cooperative budget, checked at every round and region
        boundary and forwarded into the regional DPs and the greedy
        mop-up, so one shared limit bounds the whole heuristic.
    """
    circuit = problem.circuit
    if faults is None:
        faults = testable_stuck_at_faults(circuit)
    grid = grid or ProbabilityGrid.for_threshold(
        min(problem.threshold * margin, 1.0)
    )
    regions = fanout_free_regions(circuit)
    owner = fault_region_owner(circuit, regions)

    points: List[TestPoint] = []
    points_by_region: Dict[int, List[TestPoint]] = {}
    rounds = 0
    dp_calls = 0
    # One incremental evaluator serves the whole solve: the per-round
    # global evaluation rebases it, and each region's environment
    # evaluation (current points minus that region's own) is a small
    # removal delta against the rebased cache.
    inc = IncrementalEvaluator(problem, points, faults=faults)

    for _ in range(max_rounds):
        rounds += 1
        if budget is not None:
            budget.tick("heuristic.round")
        evaluation = inc.rebase(points)
        failing = inc.failing_faults()
        if not failing:
            break
        targets = sorted(
            {
                ridx
                for ridx in (owner_of_fault(f, owner) for f in failing)
                if ridx is not None
            }
        )
        if not targets:
            break
        progress = False
        for ridx in targets:
            if budget is not None:
                budget.tick("heuristic.region")
            old = set(points_by_region.get(ridx, ()))
            base = [p for p in points if p not in old]
            base_eval = inc.evaluate(base)
            sub = extract_region_subproblem(
                problem, regions[ridx], base_eval, budget=budget
            )
            sub_problem = TPIProblem(
                circuit=sub.circuit,
                threshold=problem.threshold,
                costs=problem.costs,
                allowed_types=problem.allowed_types,
                input_probabilities=sub.leaf_probabilities,
            )
            dp_calls += 1
            solution = solve_tree(
                sub_problem,
                grid=grid,
                root_observabilities={sub.region.root: sub.root_observability},
                leaf_probabilities=sub.leaf_probabilities,
                enforced_faults=sub.enforced,
                margin=margin,
                budget=budget,
            )
            if not solution.feasible:
                continue
            mapped = [sub.map_point(p) for p in solution.points]
            if set(mapped) != old:
                progress = True
            points = _merge_points(base, mapped)
            points_by_region[ridx] = mapped
        if not progress:
            break

    evaluation = inc.evaluate(points)
    feasible = evaluation.is_feasible(faults)
    mop_up_points = 0
    if not feasible and final_greedy:
        greedy = solve_greedy(
            problem, faults=faults, initial_points=points, budget=budget
        )
        mop_up_points = len(greedy.points) - len(points)
        points = greedy.points
        feasible = greedy.feasible

    return TPISolution(
        points=points,
        cost=problem.costs.total(points),
        feasible=feasible,
        method="dp-heuristic",
        stats={
            "rounds": float(rounds),
            "regions": float(len(regions)),
            "dp_calls": float(dp_calls),
            "mop_up_points": float(mop_up_points),
        },
    )
