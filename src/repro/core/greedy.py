"""Greedy testability-driven test point insertion (the classic baseline).

This is the approach the dynamic program was positioned against: repeatedly
evaluate the circuit's COP profile, propose candidate points near the
failing faults, score each candidate by how many failing faults it fixes
per unit cost, and commit the best one.  It is fast and usually good — and
measurably suboptimal on trees where the DP is exact (experiment T3).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..resilience import Budget
from ..sim.faults import Fault, testable_stuck_at_faults
from .incremental import IncrementalEvaluator
from .problem import TestPoint, TestPointType, TPIProblem, TPISolution
from .virtual import VirtualEvaluation, evaluate_placement

__all__ = ["solve_greedy"]


def _fault_site_point(fault: Fault) -> Tuple[str, Optional[Tuple[str, int]]]:
    """The (node, branch) wire a fault lives on."""
    return fault.node, fault.branch


def _candidate_points(
    problem: TPIProblem,
    evaluation: VirtualEvaluation,
    failing: Sequence[Fault],
    placed: Sequence[TestPoint],
    limit: int,
) -> List[TestPoint]:
    """Propose candidate placements targeted at the failing faults.

    Observation points are proposed directly on failing wires (they fix
    propagation); control points are proposed on the most probability-skewed
    nodes inside the fan-in cones of failing sites (they fix excitation and
    side-input sensitization).
    """
    circuit = problem.circuit
    placed_ops: Set[Tuple[str, Optional[Tuple[str, int]]]] = {
        (p.node, p.branch)
        for p in placed
        if p.kind is TestPointType.OBSERVATION
    }
    placed_cps: Set[Tuple[str, Optional[Tuple[str, int]]]] = {
        (p.node, p.branch) for p in placed if p.kind.is_control
    }

    candidates: List[TestPoint] = []
    seen: Set[TestPoint] = set()

    def propose(tp: TestPoint) -> None:
        if tp in seen:
            return
        if tp.kind is TestPointType.OBSERVATION:
            if (tp.node, tp.branch) in placed_ops:
                return
        elif (tp.node, tp.branch) in placed_cps:
            return  # one control point per wire
        seen.add(tp)
        candidates.append(tp)

    # Observation points on the failing wires themselves.
    if problem.observation_allowed:
        for fault in failing:
            node, branch = _fault_site_point(fault)
            propose(TestPoint(node, TestPointType.OBSERVATION, branch=branch))

    # Control points on skewed nodes in the failing fan-in cones.  A single
    # multi-source traversal — per-fault cones overlap heavily, so walking
    # them one by one is quadratic on wide circuits with many failures.
    cone: Set[str] = set(circuit.fanin_cone_union(f.node for f in failing))
    for fault in failing:
        if fault.branch is not None:
            cone.add(fault.branch[0])
    skewed = sorted(
        cone,
        key=lambda n: (-abs(evaluation.stem_post.get(n, 0.5) - 0.5), n),
    )
    control_types = problem.control_types()
    for name in skewed[: max(limit // max(len(control_types), 1), 8)]:
        for kind in control_types:
            propose(TestPoint(name, kind))

    return candidates[: limit * 2]


def solve_greedy(
    problem: TPIProblem,
    faults: Optional[Sequence[Fault]] = None,
    candidate_limit: int = 64,
    max_iterations: int = 200,
    initial_points: Optional[Sequence[TestPoint]] = None,
    budget: Optional[Budget] = None,
    use_incremental: bool = True,
    kernel: Optional[str] = None,
) -> TPISolution:
    """Greedy TPI: commit the best benefit-per-cost candidate each round.

    Parameters
    ----------
    problem:
        The TPI instance (general circuits welcome).
    faults:
        Faults to satisfy (default: the circuit's full stuck-at list).
    candidate_limit:
        Cap on candidates scored per iteration.
    max_iterations:
        Hard stop on the number of committed points.
    initial_points:
        Placement to start from (used as the mop-up stage of the DP
        heuristic); its cost is included in the result.
    budget:
        Optional cooperative budget; the wall clock is checked per
        committed point and per candidate evaluation.
    use_incremental:
        Score candidates with the :class:`IncrementalEvaluator` dirty-cone
        fast path (default).  ``False`` falls back to from-scratch
        ``evaluate_placement`` per candidate — same answers (the
        equivalence tests assert identical solutions), only slower; kept
        as the ground-truth reference for tests and benchmarks.
    kernel:
        Evaluation kernel for the COP passes (``"numpy"`` or
        ``"interp"``); default is the process-wide
        :data:`~repro.sim.compile.DEFAULT_KERNEL`.  With ``"numpy"``
        the incremental evaluator scores each round's candidates in
        column-batched level sweeps
        (:class:`~repro.sim.npsim.PlacementBatch`) where its dispatch
        rule expects them to beat the interpreted walk.
    """
    if faults is None:
        faults = testable_stuck_at_faults(problem.circuit)
    points: List[TestPoint] = list(initial_points or [])
    iterations = 0
    evaluations = 0
    feasible = False
    inc = (
        IncrementalEvaluator(problem, points, faults=faults, kernel=kernel)
        if use_incremental
        else None
    )

    tick = (
        None
        if budget is None
        else functools.partial(budget.tick, "greedy.candidate")
    )
    heartbeat = obs.Heartbeat("greedy.solve")
    for _ in range(max_iterations):
        iterations += 1
        if budget is not None:
            budget.tick("greedy.iteration")
        heartbeat.beat(
            iterations=iterations,
            points=len(points),
            evaluations=evaluations,
        )
        if inc is not None:
            evaluation = inc.base
            failing = inc.failing_faults()
        else:
            evaluation = evaluate_placement(problem, points, kernel=kernel)
            failing = evaluation.failing_faults(faults)
        if not failing:
            feasible = True
            break
        if problem.max_points is not None and len(points) >= problem.max_points:
            break
        candidates = _candidate_points(
            problem, evaluation, failing, points, candidate_limit
        )
        if inc is not None:
            gains: Iterable[int] = inc.candidate_gains(candidates, tick=tick)
        else:
            gains = (
                len(failing)
                - len(
                    evaluate_placement(
                        problem, points + [cand], kernel=kernel
                    ).failing_faults(faults)
                )
                for cand in candidates
            )
        best: Optional[TestPoint] = None
        best_score = 0.0
        best_key: Tuple = ()
        for cand, fixed in zip(candidates, gains):
            evaluations += 1
            if budget is not None:
                budget.tick("greedy.candidate")
            heartbeat.beat(
                iterations=iterations,
                points=len(points),
                evaluations=evaluations,
            )
            if fixed <= 0:
                continue
            score = fixed / problem.costs.of(cand.kind)
            key = (score, -problem.costs.of(cand.kind), cand.sort_key())
            if best is None or key > best_key:
                best, best_score, best_key = cand, score, key
        if best is None:
            break  # no candidate helps: give up (infeasible for greedy)
        points.append(best)
        if inc is not None:
            inc.rebase(points)
    else:
        evaluation = (
            inc.base
            if inc is not None
            else evaluate_placement(problem, points, kernel=kernel)
        )
        feasible = evaluation.is_feasible(faults)

    stats = {
        "iterations": float(iterations),
        "evaluations": float(evaluations),
    }
    if inc is not None:
        stats["incremental_nodes"] = float(inc.stats["nodes_recomputed"])
        stats["incremental_deltas"] = float(inc.stats["deltas"])
    return TPISolution(
        points=points,
        cost=problem.costs.total(points),
        feasible=feasible,
        method="greedy",
        stats=stats,
    )
