"""Independent certification of solver output.

A solver's :class:`~repro.core.problem.TPISolution` makes three claims —
a placement, a cost, and a feasibility verdict (for the DP on trees:
*optimality*).  :func:`certify_solution` re-derives each claim from
scratch, trusting nothing the solver computed:

* **placement validity** — at most one control point per wire
  (:func:`~repro.core.virtual.split_placement` is the arbiter);
* **cost** — recomputed as ``problem.costs.total(points)`` and compared
  against the claimed objective (exact arithmetic, 1e-9 slack for float
  summation order only);
* **DP precondition** — a solution claiming ``method="dp"`` is accepted
  as optimal only when the circuit actually is fanout-free
  (:func:`~repro.circuit.analysis.is_fanout_free`), because
  Krishnamurthy's optimality theorem holds in exactly that regime;
* **feasibility** — re-evaluated from scratch: DP claims are checked
  under the DP's own quantized algebra
  (:func:`~repro.core.dp.quantized_tree_check`, with the exact grid /
  margin / context the solve used when available), every other method
  under the continuous COP model via the *interpreted*
  :func:`~repro.core.virtual.evaluate_placement` — the certification
  deliberately avoids the numpy engine it might itself be guarding.

On any mismatch a repro bundle (circuit, problem, claimed solution,
re-derived verdicts) is written and :class:`DivergenceError` raised.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .. import obs
from ..core.problem import TPIProblem, TPISolution
from ..sim.faults import Fault
from .bundle import problem_to_payload, solution_to_payload, write_bundle
from .guard import DEFAULT_BUNDLE_DIR, Guard, active_guard

__all__ = ["Violation", "certify_solution", "find_violation", "maybe_certify"]

#: Slack for the cost comparison: covers float summation order, nothing
#: else — an off-by-one in any cost unit is 5 orders of magnitude larger.
COST_TOLERANCE = 1e-9


class Violation(NamedTuple):
    """The first claim of a solution that re-derivation rejects."""

    kind: str
    message: str
    expected: object
    actual: object


def find_violation(
    problem: TPIProblem,
    solution: TPISolution,
    *,
    faults: Optional[Sequence[Fault]] = None,
    dp_check: Optional[Callable[[Sequence], bool]] = None,
) -> Optional[Violation]:
    """The first of ``solution``'s claims that fails re-derivation.

    Runs the checks :func:`certify_solution` runs, in its order, and
    returns ``None`` when every claim holds.  Writes nothing and raises
    nothing: ``repro-tpi replay`` takes its verdict from here.
    ``faults`` and ``dp_check`` are as for :func:`certify_solution`.
    """
    # Lazy core imports: verify must stay importable from inside the
    # solvers without a cycle.
    from ..circuit.analysis import is_fanout_free
    from ..core.virtual import evaluate_placement, split_placement
    from ..sim.faults import testable_stuck_at_faults

    circuit = problem.circuit

    # 1. Placement validity: no wire carries two control points.
    try:
        split_placement(solution.points)
    except ValueError as exc:
        return Violation(
            "solver.placement",
            f"invalid placement from {solution.method!r}: {exc}",
            expected="at most one control point per wire",
            actual=str(exc),
        )

    # 2. Cost: the claimed objective must equal the cost model's answer.
    if solution.cost != float("inf"):
        recomputed = problem.costs.total(solution.points)
        if abs(recomputed - solution.cost) > COST_TOLERANCE:
            return Violation(
                "solver.cost",
                f"{solution.method!r} claims cost {solution.cost:g} but the "
                f"placement re-prices to {recomputed:g}",
                expected=recomputed,
                actual=solution.cost,
            )

    # 3. "Optimal" from the DP requires the fanout-free precondition.
    if solution.method == "dp" and not is_fanout_free(circuit):
        return Violation(
            "solver.dp_precondition",
            "method='dp' (exact/optimal) claimed on a circuit with fanout; "
            "the optimality theorem only covers fanout-free circuits",
            expected="fanout-free circuit",
            actual="circuit has fanout stems",
        )

    # 4. Feasibility, re-derived from scratch.
    if solution.feasible:
        if solution.method == "dp":
            if dp_check is not None:
                ok = bool(dp_check(solution.points))
            else:
                from ..core.dp import quantized_tree_check

                ok = quantized_tree_check(problem, solution.points)
            arbiter = "quantized_tree_check"
        else:
            if faults is None:
                faults = testable_stuck_at_faults(circuit)
            evaluation = evaluate_placement(
                problem, solution.points, kernel="interp"
            )
            ok = evaluation.is_feasible(faults)
            arbiter = "evaluate_placement[interp]"
        if not ok:
            return Violation(
                "solver.feasible",
                f"{solution.method!r} claims a feasible placement but "
                f"{arbiter} rejects it",
                expected={"feasible": True},
                actual={"feasible": False, "arbiter": arbiter},
            )
    return None


def certify_solution(
    problem: TPIProblem,
    solution: TPISolution,
    *,
    guard: Optional[Guard] = None,
    faults: Optional[Sequence[Fault]] = None,
    dp_check: Optional[Callable[[Sequence], bool]] = None,
    dp_context: Optional[dict] = None,
) -> TPISolution:
    """Certify ``solution`` against ``problem`` from scratch.

    Parameters
    ----------
    guard:
        Used for its bundle directory and counters; certification is
        never sampled (``None`` falls back to the ambient guard, then to
        default bundle settings).
    faults:
        Fault list the solver's feasibility claim refers to.  Defaults
        to the circuit's *testable* stuck-at list — what every built-in
        solver plans against.
    dp_check:
        Custom quantized-feasibility arbiter for ``method="dp"``
        solutions (``points -> bool``).  :func:`~repro.core.dp.solve_tree`
        passes one capturing its exact grid/margin/context; the default
        re-checks with the DP's default parameters.
    dp_context:
        JSON-safe description of ``dp_check``'s parameters (grid values,
        margin, ...) recorded in the repro bundle so ``repro-tpi replay``
        can rebuild the same arbiter.

    Returns the (unmodified) solution on success so call sites can wrap
    returns; raises :class:`~repro.errors.DivergenceError`, after writing
    the repro bundle, on the first :func:`find_violation`.
    """
    guard = active_guard(guard)
    obs.count("guard.certifications")
    violation = find_violation(
        problem, solution, faults=faults, dp_check=dp_check
    )
    if violation is None:
        return solution
    kind = violation.kind
    obs.count("guard.divergences")
    if guard is not None:
        guard.divergences += 1
    context = {} if dp_context is None else {"dp": dp_context}
    context["problem"] = problem_to_payload(problem)
    context["solution"] = solution_to_payload(solution)
    from ..errors import DivergenceError

    bundle_path: Optional[str] = None
    try:
        bundle_path = str(
            write_bundle(
                kind,
                circuit=problem.circuit,
                context=context,
                expected=violation.expected,
                actual=violation.actual,
                message=violation.message,
                bundle_dir=(
                    guard.bundle_dir if guard is not None
                    else DEFAULT_BUNDLE_DIR
                ),
            )
        )
    except Exception as exc:
        obs.event(
            "guard.bundle_write_failed",
            kind=kind,
            error=type(exc).__name__,
            detail=str(exc)[:200],
        )
    obs.event("guard.divergence", kind=kind, bundle=bundle_path)
    raise DivergenceError(kind, violation.message, bundle_path)


def maybe_certify(
    problem: TPIProblem,
    solution: TPISolution,
    *,
    faults: Optional[Sequence[Fault]] = None,
    dp_check: Optional[Callable[[Sequence], bool]] = None,
    dp_context: Optional[dict] = None,
) -> TPISolution:
    """Certify under the ambient guard, or pass through when none is active.

    This is the hook the solver entry points call: zero cost outside a
    :class:`~repro.verify.guard.GuardedSession` (or when the session was
    created with ``certify=False``).
    """
    guard = active_guard(None)
    if guard is None or not guard.certify:
        return solution
    return certify_solution(
        problem,
        solution,
        guard=guard,
        faults=faults,
        dp_check=dp_check,
        dp_context=dp_context,
    )
