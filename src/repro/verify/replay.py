"""Deterministic re-execution of repro bundles (``repro-tpi replay``).

Every divergence bundle carries its complete replay inputs — the circuit
``.bench``, the fast backend's name, seeds, pattern configs, and both
recorded results.  :func:`replay_bundle` re-runs the recorded comparison
from those inputs on the current engine and reports whether the
divergence reproduces.

Each replayable kind has exactly one comparison in :data:`COMPARISONS`,
a function ``(circuit, context) -> (fast, slow, detail)``.  The
differential fuzzer (:mod:`repro.analysis.fuzz`) calls the same
function on the context it is about to bundle, and both decide with
:func:`diverged`, so a fuzz bundle means to ``replay`` exactly what it
meant to the fuzzer.  Replay writes nothing: ``solver.*`` bundles take
their verdict from :func:`~repro.verify.certify.find_violation`, not
from the certification's bundle-writing failure path.

Exit-code contract of the CLI command: ``0`` when the divergence
reproduces (the bundle is a confirmed, actionable failure), ``1`` when
it does not (stale bundle / environment-dependent flake), ``2`` for an
unreadable or unsupported bundle — including every bundle of the removed
``compiled`` backend, whose recorded kernel sources no longer have an
engine to run on, the per-output ``diffs`` bundles of the removed
numpy cone walk, the ``cop.measures`` / ``fuzz.cop`` bundles of the
removed numpy COP sweeps and the ``fuzz.logic_sim`` bundles of the
removed numpy logic pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..circuit.netlist import Circuit
from ..core.dp import quantized_tree_check, solve_tree
from ..core.exhaustive import solve_exhaustive
from ..core.incremental import IncrementalEvaluator
from ..core.problem import TestPointType
from ..core.virtual import WIRE_MAPS, evaluate_placement
from ..resilience import Budget
from ..sim import npsim
from ..sim.compile import DEFAULT_KERNEL
from ..sim.fault_sim import FaultSimulator
from ..sim.faults import collapse_faults
from ..sim.logic_sim import LogicSimulator
from ..sim.parallel import run_parallel
from .bundle import (
    fault_from_payload,
    jsonable,
    load_bundle,
    point_from_payload,
    problem_from_payload,
    solution_from_payload,
)
from .certify import COST_TOLERANCE, find_violation

__all__ = ["COMPARISONS", "ReplayResult", "diverged", "replay_bundle"]


@dataclass
class ReplayResult:
    """Outcome of replaying one bundle."""

    kind: str
    reproduced: bool
    detail: str
    bundle: str

    def describe(self) -> str:
        verdict = "REPRODUCED" if self.reproduced else "not reproduced"
        return f"{self.kind}: {verdict} — {self.detail} ({self.bundle})"


def diverged(fast, slow) -> bool:
    """Whether a comparison's two sides differ: neither equal as values
    nor in their canonical bundle encoding
    (:func:`~repro.verify.bundle.jsonable`)."""
    return fast != slow and jsonable(fast) != jsonable(slow)


def _words(context, key) -> dict:
    return {name: int(word) for name, word in context[key].items()}


def _fast_kernel(context) -> str:
    """Backend the fast path ran on when the bundle was written.

    Divergences replay on the current engine of that backend, so only
    engine bugs (not transient state) reproduce.
    """
    return context.get("kernel") or DEFAULT_KERNEL


def _detection_words(result) -> dict:
    return {f.describe(): w for f, w in result.detection_word.items()}


#: Bundle kinds that compared a removed fast engine with the interpreted
#: one, mapped to that engine.  Each of them now has one engine left.
_REMOVED_KINDS = {
    "cop.measures": "numpy COP sweeps",
    "fuzz.cop": "numpy COP sweeps",
    "fuzz.logic_sim": "numpy logic pass",
}


def _refuse_removed_paths(manifest) -> None:
    """Reject bundles of removed fast paths.

    A ``compiled``-backend bundle recorded a generated kernel's source,
    a ``diffs`` bundle recorded the per-output words of the numpy cone
    walk, and a :data:`_REMOVED_KINDS` bundle compared a removed numpy
    engine with the interpreted one; none of those engines exists any
    more, so replaying them would print a misleading "not reproduced".
    """
    engine = _REMOVED_KINDS.get(manifest.get("kind"))
    if engine is not None:
        raise ValueError(
            f"bundle was written by the {engine}, now removed; with one "
            "engine left there is nothing to compare"
        )
    context = manifest.get("context") or {}
    if manifest.get("sources") or context.get("kernel") == "compiled":
        raise ValueError(
            "bundle was written by the compiled backend, which was "
            "removed; its divergence cannot be replayed (rerun the "
            "producing workload on the numpy backend instead)"
        )
    if context.get("variant") == "diffs":
        raise ValueError(
            "bundle was written by the numpy per-fault cone walk, which "
            "was removed; its per-output divergence cannot be replayed "
            "(rerun the producing workload instead)"
        )


# ---------------------------------------------------------------------------
# Comparisons: one per replayable kind, ``(circuit, context) -> (fast,
# slow, detail)``.  The fuzzer calls these too.
# ---------------------------------------------------------------------------


def _compare_fault_cone(circuit: Circuit, context) -> tuple:
    """``fault_sim.cone``: one guard-sampled fault of a numpy block, its
    region-factored word vs the per-fault walk."""
    fault = fault_from_payload(context["fault"])
    n_patterns = int(context["n_patterns"])
    kernel = _fast_kernel(context)
    # Re-derive the good machine from the recorded input words, as the
    # recorded run did.
    recorded = _words(context, "good_values")
    good_values = LogicSimulator(circuit).run(
        {pi: recorded[pi] for pi in circuit.inputs}, n_patterns
    )
    # The recorded block may have batched its root machines, whatever
    # the batch rule says about a one-fault list on this (often
    # minimized) circuit.
    with npsim.forced():
        fast = FaultSimulator(circuit, kernel=kernel).run(
            {}, n_patterns, faults=[fault], good_values=good_values
        ).detection_word[fault]
    slow = FaultSimulator(circuit, kernel="interp").simulate_fault(
        fault, good_values, n_patterns
    )
    return fast, slow, f"fault {fault} over {n_patterns} patterns"


def _compare_fault_list(circuit: Circuit, context) -> tuple:
    """``fuzz.fault_sim``: every collapsed fault, region-factored with
    its root machines batched vs the per-fault walk."""
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    # One batch of the whole list, whatever the batch rule says about a
    # fuzz-sized list: a bug may need several machines in one cube.
    with npsim.forced():
        fast = FaultSimulator(circuit, kernel=_fast_kernel(context)).run(
            stimulus, n_patterns
        )
    slow = FaultSimulator(circuit, kernel="interp").run(stimulus, n_patterns)
    return (
        _detection_words(fast),
        _detection_words(slow),
        f"region-factored fault list over {n_patterns} patterns vs the "
        "interpreted walk",
    )


def _compare_batch_seams(circuit: Circuit, context) -> tuple:
    """``fuzz.batch_seams``: the region-factored fault list with its root
    machines run through :func:`~repro.sim.npsim.propagate_batch` under
    ``chunk_bytes`` as its memory budget, vs the interpreted walk over
    the same good machine, for every collapsed fault."""
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    chunk_bytes = int(context["chunk_bytes"])
    faults = collapse_faults(circuit).representatives
    good = LogicSimulator(circuit).run(stimulus, n_patterns)
    plan = npsim.get_plan(circuit)
    state = npsim.PackedState(plan, good, n_patterns)

    def batch(roots):
        detect, _evals = npsim.propagate_batch(
            state, [plan.row[root] for root in roots], chunk_bytes=chunk_bytes
        )
        return npsim.rows_to_words(detect)

    words = FaultSimulator(circuit, kernel="numpy")._factored_words(
        faults, good, n_patterns, batch
    )
    arbiter = FaultSimulator(circuit, kernel="interp")
    names = [f.describe() for f in faults]
    fast = dict(zip(names, words))
    slow = {
        name: arbiter.simulate_fault(f, good, n_patterns)
        for name, f in zip(names, faults)
    }
    return fast, slow, (
        f"root machines batched in {chunk_bytes}-byte chunks over "
        f"{n_patterns} patterns vs the interpreted walk"
    )


def _compare_coverage(circuit: Circuit, context) -> tuple:
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    block = int(context.get("block", 64))
    sim = FaultSimulator(circuit, kernel=_fast_kernel(context))
    exact = sim.run(stimulus, n_patterns)
    dropped = sim.run_coverage(stimulus, n_patterns, block=block)

    def summary(res):
        return {
            "coverage": res.coverage(),
            "first_detect": {
                f.describe(): i for f, i in res.first_detect.items()
            },
        }

    return (
        summary(dropped),
        summary(exact),
        f"fault dropping (block={block}) vs the exact run",
    )


def _compare_placement(circuit: Circuit, context) -> tuple:
    problem = problem_from_payload(circuit, context["problem"])
    points = [point_from_payload(p) for p in context["points"]]
    fast, slow = (
        evaluate_placement(problem, points, kernel=kernel).wire_maps()
        for kernel in (_fast_kernel(context), "interp")
    )
    return fast, slow, (
        f"placement pass of {len(points)} point(s) vs the interpreter"
    )


def _compare_incremental(circuit: Circuit, context) -> tuple:
    """``incremental.evaluate`` / ``fuzz.incremental``: ``evaluate()``
    over a base vs a from-scratch interpreted pass."""
    problem = problem_from_payload(circuit, context["problem"])
    base_points = [point_from_payload(p) for p in context["base_points"]]
    points = [point_from_payload(p) for p in context["points"]]
    # Forced, so a delta runs on PlacementBatch on a circuit (often a
    # minimized one) that the dispatch rule would walk.
    with npsim.forced():
        inc = IncrementalEvaluator(
            problem, base_points, kernel=_fast_kernel(context)
        )
        fast = inc.evaluate(points).wire_maps()
    slow = evaluate_placement(problem, points, kernel="interp").wire_maps()
    detail = (
        f"incremental delta over base of {len(base_points)} point(s) "
        f"-> {len(points)} point(s) vs a from-scratch pass"
    )
    return fast, slow, detail


def _site_state(payload) -> tuple:
    kind, observed = payload
    return (TestPointType[kind] if kind else None, bool(observed))


def _compare_incremental_delta(circuit: Circuit, context) -> tuple:
    problem = problem_from_payload(circuit, context["problem"])
    base_points = [point_from_payload(p) for p in context["base_points"]]
    stem_diff = {
        site: _site_state(state) for site, state in context["stem_diff"].items()
    }
    branch_diff = {
        ast.literal_eval(key): _site_state(state)
        for key, state in context["branch_diff"].items()
    }
    # The recorded delta ran on the vectorized engine, whatever the
    # dispatch rule says about this (often minimized) circuit; the rule
    # runs per call, so the delta itself must run forced.
    with npsim.forced():
        inc = IncrementalEvaluator(
            problem, base_points, kernel=_fast_kernel(context)
        )
        fast = dict(zip(WIRE_MAPS, inc._delta(stem_diff, branch_diff)))
    slow = dict(zip(WIRE_MAPS, inc._delta_interp(stem_diff, branch_diff)))
    detail = (
        f"vectorized delta of {len(stem_diff) + len(branch_diff)} site(s) "
        f"over base of {len(base_points)} point(s) vs the walk"
    )
    return fast, slow, detail


def _compare_incremental_gains(circuit: Circuit, context) -> tuple:
    """``incremental.gains``: batched candidate gains vs the walk, for
    the candidate at ``index`` or, when it is ``None``, for every one.
    Without ``faults`` the evaluator scores its default fault list."""
    problem = problem_from_payload(circuit, context["problem"])
    base_points = [point_from_payload(p) for p in context["base_points"]]
    faults = context.get("faults")
    if faults is not None:
        faults = [fault_from_payload(f) for f in faults]
    candidates = [point_from_payload(p) for p in context["candidates"]]
    index = context["index"]
    picked = range(len(candidates)) if index is None else [int(index)]
    with npsim.forced():
        inc = IncrementalEvaluator(
            problem, base_points, faults=faults, kernel=_fast_kernel(context)
        )
        gains = inc.candidate_gains(candidates)
    fast = [gains[i] for i in picked]
    slow = [inc._walk_gain(candidates[i]) for i in picked]
    detail = (
        f"batched gains of {len(picked)} of {len(candidates)} candidate(s) "
        f"over base of {len(base_points)} point(s) vs the walk"
    )
    return fast, slow, detail


def _compare_dp_vs_exhaustive(
    circuit: Circuit, context, budget: Optional[Budget] = None
) -> tuple:
    """``fuzz.dp_vs_exhaustive``: the DP's optimum vs exhaustive search
    under the quantized objective.

    :func:`~repro.core.dp.solve_tree` raises
    :class:`~repro.errors.SolverError` on a circuit with fanout, and
    ``budget`` (the fuzzer's wall-clock slice for the oracle) raises
    :class:`~repro.errors.BudgetExceededError`.
    """
    problem = problem_from_payload(circuit, context["problem"])
    cap = int(context.get("max_subset_size", 4))
    dp = solve_tree(problem)
    if dp.feasible and len(dp.points) > cap:
        return None, None, (
            f"DP optimum of {len(dp.points)} points lies beyond the "
            f"exhaustive oracle's cap of {cap}"
        )
    exhaustive = solve_exhaustive(
        problem,
        feasibility=lambda pts: quantized_tree_check(problem, pts),
        max_subset_size=cap,
        budget=budget,
    )

    def claim(solution) -> dict:
        return {
            "feasible": solution.feasible,
            "cost": solution.cost if solution.feasible else None,
        }

    fast, slow = claim(dp), claim(exhaustive)
    if (
        dp.feasible and exhaustive.feasible
        and abs(dp.cost - exhaustive.cost) <= COST_TOLERANCE
    ):
        slow["cost"] = dp.cost  # float summation order only
    return fast, slow, "DP vs exhaustive under the quantized objective"


def _compare_parallel(circuit: Circuit, context) -> tuple:
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    jobs = int(context.get("jobs", 2))
    mode = context.get("mode", "exact")
    kernel = _fast_kernel(context)
    parallel = run_parallel(
        circuit, stimulus, n_patterns, jobs=jobs, mode=mode, kernel=kernel
    )
    serial = FaultSimulator(circuit, kernel=kernel).run(
        stimulus, n_patterns
    )
    return (
        _detection_words(parallel),
        _detection_words(serial),
        f"parallel jobs={jobs} vs serial",
    )


#: kind → its comparison.  ``solver.*`` kinds are not here: they replay
#: through :func:`~repro.verify.certify.find_violation`.
COMPARISONS: Dict[str, Callable[..., Tuple[object, object, str]]] = {
    "fault_sim.cone": _compare_fault_cone,
    "fuzz.fault_sim": _compare_fault_list,
    "fuzz.coverage": _compare_coverage,
    "fuzz.batch_seams": _compare_batch_seams,
    "fuzz.tiled_batch": _compare_batch_seams,
    "fuzz.placement": _compare_placement,
    "incremental.evaluate": _compare_incremental,
    "fuzz.incremental": _compare_incremental,
    "incremental.delta": _compare_incremental_delta,
    "incremental.gains": _compare_incremental_gains,
    "fuzz.dp_vs_exhaustive": _compare_dp_vs_exhaustive,
    "fuzz.parallel": _compare_parallel,
}


def _replay_solver(kind: str, circuit: Circuit, context) -> Tuple[bool, str]:
    """Re-certify a recorded solver solution: ``(reproduced, detail)``."""
    problem = problem_from_payload(circuit, context["problem"])
    solution = solution_from_payload(context["solution"])
    dp_check = None
    dp_context = context.get("dp")
    if dp_context is not None:
        from ..core.quantize import ProbabilityGrid

        grid_values = dp_context.get("grid_values")
        grid = (
            ProbabilityGrid(values=grid_values)
            if grid_values is not None
            else None
        )
        enforced = {
            name: tuple(flags)
            for name, flags in (dp_context.get("enforced_faults") or {}).items()
        }

        def dp_check(points):
            return quantized_tree_check(
                problem,
                points,
                grid=grid,
                root_observabilities=dp_context.get("root_observabilities"),
                leaf_probabilities=dp_context.get("leaf_probabilities"),
                enforced_faults=enforced or None,
                margin=dp_context.get("margin", 1.0),
            )

    violation = find_violation(problem, solution, dp_check=dp_check)
    if violation is None:
        return False, "re-certification accepted the recorded solution"
    return violation.kind == kind, (
        f"re-certification found {violation.kind}: {violation.message}"
    )


def replay_bundle(path: Union[str, Path]) -> ReplayResult:
    """Re-run the comparison recorded in the bundle at ``path``."""
    manifest, circuit = load_bundle(path)
    _refuse_removed_paths(manifest)
    kind = manifest["kind"]
    compare = COMPARISONS.get(kind)
    if compare is None and not kind.startswith("solver."):
        raise ValueError(f"no replayer for bundle kind {kind!r}")
    context = manifest["context"]
    if compare is None:
        reproduced, detail = _replay_solver(kind, circuit, context)
    else:
        fast, slow, detail = compare(circuit, context)
        reproduced = diverged(fast, slow)
    return ReplayResult(
        kind=kind, reproduced=reproduced, detail=detail, bundle=str(path)
    )
