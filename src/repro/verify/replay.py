"""Deterministic re-execution of repro bundles (``repro-tpi replay``).

Every divergence bundle carries its complete replay inputs — the circuit
``.bench``, the fast backend's name, seeds, pattern configs, and both
recorded results.  :func:`replay_bundle` re-runs the recorded comparison
from those inputs on the current engine and reports whether the
divergence reproduces.

Exit-code contract of the CLI command: ``0`` when the divergence
reproduces (the bundle is a confirmed, actionable failure), ``1`` when
it does not (stale bundle / environment-dependent flake), ``2`` for an
unreadable or unsupported bundle — including every bundle of the removed
``compiled`` backend, whose recorded kernel sources no longer have an
engine to run on, and the per-output ``diffs`` bundles of the removed
numpy cone walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from ..core.incremental import PATCH_FIELDS, IncrementalEvaluator
from ..core.problem import TestPointType
from ..core.virtual import evaluate_placement
from ..sim.compile import DEFAULT_KERNEL
from ..sim.fault_sim import FaultSimulator
from ..sim.logic_sim import LogicSimulator
from ..sim.npsim import forced
from ..testability.cop import cop_measures
from .bundle import (
    fault_from_payload,
    jsonable,
    load_bundle,
    point_from_payload,
    problem_from_payload,
    solution_from_payload,
)
from .certify import certify_solution

__all__ = ["ReplayResult", "replay_bundle"]


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


def _words(context, key) -> dict:
    return {name: int(word) for name, word in context[key].items()}


def _fast_kernel(context) -> str:
    """Backend the fast path ran on when the bundle was written.

    Divergences replay on the current engine of that backend, so only
    engine bugs (not transient state) reproduce.
    """
    return context.get("kernel") or DEFAULT_KERNEL


def _refuse_removed_paths(manifest) -> None:
    """Reject bundles of removed fast paths.

    A ``compiled``-backend bundle recorded a generated kernel's source,
    and a ``diffs`` bundle recorded the per-output words of the numpy
    cone walk; neither engine exists any more, so replaying them would
    print a misleading "not reproduced".
    """
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


def _replay_fault_sim(manifest, circuit) -> tuple:
    context = manifest["context"]
    fault = fault_from_payload(context["fault"])
    n_patterns = int(context["n_patterns"])
    kernel = _fast_kernel(context)
    # Re-derive the good machine from the recorded input words on the fast
    # backend, as the recorded run did: a good-machine engine bug then
    # reproduces while present and goes stale once fixed, instead of
    # replaying its corrupt words forever.
    recorded = _words(context, "good_values")
    good_values = LogicSimulator(circuit, kernel=kernel).run(
        {pi: recorded[pi] for pi in circuit.inputs}, n_patterns
    )
    # The recorded word came from the batched sweep, whatever the batch
    # rule says about a one-fault list on this (often minimized) circuit.
    with forced():
        fast = FaultSimulator(circuit, kernel=kernel).run(
            {}, n_patterns, faults=[fault], good_values=good_values
        ).detection_word[fault]
    slow = FaultSimulator(circuit, kernel="interp").simulate_fault(
        fault, good_values, n_patterns
    )
    return fast, slow, f"fault {fault} over {n_patterns} patterns"


def _replay_batch_seams(manifest, circuit) -> tuple:
    from ..analysis.fuzz import batch_seam_words

    context = manifest["context"]
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    chunk_bytes = int(context["chunk_bytes"])
    fast, slow = batch_seam_words(circuit, stimulus, n_patterns, chunk_bytes)
    return fast, slow, (
        f"batched sweep in {chunk_bytes}-byte chunks over "
        f"{n_patterns} patterns"
    )


def _replay_logic_sim(manifest, circuit) -> tuple:
    context = manifest["context"]
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    fast = LogicSimulator(circuit, kernel=_fast_kernel(context)).run(
        stimulus, n_patterns
    )
    slow = LogicSimulator(circuit, kernel="interp").run(stimulus, n_patterns)
    return dict(fast), dict(slow), f"logic sim over {n_patterns} patterns"


def _replay_coverage(manifest, circuit) -> tuple:
    context = manifest["context"]
    stimulus = _words(context, "stimulus")
    n_patterns = int(context["n_patterns"])
    block = int(context.get("block", 64))
    sim = FaultSimulator(circuit, kernel=_fast_kernel(context))
    exact = sim.run(stimulus, n_patterns)
    dropped = sim.run_coverage(stimulus, n_patterns, block=block)

    def summary(res):
        return {
            "coverage": res.coverage(),
            "first_detect": {str(f): i for f, i in res.first_detect.items()},
        }

    return (
        summary(dropped),
        summary(exact),
        f"fault dropping (block={block}) vs exact run",
    )


def _replay_cop(manifest, circuit) -> tuple:
    context = manifest["context"]
    input_probabilities = context.get("input_probabilities") or None
    stem_combine = context.get("stem_combine", "or")

    def result_payload(res):
        return {
            "probability": res.probability,
            "observability": res.observability,
            "branch_observability": res.branch_observability,
        }

    fast = result_payload(
        cop_measures(
            circuit, input_probabilities, stem_combine=stem_combine,
            kernel=_fast_kernel(context),
        )
    )
    slow = result_payload(
        cop_measures(
            circuit, input_probabilities, stem_combine=stem_combine,
            kernel="interp",
        )
    )
    return fast, slow, f"COP measures (stem_combine={stem_combine})"


def _evaluation_payload(evaluation) -> dict:
    return {
        "stem_pre": evaluation.stem_pre,
        "stem_post": evaluation.stem_post,
        "wire_obs": evaluation.wire_obs,
        "branch_pre": evaluation.branch_pre,
        "branch_post": evaluation.branch_post,
        "branch_obs": evaluation.branch_obs,
        "stem_post_obs": evaluation.stem_post_obs,
    }


def _replay_placement(manifest, circuit) -> tuple:
    context = manifest["context"]
    problem = problem_from_payload(circuit, context["problem"])
    points = [point_from_payload(p) for p in context["points"]]
    fast = _evaluation_payload(
        evaluate_placement(problem, points, kernel=_fast_kernel(context))
    )
    slow = _evaluation_payload(
        evaluate_placement(problem, points, kernel="interp")
    )
    return fast, slow, f"virtual placement of {len(points)} point(s)"


def _replay_incremental(manifest, circuit) -> tuple:
    context = manifest["context"]
    problem = problem_from_payload(circuit, context["problem"])
    base_points = [point_from_payload(p) for p in context["base_points"]]
    points = [point_from_payload(p) for p in context["points"]]
    inc = IncrementalEvaluator(
        problem, base_points, kernel=_fast_kernel(context)
    )
    fast = _evaluation_payload(inc.evaluate(points))
    slow = _evaluation_payload(
        evaluate_placement(problem, points, kernel="interp")
    )
    detail = (
        f"incremental delta over base of {len(base_points)} point(s) "
        f"-> {len(points)} point(s)"
    )
    return fast, slow, detail


def _site_state(payload) -> tuple:
    kind, observed = payload
    return (TestPointType[kind] if kind else None, bool(observed))


def _replay_incremental_delta(manifest, circuit) -> tuple:
    context = manifest["context"]
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
    with forced():
        inc = IncrementalEvaluator(
            problem, base_points, kernel=_fast_kernel(context)
        )
        fast = dict(zip(PATCH_FIELDS, inc._delta(stem_diff, branch_diff)))
    slow = dict(zip(PATCH_FIELDS, inc._delta_interp(stem_diff, branch_diff)))
    detail = (
        f"vectorized delta of {len(stem_diff) + len(branch_diff)} site(s) "
        f"over base of {len(base_points)} point(s)"
    )
    return fast, slow, detail


def _replay_incremental_gains(manifest, circuit) -> tuple:
    context = manifest["context"]
    problem = problem_from_payload(circuit, context["problem"])
    base_points = [point_from_payload(p) for p in context["base_points"]]
    faults = [fault_from_payload(f) for f in context["faults"]]
    candidates = [point_from_payload(p) for p in context["candidates"]]
    index = int(context["index"])
    with forced():
        inc = IncrementalEvaluator(
            problem, base_points, faults=faults, kernel=_fast_kernel(context)
        )
        fast = inc.candidate_gains(candidates)[index]
    slow = inc._walk_gain(candidates[index])
    detail = (
        f"batched gain of candidate {index} of {len(candidates)} over base "
        f"of {len(base_points)} point(s)"
    )
    return fast, slow, detail


def _replay_solver(manifest, circuit) -> ReplayResult:
    from ..errors import DivergenceError

    context = manifest["context"]
    problem = problem_from_payload(circuit, context["problem"])
    solution = solution_from_payload(context["solution"])
    dp_check = None
    dp_context = context.get("dp")
    if dp_context is not None:
        from ..core.dp import quantized_tree_check
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

    try:
        certify_solution(problem, solution, dp_check=dp_check)
    except DivergenceError as exc:
        return ReplayResult(
            kind=manifest["kind"],
            reproduced=exc.kind == manifest["kind"],
            detail=f"re-certification raised {exc.kind}: {exc._raw_message()}",
            bundle="",
        )
    return ReplayResult(
        kind=manifest["kind"],
        reproduced=False,
        detail="re-certification accepted the recorded solution",
        bundle="",
    )


def _replay_dp_vs_exhaustive(manifest, circuit) -> tuple:
    from ..core.dp import quantized_tree_check, solve_tree
    from ..core.exhaustive import solve_exhaustive

    context = manifest["context"]
    problem = problem_from_payload(circuit, context["problem"])
    dp = solve_tree(problem)
    exhaustive = solve_exhaustive(
        problem,
        feasibility=lambda pts: quantized_tree_check(problem, pts),
        max_subset_size=int(context.get("max_subset_size", 4)),
    )
    fast = {"cost": dp.cost, "feasible": dp.feasible}
    slow = {"cost": exhaustive.cost, "feasible": exhaustive.feasible}
    return fast, slow, "DP vs exhaustive under the quantized objective"


def _replay_parallel(manifest, circuit) -> tuple:
    from ..sim.parallel import run_parallel

    context = manifest["context"]
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
    fast = {str(f): w for f, w in parallel.detection_word.items()}
    slow = {str(f): w for f, w in serial.detection_word.items()}
    return fast, slow, f"parallel jobs={jobs} vs serial"


#: kind (or "prefix.") → replayer.  Two-result replayers return
#: ``(fast, slow, detail)``; ``solver.`` handles its own verdict.
_REPLAYERS = {
    "fault_sim.cone": _replay_fault_sim,
    "fuzz.fault_sim": _replay_fault_sim,
    "fuzz.logic_sim": _replay_logic_sim,
    "fuzz.coverage": _replay_coverage,
    "fuzz.batch_seams": _replay_batch_seams,
    "fuzz.tiled_batch": _replay_batch_seams,
    "cop.measures": _replay_cop,
    "fuzz.cop": _replay_cop,
    "fuzz.placement": _replay_placement,
    "incremental.evaluate": _replay_incremental,
    "fuzz.incremental": _replay_incremental,
    "incremental.delta": _replay_incremental_delta,
    "incremental.gains": _replay_incremental_gains,
    "fuzz.dp_vs_exhaustive": _replay_dp_vs_exhaustive,
    "fuzz.parallel": _replay_parallel,
}


def replay_bundle(path: Union[str, Path]) -> ReplayResult:
    """Re-run the comparison recorded in the bundle at ``path``."""
    manifest, circuit = load_bundle(path)
    kind = manifest["kind"]
    replayer = _REPLAYERS.get(kind)
    if replayer is None and not kind.startswith("solver."):
        raise ValueError(f"no replayer for bundle kind {kind!r}")
    _refuse_removed_paths(manifest)
    if replayer is None:
        result = _replay_solver(manifest, circuit)
        result.bundle = str(path)
        return result
    fast, slow, detail = replayer(manifest, circuit)
    return ReplayResult(
        kind=kind,
        reproduced=jsonable(fast) != jsonable(slow),
        detail=detail,
        bundle=str(path),
    )
