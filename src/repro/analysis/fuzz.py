"""Differential fuzzing of the simulation and solver stack (``repro-tpi fuzz``).

The numpy engine, the incremental evaluator, and the parallel fan-out
all exist to be *faster* than the interpreted reference while computing
the *same* answer.  The shadow guards (:mod:`repro.verify`) check that
equivalence opportunistically on production inputs; this module attacks
it deliberately: a time-budgeted loop draws seeded random circuits from
:mod:`repro.circuit.generators` and cross-checks every fast path against
its arbiter —

* numpy fault simulation of the whole fault list (region-factored, its
  root machines forced onto one batched sweep) vs the interpreter's
  per-fault walk;
* fault dropping (:meth:`run_coverage`) vs the exact run it must match;
* the numpy placement pass vs the interpreted pass;
* :class:`IncrementalEvaluator` deltas vs a from-scratch full pass, and
  its batched candidate gains vs the interpreted walk, both forced onto
  the vectorized engine;
* the batched root-machine sweep forced across chunk seams;
* the DP's claimed optimum vs exhaustive search under the quantized
  objective, on small fanout-free instances (the paper's exactness
  regime);
* the parallel fan-out vs a serial run;
* with ``store=True``, a sweep result round-tripped through the result
  store vs recomputation.

Every lane but the store's only draws its inputs and records them as a
bundle context: the comparison itself is the one ``repro-tpi replay``
runs (:data:`repro.verify.replay.COMPARISONS`), so fuzzer and replay
cannot disagree about what a bundle means.

A divergence is minimized with :func:`shrink_circuit` — greedy structural
reduction (drop to one output's cone, collapse gates to buffers, cut
fan-ins to fresh primary inputs) that keeps only reductions preserving
the failure — and then persisted as a replayable repro bundle
(``repro-tpi replay <dir>``).  Everything is derived from ``seed``, so a
failing fuzz run replays exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.generators import random_dag, random_tree
from ..circuit.netlist import Circuit
from ..core.problem import TestPoint, TPIProblem
from ..errors import BudgetExceededError, SolverError
from ..resilience import Budget
from ..sim import npsim
from ..sim.bitops import word_count
from ..sim.patterns import UniformRandomSource
from ..verify.bundle import point_to_payload, problem_to_payload, write_bundle
from ..verify.replay import COMPARISONS, diverged

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz", "shrink_circuit"]

#: Exhaustive-search subset cap for the DP-vs-exhaustive oracle.
_DP_MAX_SUBSET = 4
#: Gate-count ceiling for instances handed to the exhaustive oracle.
_DP_MAX_GATES = 8
#: Run the parallel fan-out cross-check on every Nth trial (it forks a
#: process pool, which dwarfs every other check).
_PARALLEL_EVERY = 8


@dataclass
class _Divergence:
    """One observed fast-vs-arbiter mismatch, ready to bundle."""

    kind: str
    context: dict
    expected: object
    actual: object
    message: str


@dataclass
class FuzzFailure:
    """A confirmed, minimized, bundled divergence."""

    kind: str
    message: str
    bundle: str
    trial: int
    gates_found: int
    gates_shrunk: int

    def describe(self) -> str:
        return (
            f"{self.kind} (trial {self.trial}): shrunk "
            f"{self.gates_found} -> {self.gates_shrunk} gates — "
            f"{self.message} [{self.bundle}]"
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    seed: int
    budget_ms: float
    elapsed_ms: float = 0.0
    trials: int = 0
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "clean" if self.clean else f"{len(self.failures)} FAILURE(S)"
        lines = [
            f"fuzz seed={self.seed}: {self.trials} trials, "
            f"{self.checks} checks in {self.elapsed_ms:.0f} ms — {verdict}"
        ]
        lines.extend("  " + f.describe() for f in self.failures)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Differential lanes.  Each draws its inputs from the circuit plus
# trial-local seeds, records them as the bundle context, and hands them to
# that kind's comparison in repro.verify.replay: None (agreement) or a
# ready-to-bundle _Divergence.
# ---------------------------------------------------------------------------


def _diverges(
    kind: str, circuit: Circuit, context: dict, **options
) -> Optional[_Divergence]:
    """Run ``kind``'s replay comparison on the context it would bundle.

    Contexts are built from the bundle payload codecs, so the comparison
    reads what ``replay`` will read back.
    """
    fast, slow, detail = COMPARISONS[kind](circuit, context, **options)
    if not diverged(fast, slow):
        return None
    return _Divergence(
        kind=kind,
        context=context,
        expected=slow,
        actual=fast,
        message=f"{detail}: results differ",
    )


def _stimulus_context(
    circuit: Circuit, seed: int, n_patterns: int, **extra
) -> dict:
    return {
        "stimulus": UniformRandomSource(seed).generate(
            circuit.inputs, n_patterns
        ),
        "n_patterns": n_patterns,
        "kernel": "numpy",
        **extra,
    }


def _check_fault_sim(
    circuit: Circuit, seed: int, n_patterns: int
) -> Optional[_Divergence]:
    return _diverges(
        "fuzz.fault_sim", circuit, _stimulus_context(circuit, seed, n_patterns)
    )


def _check_coverage(
    circuit: Circuit, seed: int, n_patterns: int
) -> Optional[_Divergence]:
    return _diverges(
        "fuzz.coverage",
        circuit,
        _stimulus_context(circuit, seed, n_patterns, block=16),
    )


def _random_points(
    problem: TPIProblem, rng: random.Random, n: int
) -> List[TestPoint]:
    sites = [g.name for g in problem.circuit.gates]
    if not sites:
        return []
    points = []
    for _ in range(n):
        points.append(
            TestPoint(
                node=rng.choice(sites),
                kind=rng.choice(list(problem.allowed_types)),
            )
        )
    # One control point per site at most; keep the first.
    seen = set()
    unique = []
    for tp in points:
        key = (tp.node, tp.kind.is_control)
        if key in seen:
            continue
        seen.add(key)
        unique.append(tp)
    return unique


def _check_placement(circuit: Circuit, seed: int) -> Optional[_Divergence]:
    rng = random.Random(f"fuzz-place:{seed}")
    problem = TPIProblem.from_test_length(circuit, n_patterns=64)
    points = _random_points(problem, rng, rng.randint(0, 3))
    context = {
        "problem": problem_to_payload(problem),
        "points": [point_to_payload(p) for p in points],
        "kernel": "numpy",
    }
    return _diverges("fuzz.placement", circuit, context)


def _check_incremental(circuit: Circuit, seed: int) -> Optional[_Divergence]:
    """An ``evaluate()`` delta, then a round of candidate gains, over one
    random base; both comparisons force the vectorized engine, which
    fuzz-sized circuits are too narrow for."""
    rng = random.Random(f"fuzz-inc:{seed}")
    problem = TPIProblem.from_test_length(circuit, n_patterns=64)
    points = _random_points(problem, rng, rng.randint(1, 3))
    base = points[: rng.randint(0, len(points))]
    context = {
        "problem": problem_to_payload(problem),
        "base_points": [point_to_payload(p) for p in base],
        "kernel": "numpy",
    }
    divergence = _diverges(
        "fuzz.incremental",
        circuit,
        {**context, "points": [point_to_payload(p) for p in points]},
    )
    if divergence is not None:
        return divergence
    controlled = {(p.node, p.branch) for p in base if p.kind.is_control}
    kinds = list(problem.allowed_types)
    candidates = []
    for name in rng.sample(list(circuit.node_names), min(8, len(circuit.node_names))):
        sinks = circuit.fanouts(name)
        branch = rng.choice(sinks) if sinks and rng.random() < 0.5 else None
        kind = rng.choice(kinds)
        if not (kind.is_control and (name, branch) in controlled):
            candidates.append(TestPoint(name, kind, branch=branch))
    return _diverges(
        "incremental.gains",
        circuit,
        {
            **context,
            "candidates": [point_to_payload(c) for c in candidates],
            "index": None,
        },
    )


def _check_dp_vs_exhaustive(
    circuit: Circuit, seed: int, budget_ms: float = 10_000.0
) -> Optional[_Divergence]:
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=32, escape_budget=0.05
    )
    context = {
        "problem": problem_to_payload(problem),
        "max_subset_size": _DP_MAX_SUBSET,
    }
    try:
        # The subset search is combinatorial in the candidate count: an
        # unlucky instance can cost more than a whole fuzz campaign, so
        # the oracle gets a slice of wall clock and an over-budget trial
        # is skipped rather than blowing the deadline.
        return _diverges(
            "fuzz.dp_vs_exhaustive",
            circuit,
            context,
            budget=Budget(wall_ms=budget_ms),
        )
    except SolverError:
        return None  # not fanout-free (shrink surgery can introduce stems)
    except BudgetExceededError:
        obs.count("fuzz.dp_oracle_skipped")
        return None


#: Root machines per chunk in the chunk-seam lane: small enough that
#: most fuzz circuits' live roots span several chunks.
_SEAM_MACHINES = 3


def _check_batch_seams(
    circuit: Circuit, seed: int, n_patterns: int
) -> Optional[_Divergence]:
    """The batched root machines split into many chunks, against the walk.

    A tiny memory budget makes ``propagate_batch`` run a few root
    machines per chunk, so every chunk seam — row-sorted chunk order,
    unchanged-prefix copies, re-pinned flips, the shared cube buffer —
    is crossed on circuits the default budget runs as one chunk.
    """
    plan = npsim.get_plan(circuit)
    chunk_bytes = _SEAM_MACHINES * (
        8 * (plan.n_rows + npsim.batch_staging_rows(plan))
        * word_count(n_patterns)
    )
    return _diverges(
        "fuzz.batch_seams",
        circuit,
        _stimulus_context(circuit, seed, n_patterns, chunk_bytes=chunk_bytes),
    )


def _check_parallel(
    circuit: Circuit, seed: int, n_patterns: int
) -> Optional[_Divergence]:
    return _diverges(
        "fuzz.parallel",
        circuit,
        _stimulus_context(circuit, seed, n_patterns, jobs=2, mode="exact"),
    )


# ---------------------------------------------------------------------------
# Greedy circuit shrinking.
# ---------------------------------------------------------------------------


def _rebuild(
    circuit: Circuit,
    replace: Optional[Dict[str, Tuple]] = None,
    outputs: Optional[Sequence[str]] = None,
) -> Circuit:
    """Copy ``circuit`` applying gate surgeries, then garbage-collect.

    ``replace`` maps a gate name to ``("input",)`` (sever its cone: the
    gate becomes a fresh primary input) or ``("buf", driver)`` (collapse
    it to a buffer of one existing fan-in).  Nodes left outside every
    output's fan-in cone are dropped.
    """
    replace = replace or {}
    wanted = list(outputs if outputs is not None else circuit.outputs)
    staged = Circuit(name=circuit.name)
    for name in circuit.topological_order():
        node = circuit.node(name)
        action = replace.get(name)
        if node.is_input or (action is not None and action[0] == "input"):
            staged.add_input(name)
        elif action is not None and action[0] == "buf":
            from ..circuit.gates import GateType

            staged.add_gate(name, GateType.BUF, [action[1]])
        else:
            staged.add_gate(name, node.gate_type, list(node.fanins))
    keep = staged.fanin_cone_union(wanted)
    final = Circuit(name=circuit.name)
    for name in staged.topological_order():
        if name not in keep:
            continue
        node = staged.node(name)
        if node.is_input:
            final.add_input(name)
        else:
            final.add_gate(name, node.gate_type, list(node.fanins))
    for out in wanted:
        final.mark_output(out)
    return final


def _metric(circuit: Circuit) -> Tuple[int, int, int]:
    edges = sum(len(g.fanins) for g in circuit.gates)
    return (circuit.gate_count(), edges, len(circuit))


def _usable(circuit: Circuit) -> bool:
    if circuit.gate_count() < 1 or not circuit.inputs or not circuit.outputs:
        return False
    try:
        circuit.validate()
    except Exception:
        return False
    return True


def _candidates(circuit: Circuit):
    if len(circuit.outputs) > 1:
        for out in circuit.outputs:
            yield _rebuild(circuit, outputs=[out])
    for gate in circuit.gates:
        yield _rebuild(circuit, replace={gate.name: ("input",)})
        if gate.fanins and not (
            len(gate.fanins) == 1 and gate.gate_type.name == "BUF"
        ):
            yield _rebuild(circuit, replace={gate.name: ("buf", gate.fanins[0])})


def shrink_circuit(
    circuit: Circuit,
    still_fails: Callable[[Circuit], bool],
    max_probes: int = 400,
) -> Circuit:
    """Greedily minimize ``circuit`` while ``still_fails`` stays true.

    Reductions tried each round: restrict to a single output's fan-in
    cone, sever a gate into a fresh primary input, collapse a gate to a
    buffer of its first fan-in.  The first strictly-smaller candidate
    that still fails is adopted; rounds repeat to a fixpoint (or until
    ``max_probes`` failure-predicate evaluations are spent).
    """
    best = circuit
    probes = 0
    seen = {best.structural_hash()}
    improved = True
    while improved and probes < max_probes:
        improved = False
        for cand in _candidates(best):
            if probes >= max_probes:
                break
            if not _usable(cand) or _metric(cand) >= _metric(best):
                continue
            h = cand.structural_hash()
            if h in seen:
                continue
            seen.add(h)
            probes += 1
            if still_fails(cand):
                best = cand
                improved = True
                break
    return best


def _check_store(
    circuit: Circuit, seed: int, n_patterns: int
) -> Optional[_Divergence]:
    """Cached-vs-recomputed equality through the result store.

    Runs the real sweep executor on the circuit, publishes the result to
    a throwaway :class:`~repro.fabric.store.ResultStore`, reads it back
    through the full integrity envelope, recomputes, and requires all
    three (fresh, cached, recomputed) to be JSON-bit-identical.  Attacks
    both store round-tripping (digest over exactly what a reader
    re-parses) and executor determinism (a nondeterministic executor
    would poison any cache built on it).
    """
    import json
    import tempfile
    from pathlib import Path

    from ..circuit import write_bench_file
    from ..fabric.jobs import Job
    from ..fabric.store import ResultStore
    from .experiments import _sweep_content_key, execute_sweep_job

    def normal(result: dict) -> dict:
        return json.loads(json.dumps(result))

    with tempfile.TemporaryDirectory(prefix="fuzz-store-") as tmp:
        bench = Path(tmp) / "circuit.bench"
        write_bench_file(circuit, bench)
        config = {
            "schema": "sweep-job/1",
            "n_patterns": int(n_patterns),
            "escape_budget": 0.05,
            "budget": None,
            "solvers": ["greedy"],
            "measure_coverage": True,
        }
        payload = {
            **{k: v for k, v in config.items() if k != "schema"},
            "path": str(bench),
            "jobs": 1,
        }
        job = Job.build(
            "sweep_circuit", _sweep_content_key(bench), config, payload
        )
        context = {
            "job_id": job.job_id,
            "content_key": job.content_key,
            "n_patterns": n_patterns,
        }
        first = normal(execute_sweep_job(dict(payload)))
        store = ResultStore(Path(tmp) / "store")
        store.put(job, first)
        record = store.get(job.job_id)
        if record is None:
            return _Divergence(
                kind="fuzz.store",
                context=context,
                expected=first,
                actual=None,
                message=(
                    "store rejected (quarantined) the entry it just "
                    "published"
                ),
            )
        cached = record.get("result")
        second = normal(execute_sweep_job(dict(payload)))
        if first == cached == second:
            return None
        return _Divergence(
            kind="fuzz.store",
            context={
                **context,
                "expected_from": "execute_sweep_job (fresh)",
                "actual_from": "store round-trip + re-execution",
            },
            expected=first,
            actual={"cached": cached, "recomputed": second},
            message=(
                "cached sweep result is not bit-identical to "
                "recomputation"
            ),
        )


# ---------------------------------------------------------------------------
# The campaign loop.
# ---------------------------------------------------------------------------


def _build_circuit(trial: int, seed: int, max_gates: int) -> Circuit:
    rng = random.Random(f"fuzz:{seed}:{trial}")
    sub_seed = rng.randrange(2**31)
    if trial % 2 == 0:
        return random_tree(rng.randint(1, max(1, max_gates // 2)), seed=sub_seed)
    return random_dag(
        n_inputs=rng.randint(2, 6),
        n_gates=rng.randint(1, max_gates),
        seed=sub_seed,
    )


def run_fuzz(
    budget_ms: float,
    seed: int = 0,
    bundle_dir: str = "repro_bundles",
    max_gates: int = 40,
    n_patterns: int = 64,
    max_failures: int = 1,
    shrink: bool = True,
    store: bool = False,
) -> FuzzReport:
    """Run a time-budgeted differential fuzzing campaign.

    Stops at the first ``max_failures`` confirmed divergences (each is
    shrunk and written as a repro bundle under ``bundle_dir``) or when
    ``budget_ms`` of wall clock is spent, whichever comes first.  Fully
    deterministic for a given ``seed`` (modulo the budget cutting the
    trial sequence short at a machine-dependent point — but any failure
    found is reproducible from its bundle regardless).

    Every simulation lane attacks the numpy backend against the
    interpreted arbiter, and repro bundles record the backend name in
    their context.

    ``store=True`` adds the result-store lane: each circuit's sweep
    result is published to a throwaway content-addressed store, read
    back through the integrity envelope, and required to be
    bit-identical to a fresh recomputation.
    """
    report = FuzzReport(seed=seed, budget_ms=budget_ms)
    start = time.monotonic()
    deadline = start + budget_ms / 1000.0

    try:
        trial = 0
        with obs.span("fuzz.campaign", seed=seed, budget_ms=budget_ms):
            while (
                time.monotonic() < deadline
                and len(report.failures) < max_failures
            ):
                circuit = _build_circuit(trial, seed, max_gates)
                stim_seed = trial * 7919 + seed
                checks: List[Callable[[Circuit], Optional[_Divergence]]] = [
                    lambda c: _check_fault_sim(c, stim_seed, n_patterns),
                    lambda c: _check_coverage(c, stim_seed, n_patterns),
                    lambda c: _check_placement(c, stim_seed),
                    lambda c: _check_incremental(c, stim_seed),
                    lambda c: _check_batch_seams(c, stim_seed, n_patterns),
                ]
                if store:
                    checks.append(
                        lambda c: _check_store(c, stim_seed, n_patterns)
                    )
                if trial % 2 == 0 and circuit.gate_count() <= _DP_MAX_GATES:
                    checks.append(
                        lambda c: _check_dp_vs_exhaustive(
                            c,
                            stim_seed,
                            # Never hand the oracle more clock than the
                            # campaign has left.
                            budget_ms=min(
                                10_000.0,
                                max(
                                    100.0,
                                    (deadline - time.monotonic()) * 1000.0,
                                ),
                            ),
                        )
                    )
                if (
                    trial % _PARALLEL_EVERY == _PARALLEL_EVERY - 1
                    and deadline - time.monotonic() > 5.0
                ):
                    # Pool spawn costs seconds; skip it when the budget is
                    # nearly spent so the campaign lands near its deadline.
                    checks.append(
                        lambda c: _check_parallel(c, stim_seed, n_patterns)
                    )
                report.trials += 1
                obs.count("fuzz.trials")
                for check in checks:
                    if time.monotonic() >= deadline:
                        break
                    divergence = check(circuit)
                    report.checks += 1
                    obs.count("fuzz.checks")
                    if divergence is None:
                        continue
                    gates_found = circuit.gate_count()
                    minimized = circuit
                    if shrink:
                        minimized = shrink_circuit(
                            circuit, lambda c: check(c) is not None
                        )
                        final = check(minimized)
                        if final is None:  # pragma: no cover - paranoia
                            final, minimized = divergence, circuit
                        divergence = final
                    path = write_bundle(
                        divergence.kind,
                        circuit=minimized,
                        context=divergence.context,
                        expected=divergence.expected,
                        actual=divergence.actual,
                        message=divergence.message,
                        bundle_dir=bundle_dir,
                    )
                    failure = FuzzFailure(
                        kind=divergence.kind,
                        message=divergence.message,
                        bundle=str(path),
                        trial=trial,
                        gates_found=gates_found,
                        gates_shrunk=minimized.gate_count(),
                    )
                    report.failures.append(failure)
                    obs.count("fuzz.failures")
                    obs.event(
                        "fuzz.divergence",
                        kind=divergence.kind,
                        trial=trial,
                        bundle=str(path),
                        gates_found=gates_found,
                        gates_shrunk=minimized.gate_count(),
                    )
                    break
                trial += 1
    finally:
        report.elapsed_ms = (time.monotonic() - start) * 1000.0
    return report
