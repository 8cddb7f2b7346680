"""Microbenchmarks for the two hot paths, emitting ``BENCH_PERF.json``.

Three families, mirroring the performance layer:

* **Incremental placement evaluation** — ``solve_greedy`` with the
  dirty-cone :class:`~repro.core.incremental.IncrementalEvaluator` versus
  the from-scratch ``evaluate_placement`` loop, on the T3 fanout-free
  tree workload and on the ``rprmix_big`` benchmark circuit.  Both modes
  must return identical solutions — the speedup is pure bookkeeping.
* **Fault simulation** — serial exact simulation and coverage-only
  fault dropping, each on the default kernel and on the interpreted
  arbiter, and the process-parallel fan-out (``--jobs``) quoted against
  the faster serial mode, on a post-TPI rprmix_big-class circuit where
  every fault is detectable (the regime sweeps live in).  All five
  report identical coverage and first-detect indices.
* **Word-parallel numpy backend** — the batched full-circuit fault sweep
  (``kernel="numpy"``) versus the interpreted gate walk on a gray-code
  decoder, the adversarial workload for event-driven scalar simulation
  (XOR chains never skip); plus the shadow-guard overhead on that
  backend at its production sampling fraction.  Two solver-loop
  companions gate the batch where the solver actually spends time: a
  wide-budget dropping coverage run (numpy against the interpreter)
  and a greedy solve driven by the batched candidate
  scorer against the interpreted dirty-cone walk, plus ungated greedy
  solves on two deep AND/OR chains, one on each side of the scorer's
  dispatch rule, where numpy loses.

Every bench records the kernel it ran under its ``kernel`` key, which
keys its history entries.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py \
        [--quick] [--jobs N] [--out FILE] [--history FILE] \
        [--min-t3-speedup X] [--min-greedy-speedup X] [--min-sim-speedup X] \
        [--min-numpy-sim-speedup X] [--min-numpy-wide-speedup X] \
        [--min-numpy-incremental-speedup X] [--max-guard-overhead-pct X]

``--history`` additionally appends one schema-versioned record per
benchmark to the JSONL history consumed by ``repro-tpi bench-compare``
(see :mod:`repro.obs.history`).

``--quick`` shrinks the workloads to CI-smoke size (tens of seconds).
Each ``--min-*-speedup`` guard makes the run exit 1 when the measured
speedup falls below ``X`` — the CI perf-smoke job guards the T3
incremental speedup at 2x.  Results land in ``BENCH_PERF.json`` next to
this file unless ``--out`` says otherwise, including the ``gate_evals``
and ``fault_sim.dropped`` observability counters recorded during the
fault-simulation benchmarks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import obs  # noqa: E402
from repro.obs import history as perf_history  # noqa: E402
from repro.circuit.generators import (  # noqa: E402
    and_or_chain,
    gray_to_binary,
    random_dag,
    random_tree,
    rpr_mixed,
)
from repro.circuit.library import benchmark  # noqa: E402
from repro.core import (  # noqa: E402
    TPIProblem,
    apply_test_points,
    prepare_for_tpi,
    solve_greedy,
)
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.sim import (  # noqa: E402
    DEFAULT_KERNEL,
    FaultSimulator,
    run_parallel,
    testable_stuck_at_faults,
)
from repro.sim import npsim  # noqa: E402
from repro.sim.patterns import UniformRandomSource  # noqa: E402
from repro.verify import GuardedSession  # noqa: E402

T3_TREE_SPECS = [(20, 0), (20, 1), (40, 2), (40, 3), (60, 4), (80, 5)]

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_PERF.json"


def _best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _solution_key(solution) -> Tuple:
    return (
        tuple(sorted((p.node, p.kind.value, p.branch) for p in solution.points)),
        solution.cost,
        solution.feasible,
    )


# ---------------------------------------------------------------------------
# Incremental placement evaluation
# ---------------------------------------------------------------------------


def _t3_planning_problems() -> List[TPIProblem]:
    problems = []
    for gates, seed in T3_TREE_SPECS:
        circuit = random_tree(gates, seed=seed)
        base = TPIProblem.from_test_length(
            circuit, n_patterns=4096, escape_budget=0.001
        )
        problems.append(
            TPIProblem(
                circuit=circuit,
                threshold=min(base.threshold * 2.0, 1.0),
                costs=base.costs,
                allowed_types=base.allowed_types,
                input_probabilities=base.input_probabilities,
            )
        )
    return problems


def bench_incremental_t3(repeats: int) -> Dict[str, object]:
    """Greedy over the T3 tree workload, incremental vs from-scratch.

    Both sides are pinned to the interpreted COP kernel so the measured
    ratio isolates the incremental *algorithm* (dirty-cone deltas vs full
    passes); the numpy engine's win is gated separately by the numpy
    benches below.
    """
    problems = _t3_planning_problems()

    def run(use_incremental: bool) -> List[Tuple]:
        return [
            _solution_key(
                solve_greedy(
                    p, use_incremental=use_incremental, kernel="interp"
                )
            )
            for p in problems
        ]

    t_scratch, ref = _best_of(repeats, lambda: run(False))
    t_inc, got = _best_of(repeats, lambda: run(True))
    assert got == ref, "incremental greedy diverged from from-scratch on T3"
    return {
        "workload": f"T3 trees {T3_TREE_SPECS}, greedy candidate loop",
        "kernel": "interp",
        "seconds_from_scratch": round(t_scratch, 4),
        "seconds_incremental": round(t_inc, 4),
        "speedup": round(t_scratch / t_inc, 2),
        "solves_per_sec_incremental": round(len(problems) / t_inc, 2),
        "identical_solutions": True,
    }


def bench_incremental_greedy(repeats: int, quick: bool) -> Dict[str, object]:
    """Greedy on a single resistant benchmark circuit."""
    name = "rprmix" if quick else "rprmix_big"
    circuit = prepare_for_tpi(benchmark(name))
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=4096, escape_budget=0.001
    )

    t_scratch, ref = _best_of(
        repeats, lambda: _solution_key(solve_greedy(problem, use_incremental=False))
    )
    t_inc, got = _best_of(
        repeats, lambda: _solution_key(solve_greedy(problem, use_incremental=True))
    )
    assert got == ref, f"incremental greedy diverged from from-scratch on {name}"
    return {
        "workload": f"{name}, greedy candidate loop",
        "kernel": DEFAULT_KERNEL,
        "seconds_from_scratch": round(t_scratch, 4),
        "seconds_incremental": round(t_inc, 4),
        "speedup": round(t_scratch / t_inc, 2),
        "identical_solutions": True,
    }


# ---------------------------------------------------------------------------
# Fault simulation: dropping + process parallelism
# ---------------------------------------------------------------------------


def _post_tpi_workload(quick: bool) -> Tuple[object, Dict[str, int], int]:
    """A post-TPI rprmix_big-class circuit with (near-)full coverage.

    Points are planned at the simulation test length, so the inserted
    netlist is exactly the artifact a sweep would fault-simulate.
    """
    if quick:
        base = prepare_for_tpi(benchmark("rprmix_big"))
        n_patterns = 65536
    else:
        base = prepare_for_tpi(
            rpr_mixed(cone_width=12, corridor_length=8, n_blocks=24)
        )
        n_patterns = 1 << 20
    problem = TPIProblem.from_test_length(
        base, n_patterns=n_patterns, escape_budget=0.001
    )
    solution = solve_greedy(problem, max_iterations=1000)
    circuit = apply_test_points(base, solution.points).circuit
    stimulus = UniformRandomSource(seed=7).generate(circuit.inputs, n_patterns)
    return circuit, stimulus, n_patterns


def bench_fault_sim(jobs: int, quick: bool) -> Dict[str, object]:
    """Serial exact, serial dropping and parallel dropping fault sim.

    Each serial mode runs on the default kernel and on the interpreted
    arbiter; ``speedup_*_vs_interp`` divides the arbiter's seconds by the
    default kernel's for the same mode.  The parallel run is quoted
    against the faster serial mode (``speedup_jobsN_vs_best_serial``),
    and ``host_limited`` flags a host with fewer CPUs than jobs.
    """
    circuit, stimulus, n_patterns = _post_tpi_workload(quick)
    faults = FaultSimulator(circuit)._resolve_faults(None, True)

    def serial(kernel: str, mode: str):
        sim = FaultSimulator(circuit, kernel=kernel)
        run = sim.run if mode == "exact" else sim.run_coverage
        seconds, result = _best_of(
            1, lambda: run(stimulus, n_patterns, faults=faults)
        )
        return seconds, result, sim.gate_evals

    seconds: Dict[str, float] = {}
    evals: Dict[str, int] = {}
    reference = None
    for kernel, mode in (
        (DEFAULT_KERNEL, "exact"),
        (DEFAULT_KERNEL, "drop"),
        ("interp", "exact"),
        ("interp", "drop"),
    ):
        key = mode if kernel == DEFAULT_KERNEL else f"interp_{mode}"
        seconds[key], result, evals[key] = serial(kernel, mode)
        summary = (result.coverage(), dict(result.first_detect))
        reference = reference or summary
        assert summary == reference
        del result  # keep the parent heap lean before the pool forks
    coverage, first_detect = reference
    t_exact = seconds["exact"]

    t_par, par = _best_of(
        1,
        lambda: run_parallel(
            circuit,
            stimulus,
            n_patterns,
            faults=faults,
            jobs=jobs,
            mode="coverage",
        ),
    )
    assert par.coverage() == coverage
    assert par.first_detect == first_detect

    pairs = len(faults) * n_patterns
    cpus = os.cpu_count() or 1
    return {
        "workload": (
            f"{circuit.name} post-TPI, {len(faults)} faults, "
            f"{n_patterns} patterns"
        ),
        "kernel": DEFAULT_KERNEL,
        "coverage": round(coverage, 4),
        "seconds_serial_exact": round(t_exact, 4),
        "seconds_serial_drop": round(seconds["drop"], 4),
        "seconds_interp_exact": round(seconds["interp_exact"], 4),
        "seconds_interp_drop": round(seconds["interp_drop"], 4),
        f"seconds_jobs{jobs}_drop": round(t_par, 4),
        "speedup_exact_vs_interp": round(seconds["interp_exact"] / t_exact, 2),
        "speedup_drop_vs_interp": round(
            seconds["interp_drop"] / seconds["drop"], 2
        ),
        f"speedup_jobs{jobs}_vs_best_serial": round(
            min(t_exact, seconds["drop"]) / t_par, 2
        ),
        "cpus": cpus,
        "host_limited": cpus < jobs,
        "fault_pattern_pairs_per_sec_exact": round(pairs / t_exact),
        f"fault_pattern_pairs_per_sec_jobs{jobs}": round(pairs / t_par),
        "gate_evals_exact": evals["exact"],
        "gate_evals_drop": evals["drop"],
        "identical_coverage_and_first_detect": True,
    }


# ---------------------------------------------------------------------------
# Word-parallel numpy backend vs the interpreted gate walk
# ---------------------------------------------------------------------------

#: Pattern width for the numpy fault-sim bench: one machine word.  The
#: batched sweep's edge is dispatch amortization, which is largest at
#: narrow widths; at wide words every backend converges onto raw bit
#: work, where the bignum and ndarray kernels are within ~2.5x of each
#: other (DESIGN.md §14 has the regime analysis).
NUMPY_SIM_PATTERNS = 64


def _numpy_sim_workload(quick: bool):
    """Gray-to-binary decode chains: adversarial for scalar simulation.

    Every output bit is a cumulative XOR of the gray inputs, so (a) the
    interpreter's event-driven walk can never skip — an XOR re-evaluates
    on every fan-in toggle — and (b) mean fanout-cone size is about half
    the circuit, so the batched full-circuit sweep only inflates per-fault
    work ~2x while collapsing thousands of per-gate Python steps into a
    few hundred grouped ufunc calls.
    """
    size = 256 if quick else 512
    circuit = gray_to_binary(size)
    stimulus = UniformRandomSource(seed=7).generate(
        circuit.inputs, NUMPY_SIM_PATTERNS
    )
    faults = FaultSimulator(circuit)._resolve_faults(None, True)
    return circuit, stimulus, NUMPY_SIM_PATTERNS, faults


def bench_numpy_fault_sim(repeats: int, quick: bool) -> Dict[str, object]:
    """Exact fault sim: batched numpy sweep vs the interpreter."""
    circuit, stimulus, n_patterns, faults = _numpy_sim_workload(quick)

    def run(kernel: str):
        sim = FaultSimulator(circuit, kernel=kernel)
        return sim.run(stimulus, n_patterns, faults=faults)

    reference = run("interp")
    run("numpy")  # warm the plan registry
    reps = max(repeats, 3)
    t_numpy, got_n = _best_of(reps, lambda: run("numpy"))
    t_interp, got_i = _best_of(reps, lambda: run("interp"))
    for got in (got_n, got_i):
        assert got.detection_word == reference.detection_word
        assert got.first_detect == reference.first_detect
    return {
        "workload": (
            f"{circuit.name}, {len(faults)} faults, "
            f"{n_patterns} patterns, exact run"
        ),
        "kernel": "numpy",
        "coverage": round(reference.coverage(), 4),
        "seconds_interp": round(t_interp, 4),
        "seconds_numpy": round(t_numpy, 4),
        "speedup": round(t_interp / t_numpy, 2),
        "bit_identical": True,
    }


#: Pattern budget for the wide-coverage bench, far past the batch's
#: width cap (:data:`repro.sim.npsim.BATCH_MAX_WORDS`).
NUMPY_WIDE_PATTERNS = 65536
NUMPY_WIDE_PATTERNS_QUICK = 16384


#: Least wall time of one timed numpy batch in the wide-coverage bench.
NUMPY_WIDE_MIN_BATCH_S = 0.2


def bench_numpy_wide_coverage(repeats: int, quick: bool) -> Dict[str, object]:
    """Wide-budget ``run_coverage`` with dropping: numpy vs interp.

    The gray-decoder workload at a pattern budget hundreds of words wide.
    Every gray512 fault drops in the first 64-pattern block (XOR chains
    never mask a fault effect), so the numpy side times one 1-word
    batch and never a wide block: this gates the dropping regime, not
    wide-word batching.  The numpy run is asserted identical down to
    first-detect indices against the interp arbiter's run.

    One numpy run takes a few hundredths of a second and one interp run
    over a second, so the speedup is timed as paired batches
    (:func:`_paired_ratio`): each interp run against a numpy batch of at
    least :data:`NUMPY_WIDE_MIN_BATCH_S`, taken back to back.
    """
    circuit = gray_to_binary(512)
    n_patterns = NUMPY_WIDE_PATTERNS_QUICK if quick else NUMPY_WIDE_PATTERNS
    stimulus = UniformRandomSource(seed=7).generate(circuit.inputs, n_patterns)
    faults = FaultSimulator(circuit)._resolve_faults(None, True)

    def run(kernel: str):
        sim = FaultSimulator(circuit, kernel=kernel)
        return sim.run_coverage(stimulus, n_patterns, faults=faults)

    run("numpy")  # warm the plan registry
    start = time.perf_counter()
    run("numpy")
    batch = math.ceil(NUMPY_WIDE_MIN_BATCH_S / (time.perf_counter() - start))
    t_numpy, speedup, got_n, reference = _paired_ratio(
        repeats, (batch, 1), lambda: run("numpy"), lambda: run("interp")
    )
    t_interp = t_numpy * speedup
    assert got_n.first_detect == reference.first_detect
    assert list(got_n.detection_word) == list(reference.detection_word)
    return {
        "workload": (
            f"{circuit.name}, {len(faults)} faults, {n_patterns} patterns "
            f"({n_patterns // 64} words), run_coverage"
        ),
        "kernel": "numpy",
        "coverage": round(reference.coverage(), 4),
        "seconds_interp": round(t_interp, 4),
        "seconds_numpy": round(t_numpy, 4),
        "speedup": round(speedup, 2),
        "numpy_runs_per_batch": batch,
        "identical_coverage_and_first_detect": True,
    }


def _numpy_incremental_workload(quick: bool):
    """A wide-level DAG where the vectorized candidate scorer is live.

    ``random_dag`` at this fan-in span levelizes to ~150 rows per level —
    far past :data:`repro.sim.npsim.DELTA_MIN_MEAN_WIDTH` — so the numpy
    solve scores every round on :class:`~repro.sim.npsim.PlacementBatch`
    with no override.  The fault stride keeps the greedy candidate loop
    (the measured region) dominant over the one-off problem setup.
    """
    circuit = random_dag(128, 4000, seed=7, fanin_span=400)
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=1024, escape_budget=0.001
    )
    stride = 48 if quick else 32
    max_iterations = 4 if quick else 12
    faults = testable_stuck_at_faults(circuit)[::stride]
    return circuit, problem, faults, max_iterations


def bench_numpy_incremental(repeats: int, quick: bool) -> Dict[str, object]:
    """Greedy solve, numpy incremental scoring vs interp incremental.

    Both sides run the same :class:`IncrementalEvaluator` bookkeeping;
    the measured gap is the candidate scoring engine — each round's
    candidates scored together in column-batched level sweeps
    (:meth:`~repro.core.incremental.IncrementalEvaluator.candidate_gains`
    on :class:`~repro.sim.npsim.PlacementBatch`) against the interpreted
    dirty-cone walk, one candidate at a time — end to end on the solver
    loop it was built for.  Solutions must match exactly.
    """
    _circuit, problem, faults, max_iterations = _numpy_incremental_workload(
        quick
    )

    def run(kernel: str):
        return solve_greedy(
            problem,
            faults=faults,
            kernel=kernel,
            max_iterations=max_iterations,
        )

    # One timed pass per side: a greedy solve is seconds of work (the
    # speedup has seconds of margin over the gate), and like the fault
    # sim benches the solve itself is internally repetition-heavy.
    del repeats
    t_interp, got_i = _best_of(1, lambda: run("interp"))
    t_numpy, got_n = _best_of(1, lambda: run("numpy"))
    assert _solution_key(got_n) == _solution_key(got_i), (
        "numpy incremental greedy diverged from interp"
    )
    return {
        "workload": (
            f"{_circuit.name}, greedy, {len(faults)} faults, "
            f"{max_iterations} iterations, 1024 patterns"
        ),
        "kernel": "numpy",
        "seconds_interp": round(t_interp, 4),
        "seconds_numpy": round(t_numpy, 4),
        "speedup": round(t_interp / t_numpy, 2),
        "points_placed": len(got_n.points),
        "identical_solutions": True,
    }


#: Deep-chain greedy cases: (gates, iterations quick, iterations full).
#: The 300-gate chain sits just past the batched scorer's break-even
#: (about 2 rows per level times 18 columns per chunk); the 1500-gate
#: chain fits only 3 columns per chunk, so it stays on the walk.
DEEP_CHAINS = ((300, 40, 200), (1500, 10, 40))


def bench_greedy_deep_chain(repeats: int, quick: bool) -> Dict[str, object]:
    """Greedy on deep AND/OR chains, numpy vs interp, one per side of the
    batched scorer's dispatch rule.

    One gate per level puts both chains at the narrow end of
    :func:`~repro.sim.npsim.placement_batch_declined`: the 300-gate chain is
    scored in batches, the 1500-gate chain on the interpreted walk
    (``batched_chain<gates>`` records the decision).  Every round's
    full placement pass pays numpy's per-level dispatch, so numpy greedy
    loses to interp on both.  Recorded, not gated.
    """
    del repeats
    out: Dict[str, object] = {
        "workload": "",
        "kernel": "numpy",
        "identical_solutions": True,
    }
    workloads = []
    for gates, quick_iterations, full_iterations in DEEP_CHAINS:
        circuit = and_or_chain(gates)
        problem = TPIProblem.from_test_length(circuit, n_patterns=4096)
        max_iterations = quick_iterations if quick else full_iterations

        def run(kernel: str):
            return solve_greedy(
                problem, kernel=kernel, max_iterations=max_iterations
            )

        t_interp, got_i = _best_of(1, lambda: run("interp"))
        t_numpy, got_n = _best_of(1, lambda: run("numpy"))
        assert _solution_key(got_n) == _solution_key(got_i), (
            f"numpy greedy diverged from interp on {circuit.name}"
        )
        plan = npsim.get_plan(circuit)
        tag = f"chain{gates}"
        workloads.append(f"{tag}, {max_iterations} iterations")
        out[f"batched_{tag}"] = npsim.placement_batch_declined(
            plan, npsim.gain_batch_columns(plan)
        ) is None
        out[f"seconds_interp_{tag}"] = round(t_interp, 4)
        out[f"seconds_numpy_{tag}"] = round(t_numpy, 4)
        out[f"speedup_{tag}"] = round(t_interp / t_numpy, 2)
    out["workload"] = "greedy, 4096 patterns: " + "; ".join(workloads)
    return out


# ---------------------------------------------------------------------------
# Shadow-verification overhead
# ---------------------------------------------------------------------------


def _paired_ratio(
    repeats: int,
    batches: Tuple[int, int],
    run_base: Callable[[], object],
    run_other: Callable[[], object],
) -> Tuple[float, float, object, object]:
    """Median other/base per-run wall ratio over alternating paired batches.

    The two variants are compared *within* each rep — a batch of
    ``batches[1]`` other runs timed back-to-back against a batch of
    ``batches[0]`` base runs, alternating which goes first — and the
    ratio is the median of the per-rep ratios of per-run times.
    A shared container's clock drifts on the seconds scale, so mins
    taken from different moments would compare different machines;
    a time-local ratio cancels the drift and the median sheds the
    occasional descheduled rep.  GC is paused in the timed region (as
    ``timeit`` does): after the heavier benches this process holds a
    large heap, and a gen-2 pass landing inside one variant's batch
    would swamp the ratio being measured.

    Returns ``(best base seconds per run, median ratio, last base
    result, last other result)``.
    """

    def _batch(fn: Callable[[], object], runs: int) -> Tuple[float, object]:
        start = time.perf_counter()
        for _ in range(runs):
            last = fn()
        return (time.perf_counter() - start) / runs, last

    reps = max(repeats, 7)
    ratios: List[float] = []
    best_base = float("inf")
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps):
            if rep % 2 == 0:
                t_b, got_b = _batch(run_base, batches[0])
                t_o, got_o = _batch(run_other, batches[1])
            else:
                t_o, got_o = _batch(run_other, batches[1])
                t_b, got_b = _batch(run_base, batches[0])
            ratios.append(t_o / t_b)
            best_base = min(best_base, t_b)
    finally:
        gc.enable()
    return best_base, statistics.median(ratios), got_b, got_o


#: Guard sampling fraction for the numpy backend's overhead bench.  A
#: shadow check costs one interpreted cone walk, so its relative price
#: scales with how much faster the guarded backend is: each check costs
#: roughly ``speedup``x the per-fault work it audits, so holding a 10%
#: budget needs ``fraction <= 0.1 / speedup``.  The batched sweep runs
#: ~20x over interp on its home workload — and gray-code cones span
#: about half the circuit, a few times the mean cone — so the fraction
#: sits an order of magnitude below the library's 1% default.
NUMPY_GUARD_FRACTION = 0.001


def bench_numpy_guard_overhead(repeats: int, quick: bool) -> Dict[str, object]:
    """Batched numpy fault sim with and without the shadow guard.

    Timed as paired batches (:func:`_paired_ratio`) on the numpy
    backend's home workload.  The sampled fraction is lower (see
    :data:`NUMPY_GUARD_FRACTION`): each shadow check replays an
    interpreted cone walk, which the batched sweep has made ~20x more
    expensive *relative to the run it guards*.

    Measured steady-state on one long-lived simulator, the shape of a
    real sweep: the arbiter's cone-order table is a one-time per-
    simulator build (the plain path never touches it), so charging it
    to every run would measure construction, not the guard.
    """
    circuit, stimulus, n_patterns, faults = _numpy_sim_workload(quick)
    sim = FaultSimulator(circuit, kernel="numpy")

    def run_plain():
        return sim.run(stimulus, n_patterns, faults=faults)

    checks = 0

    def run_guarded():
        nonlocal checks
        with GuardedSession(fraction=NUMPY_GUARD_FRACTION, seed=0) as guard:
            result = sim.run(stimulus, n_patterns, faults=faults)
        checks = guard.checks
        return result

    reference = run_plain()  # warm the plan registry
    run_guarded()  # warm the arbiter's cone-order table
    t_plain, ratio, got_p, got_g = _paired_ratio(
        repeats, (10, 10), run_plain, run_guarded
    )
    for got in (got_p, got_g):
        assert got.detection_word == reference.detection_word
        assert got.first_detect == reference.first_detect
    t_guarded = t_plain * ratio
    overhead_pct = (ratio - 1.0) * 100.0
    return {
        "workload": (
            f"{circuit.name}, {len(faults)} faults, {n_patterns} patterns, "
            f"exact run, guard fraction {NUMPY_GUARD_FRACTION}"
        ),
        "kernel": "numpy",
        "seconds_unguarded": round(t_plain, 4),
        "seconds_guarded": round(t_guarded, 4),
        "overhead_pct": round(overhead_pct, 2),
        "shadow_checks": checks,
        "divergences": 0,
        "identical_results": True,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_all(
    quick: bool, jobs: int, repeats: int
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run every benchmark; returns (results payload, obs counter values)."""
    recorder = obs.RunRecorder(None)
    previous = obs.set_recorder(recorder)
    try:
        benches = {
            "incremental_t3_trees": bench_incremental_t3(repeats),
            "incremental_greedy": bench_incremental_greedy(repeats, quick),
            "fault_sim_drop_parallel": bench_fault_sim(jobs, quick),
            "numpy_fault_sim": bench_numpy_fault_sim(repeats, quick),
            "numpy_wide_coverage": bench_numpy_wide_coverage(repeats, quick),
            "numpy_incremental": bench_numpy_incremental(repeats, quick),
            "greedy_deep_chain": bench_greedy_deep_chain(repeats, quick),
            "numpy_guard_overhead": bench_numpy_guard_overhead(
                repeats, quick
            ),
        }
    finally:
        obs.set_recorder(previous)
        snapshot = recorder.metrics.snapshot()
        recorder.close()
    counters = {
        key: value
        for key, value in sorted(snapshot.get("counters", {}).items())
        if key in ("fault_sim.gate_evals", "fault_sim.dropped",
                   "fault_sim.runs", "fault_sim.parallel_runs",
                   "npsim.plans", "npsim.plan_cache_hits")
    }
    return benches, counters


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke workload sizes")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel fault sim")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of) for the solver benches")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output JSON path")
    parser.add_argument("--min-t3-speedup", type=float, default=None,
                        help="fail unless T3 incremental speedup >= X")
    parser.add_argument("--min-greedy-speedup", type=float, default=None,
                        help="fail unless greedy incremental speedup >= X")
    parser.add_argument("--min-sim-speedup", type=float, default=None,
                        help="fail unless the parallel dropping fault sim "
                        "beats the best serial mode by >= X")
    parser.add_argument("--min-numpy-sim-speedup", type=float, default=None,
                        help="fail unless batched numpy fault-sim speedup "
                        "over interp >= X")
    parser.add_argument("--min-numpy-wide-speedup", type=float, default=None,
                        help="fail unless the wide-budget numpy coverage "
                        "speedup over interp >= X")
    parser.add_argument("--min-numpy-incremental-speedup", type=float,
                        default=None,
                        help="fail unless greedy with numpy incremental "
                        "deltas beats interp incremental by >= X")
    parser.add_argument("--max-guard-overhead-pct", type=float, default=None,
                        help="fail if the shadow-guard overhead exceeds X%%")
    parser.add_argument("--history", type=Path, default=None, metavar="FILE",
                        help="append this run to the JSONL benchmark history "
                        "(see repro.obs.history and repro-tpi bench-compare)")
    args = parser.parse_args(argv)

    benches, counters = run_all(args.quick, args.jobs, args.repeats)
    payload = {
        "schema": 1,
        "mode": "quick" if args.quick else "full",
        "jobs": args.jobs,
        "kernel": DEFAULT_KERNEL,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "benchmarks": benches,
        "obs_counters": counters,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwritten to {args.out}", file=sys.stderr)

    if args.history is not None:
        entries = perf_history.entries_from_bench_perf(
            payload, git_rev=obs.git_revision()
        )
        perf_history.append_history(args.history, entries)
        print(
            f"{len(entries)} history entries appended to {args.history}",
            file=sys.stderr,
        )

    failures = []
    guards = [
        ("t3 incremental", args.min_t3_speedup,
         benches["incremental_t3_trees"]["speedup"]),
        ("greedy incremental", args.min_greedy_speedup,
         benches["incremental_greedy"]["speedup"]),
        ("fault sim jobs+drop", args.min_sim_speedup,
         benches["fault_sim_drop_parallel"][
             f"speedup_jobs{args.jobs}_vs_best_serial"
         ]),
        ("numpy fault sim", args.min_numpy_sim_speedup,
         benches["numpy_fault_sim"]["speedup"]),
        ("numpy wide coverage", args.min_numpy_wide_speedup,
         benches["numpy_wide_coverage"]["speedup"]),
        ("numpy incremental greedy", args.min_numpy_incremental_speedup,
         benches["numpy_incremental"]["speedup"]),
    ]
    for label, minimum, measured in guards:
        if minimum is not None and measured < minimum:
            failures.append(f"{label}: {measured}x < required {minimum}x")
    overhead = benches["numpy_guard_overhead"]["overhead_pct"]
    if (
        args.max_guard_overhead_pct is not None
        and overhead > args.max_guard_overhead_pct
    ):
        failures.append(
            f"numpy_guard_overhead: {overhead}% > "
            f"allowed {args.max_guard_overhead_pct}%"
        )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
