"""Process-parallel fault simulation over partitioned fault lists.

The fault simulator's work is embarrassingly parallel across faults: each
fault's propagation depends only on the shared good-circuit words, never on
another fault's result.  :func:`run_parallel` exploits that by splitting
the collapsed fault list into contiguous chunks, fan-ing the chunks out to
a :class:`~concurrent.futures.ProcessPoolExecutor`, and merging the
per-fault results back **in input order** — the merged
:class:`~repro.sim.fault_sim.FaultSimResult` is bit-identical to a serial
run (the equivalence tests assert this down to the first-detect indices),
so callers never observe the parallelism.

Design notes:

* workers are primed once (per pool) with the circuit, the stimulus and
  the parent's good-circuit int words (one map in exact mode, one per
  dropping block in coverage mode), so each worker replays the same
  fault-free state instead of re-deriving it per chunk; a numpy worker's
  batched blocks pack those words into their matrices as a serial run
  does;
* cooperative budgets are honored *inside* workers: each chunk gets a
  fresh-clock budget whose ``max_patterns`` share is proportional to its
  chunk size.  :class:`~repro.errors.BudgetExceededError` does not survive
  pickling (it has a custom constructor), so workers return a sentinel
  payload the parent re-raises as the real exception, first chunk first —
  deterministic regardless of which worker finished when;
* failure handling is one rule: if the pool cannot be started, a worker
  dies or raises, or any chunk payload fails shape validation, every
  chunk payload is discarded and the whole call is recomputed serially in
  the parent with the caller's original budget
  (``fault_sim.parallel_fallback``).  Chunks are pure functions of the
  primed state, so the recomputation yields the same bits; retries and
  pool respawns live in one place, the sweep fabric's supervisor;
* workers are not black boxes: every chunk captures the counter deltas
  its simulators emitted (through a chunk-local recorder) and ships them
  back beside the results, tagged with the worker pid and the parent's
  run id.  When every chunk succeeded, the parent merges one telemetry
  record per chunk into its registry under the ``worker.`` namespace and
  into its trace as ``parallel.chunk_telemetry`` /
  ``parallel.worker_summary`` events; a fallback merges none, so worker
  telemetry is counted exactly once by construction.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..errors import BudgetExceededError, SimulationError
from ..resilience import Budget
from .compile import resolve_kernel
from .fault_sim import FaultSimResult, FaultSimulator
from .faults import Fault

__all__ = ["run_parallel", "split_chunks"]

#: Below this many faults per requested job the pool overhead cannot pay
#: for itself; the call silently runs serially.
MIN_FAULTS_PER_JOB = 4

# ---------------------------------------------------------------------------
# Worker side.  State is primed once per worker process via the pool
# initializer; chunks then only carry the fault lists.
# ---------------------------------------------------------------------------

_WORKER_STATE: Optional[Dict[str, object]] = None


def _init_worker(
    circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
    mode: str,
    block: int,
    good_values: Optional[Mapping[str, int]],
    good_blocks: Optional[List[Tuple[int, Mapping[str, int]]]],
    kernel: str = "interp",
    run_id: Optional[str] = None,
) -> None:
    """Prime one worker process with the shared simulation state.

    ``run_id`` is the parent recorder's run identifier — it rides back in
    every chunk's telemetry so worker-side activity can be attributed to
    the parent trace.
    """
    global _WORKER_STATE
    # The parent's recorder (file handles, span stacks) must not be
    # inherited into forked workers — concurrent writes would interleave.
    obs.set_recorder(None)
    # A numpy simulator builds its worker's own plan (plans are cheap
    # index arrays; they hold locks and don't pickle).
    _WORKER_STATE = {
        "sim": FaultSimulator(circuit, kernel=kernel),
        "stimulus": stimulus,
        "n_patterns": n_patterns,
        "mode": mode,
        "block": block,
        "good_values": good_values,
        "good_blocks": good_blocks,
        "run_id": run_id,
    }


def _simulate_chunk(
    task: Tuple[Sequence[Fault], Optional[Dict[str, Optional[float]]]],
):
    """Simulate one fault chunk; returns a picklable result payload.

    ``task`` is ``(chunk, budget_spec)``.  Success payload: ``("ok",
    words, first_detects, gate_evals, telem)`` with the lists aligned to
    the chunk's fault order and ``telem`` the chunk's telemetry summary
    (pid, run id, seconds, and the counter deltas the simulators emitted
    while computing this chunk — captured through a chunk-local recorder,
    so the numbers are exact deltas no matter how many chunks a worker
    has already served).  Budget exhaustion payload: ``("budget",
    resource, limit, spent, where)`` — the parent re-raises, because
    :class:`BudgetExceededError` itself cannot round-trip pickle.
    """
    chunk, budget_spec = task
    state = _WORKER_STATE
    assert state is not None, "worker used before initialization"
    sim: FaultSimulator = state["sim"]  # type: ignore[assignment]
    budget = None
    if budget_spec is not None:
        budget = Budget(
            wall_ms=budget_spec.get("wall_ms"),
            max_patterns=budget_spec.get("max_patterns"),
        )
    evals_before = sim.gate_evals
    capture = obs.RunRecorder(None)
    previous = obs.set_recorder(capture)
    start = perf_counter()
    try:
        try:
            if state["mode"] == "coverage":
                result = sim.run_coverage(
                    state["stimulus"],  # type: ignore[arg-type]
                    state["n_patterns"],  # type: ignore[arg-type]
                    faults=chunk,
                    budget=budget,
                    block=state["block"],  # type: ignore[arg-type]
                    good_blocks=state["good_blocks"],  # type: ignore[arg-type]
                )
            else:
                result = sim.run(
                    state["stimulus"],  # type: ignore[arg-type]
                    state["n_patterns"],  # type: ignore[arg-type]
                    faults=chunk,
                    budget=budget,
                    good_values=state["good_values"],  # type: ignore[arg-type]
                )
        except BudgetExceededError as exc:
            return ("budget", exc.resource, exc.limit, exc.spent, exc.where)
    finally:
        obs.set_recorder(previous)
    telem = {
        "pid": os.getpid(),
        "run_id": state.get("run_id"),
        "seconds": round(perf_counter() - start, 6),
        "counters": capture.metrics.snapshot()["counters"],
    }
    words = [result.detection_word[f] for f in chunk]
    firsts = [result.first_detect[f] for f in chunk]
    return ("ok", words, firsts, sim.gate_evals - evals_before, telem)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def split_chunks(items: Sequence, n: int) -> List[List]:
    """Split ``items`` into ``n`` contiguous, near-equal chunks.

    Contiguity is what makes the parallel merge deterministic: chunk
    boundaries depend only on ``(len(items), n)``, never on scheduling.
    Empty chunks are omitted.
    """
    if n <= 0:
        raise ValueError("chunk count must be positive")
    out: List[List] = []
    base, extra = divmod(len(items), n)
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(list(items[start : start + size]))
        start += size
    return out


def _chunk_budget_specs(
    budget: Optional[Budget], chunks: Sequence[Sequence[Fault]]
) -> List[Optional[Dict[str, Optional[float]]]]:
    """Per-chunk budget specs: fresh clocks, proportional pattern shares."""
    if budget is None:
        return [None] * len(chunks)
    total = sum(len(c) for c in chunks)
    max_patterns = budget.limits["patterns"]
    specs: List[Optional[Dict[str, Optional[float]]]] = []
    for chunk in chunks:
        share: Optional[int] = None
        if max_patterns is not None:
            share = (max_patterns * len(chunk)) // max(total, 1)
        specs.append({"wall_ms": budget.wall_ms, "max_patterns": share})
    return specs


def _valid_payload(payload, chunk: Sequence[Fault]) -> bool:
    """Shape-validate a worker payload before trusting it.

    A corrupted payload (a worker dying mid-pickle, a codec bug) must
    never silently drop faults from the merged result: any invalid
    payload sends the whole call to the serial fallback.
    """
    if not isinstance(payload, tuple) or not payload:
        return False
    if payload[0] == "budget":
        return len(payload) == 5
    if payload[0] == "ok":
        return (
            len(payload) == 5
            and isinstance(payload[1], list)
            and isinstance(payload[2], list)
            and len(payload[1]) == len(chunk)
            and len(payload[2]) == len(chunk)
            and (payload[4] is None or isinstance(payload[4], dict))
        )
    return False


def _merge_telemetry(
    telemetries: Sequence[Tuple[int, Dict[str, object]]],
    run_id: Optional[str],
) -> None:
    """Fold the chunks' telemetry into the parent registry + trace.

    Exactly-once by construction: it runs only when every chunk
    succeeded (a fallback discards all payloads, telemetry included),
    once per call, and every worker-side counter is namespaced under
    ``worker.`` so the merge can never collide with the parent's own
    counts of the same events.  Each chunk also leaves a ``parallel.chunk_telemetry`` trace
    event attributing the work to the process that did it, and each
    reporting process a ``parallel.worker_summary`` rollup.
    """
    if not telemetries or not obs.enabled():
        return
    totals: Dict[str, float] = {}
    by_pid: Dict[int, Dict[str, object]] = {}
    for idx, telem in telemetries:
        counters = telem.get("counters") or {}
        obs.event(
            "parallel.chunk_telemetry",
            chunk=idx,
            pid=telem.get("pid"),
            run_id=telem.get("run_id") or run_id,
            seconds=telem.get("seconds"),
            counters=counters,
        )
        pid = telem.get("pid")
        if isinstance(pid, int):
            summary = by_pid.setdefault(
                pid, {"chunks": 0, "seconds": 0.0, "counters": {}}
            )
            summary["chunks"] += 1  # type: ignore[operator]
            summary["seconds"] += float(telem.get("seconds") or 0.0)  # type: ignore[operator]
            per_pid: Dict[str, float] = summary["counters"]  # type: ignore[assignment]
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    per_pid[name] = per_pid.get(name, 0.0) + value
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0.0) + value
    for name, value in sorted(totals.items()):
        obs.count(f"worker.{name}", value)
    for pid, summary in sorted(by_pid.items()):
        obs.event(
            "parallel.worker_summary",
            pid=pid,
            run_id=run_id,
            chunks=summary["chunks"],
            seconds=round(float(summary["seconds"]), 6),  # type: ignore[arg-type]
            counters=summary["counters"],
        )
    obs.count("parallel.chunks_merged", len(telemetries))
    obs.gauge("parallel.workers_reporting", len(by_pid))


def run_parallel(
    circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
    faults: Optional[Sequence[Fault]] = None,
    collapse: bool = True,
    jobs: int = 1,
    mode: str = "exact",
    block: int = 64,
    budget: Optional[Budget] = None,
    kernel: Optional[str] = None,
) -> FaultSimResult:
    """Fault-simulate with the fault list fanned out over ``jobs`` processes.

    Parameters
    ----------
    circuit, stimulus, n_patterns, faults, collapse:
        As for :meth:`~repro.sim.fault_sim.FaultSimulator.run`.
    jobs:
        Worker process count.  ``jobs <= 1`` (or a fault list too small to
        amortize the pool) runs serially in-process; the result is
        identical either way.
    mode:
        ``"exact"`` (full detection words, :meth:`run`) or ``"coverage"``
        (fault dropping, :meth:`run_coverage`).
    block:
        Initial dropping-block size for ``mode="coverage"``.
    budget:
        Optional cooperative budget.  In the parallel path each chunk is
        enforced inside its worker with a fresh clock and a proportional
        ``max_patterns`` share; exhaustion in any chunk raises
        :class:`BudgetExceededError` in the parent (first chunk in fault
        order wins, for determinism).
    kernel:
        ``"numpy"`` or ``"interp"``; forwarded to every worker's
        simulator.

    Failure handling never changes the result, only the wall clock: if
    the pool cannot start, a worker dies or raises, or a chunk payload
    is malformed, the whole call is recomputed serially in the parent
    with the caller's budget (``fault_sim.parallel_fallback``).  A
    worker's budget exhaustion is not a failure: it re-raises as
    :class:`BudgetExceededError`.
    """
    if mode not in ("exact", "coverage"):
        raise SimulationError(f"unknown parallel fault-sim mode {mode!r}")
    kernel = resolve_kernel(kernel)
    sim = FaultSimulator(circuit, kernel=kernel)
    faults = sim._resolve_faults(faults, collapse)

    def serial() -> FaultSimResult:
        if mode == "coverage":
            return sim.run_coverage(
                stimulus, n_patterns, faults=faults, budget=budget, block=block
            )
        return sim.run(stimulus, n_patterns, faults=faults, budget=budget)

    if jobs <= 1 or len(faults) < MIN_FAULTS_PER_JOB * jobs:
        return serial()

    chunks = split_chunks(faults, jobs)
    specs = _chunk_budget_specs(budget, chunks)
    # The good machine is simulated once, in the parent; workers replay
    # the shared words (free under fork, one pickle under spawn).
    good_values = good_blocks = None
    if mode == "exact":
        good_values = sim._logic.run(stimulus, n_patterns)
    else:
        good_blocks = list(sim.coverage_blocks(stimulus, n_patterns, block))
    parent_recorder = obs.get_recorder()
    run_id = parent_recorder.run_id if parent_recorder is not None else None
    with obs.span(
        "fault_sim.parallel",
        circuit=circuit.name,
        n_patterns=n_patterns,
        n_faults=len(faults),
        jobs=jobs,
        mode=mode,
    ) as sp:
        start = perf_counter()

        def fallback(error: str, detail: str) -> FaultSimResult:
            obs.event(
                "fault_sim.parallel_fallback", error=error, detail=detail[:200]
            )
            return serial()

        # ``jobs`` fixes the chunking (and therefore the merge order and
        # budget shares); the worker count is additionally capped at the
        # machine's usable cores — oversubscribing only adds fork and
        # scheduling overhead, never throughput.
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without affinity support
            usable = os.cpu_count() or 1
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(len(chunks), max(usable, 1)),
                initializer=_init_worker,
                initargs=(
                    circuit,
                    stimulus,
                    n_patterns,
                    mode,
                    block,
                    good_values,
                    good_blocks,
                    kernel,
                    run_id,
                ),
            )
            try:
                payloads = list(
                    pool.map(_simulate_chunk, zip(chunks, specs))
                )
            finally:
                # Never block the caller on chunks still running after
                # a sibling failed.
                pool.shutdown(wait=False, cancel_futures=True)
        except Exception as exc:  # pool unusable, a worker died or raised
            return fallback(type(exc).__name__, str(exc))
        invalid = [
            idx
            for idx, (chunk, payload) in enumerate(zip(chunks, payloads))
            if not _valid_payload(payload, chunk)
        ]
        if invalid:
            return fallback("InvalidPayload", f"chunks {invalid}")

        result = FaultSimResult(
            n_patterns=n_patterns, coverage_only=(mode == "coverage")
        )
        detected = 0
        worker_evals = 0
        telemetries: List[Tuple[int, Dict[str, object]]] = []
        for idx, (chunk, payload) in enumerate(zip(chunks, payloads)):
            if payload[0] == "budget":
                _tag, resource, limit, spent, where = payload
                raise BudgetExceededError(
                    resource, limit, spent, where=where or "fault_sim.parallel"
                )
            _tag, words, firsts, evals, telem = payload
            worker_evals += evals
            if telem:
                telemetries.append((idx, telem))
            for fault, word, first in zip(chunk, words, firsts):
                result.detection_word[fault] = word
                result.first_detect[fault] = first
                if word:
                    detected += 1
        result._n_detected = detected
        _merge_telemetry(telemetries, run_id)
        seconds = perf_counter() - start
        sp.set(detected=detected, gate_evals=worker_evals, seconds=seconds)
    obs.count("fault_sim.runs")
    obs.count("fault_sim.parallel_runs")
    obs.count("fault_sim.patterns", n_patterns)
    obs.count("fault_sim.faults", len(faults))
    obs.count("fault_sim.dropped", detected)
    obs.count("fault_sim.undetected", len(faults) - detected)
    obs.count("fault_sim.gate_evals", worker_evals)
    if seconds > 0.0:
        obs.gauge("fault_sim.gate_evals_per_sec", worker_evals / seconds)
    obs.observe("fault_sim.run_seconds", seconds)
    return result
