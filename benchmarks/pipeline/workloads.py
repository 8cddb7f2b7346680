"""Workloads of the pipeline benchmark: seeded inputs, timed ops, checks.

Every workload is a list of *ops* generated from the benchmark seed.  One
op is one user-visible command, run through the library's public
functions the way ``repro-tpi`` runs it:

* ``tree_dp`` — ``insert`` on a fanout-free random tree through
  ``solve_tree``: the paper's DP on its exact domain;
* ``dag_greedy`` — ``insert --solver greedy`` on a reconvergent circuit:
  COP/placement kernels and the incremental evaluator, no DP;
* ``coverage_sim`` — the measuring half of ``coverage``
  (``evaluate_solution``) on a circuit planned during set-up, alternating
  exact simulation at 1024 patterns with fault dropping at 2^16;
* ``sweep_store`` — fabric ``sweep`` campaigns (2 workers, measured
  coverage), one per half of 48 files, whose jobs are half served by a
  prefilled result store.

Run as a script, this module is one benchmark *pass* (or the one-off
store prefill): ``run_pipeline.py`` starts it in a fresh interpreter for
every pass, so each pass pays import and set-up as a CLI call does, and
per-circuit kernel caches are cleared before every op for the same
reason.  The pass reads a JSON spec and writes a JSON result; see
:func:`run_pass` for both.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import obs  # noqa: E402
from repro.analysis.experiments import run_circuit_sweep  # noqa: E402
from repro.circuit.bench_io import parse_bench, write_bench  # noqa: E402
from repro.circuit.builder import CircuitBuilder  # noqa: E402
from repro.circuit.netlist import Circuit  # noqa: E402
from repro.circuit.generators import (  # noqa: E402
    gray_to_binary,
    random_dag,
    random_tree,
    rpr_mixed,
)
from repro.core.dp import quantized_tree_check, solve_tree  # noqa: E402
from repro.core.evaluate import evaluate_solution  # noqa: E402
from repro.core.greedy import solve_greedy  # noqa: E402
from repro.core.prepare import prepare_for_tpi  # noqa: E402
from repro.core.problem import (  # noqa: E402
    TestPoint,
    TestPointType,
    TPIProblem,
    TPISolution,
)
from repro.core.virtual import evaluate_placement  # noqa: E402
from repro.fabric import journal_status  # noqa: E402
from repro.obs.analyze import aggregate_spans  # noqa: E402
from repro.sim.compile import clear_registry  # noqa: E402
from repro.sim.faults import testable_stuck_at_faults  # noqa: E402
from repro.sim.npsim import clear_plans  # noqa: E402

ESCAPE = 0.001
#: ``insert`` on trees uses the CLI's default test length.
TREE_PATTERNS = 4096
#: Greedy plans and dropping coverage runs use the sweep's long budget.
LONG_PATTERNS = 1 << 16
#: ``coverage``'s CLI default for exact (non-dropping) simulation.
EXACT_PATTERNS = 1024
SWEEP_PATTERNS = 1024
SWEEP_WORKERS = 2
SWEEP_FILES = 48
#: Each sweep op is a campaign over one slice of the files.  A campaign's
#: time varies by about 20 % from one to the next, so a run's median
#: needs many of them: two slices of 24 give twice the samples of one
#: campaign over all 48.
SWEEP_CAMPAIGNS = 2
#: Share of coverage ops re-run on the interpreted arbiter.
INTERP_SAMPLE = 0.1

# Each workload draws on a fixed circuit population: fixed sizes, and
# shapes from fixed generator seeds.  The benchmark seed turns every
# circuit into a random isomorphic variant (node names, input, output and
# fan-in order), so two seeds give different netlists that cost the same
# work, and the spread across seeds measures the code rather than the
# luck of the draw.
TREE_SIZES = (16, 20, 24, 28, 32, 36, 40, 44)
DAG_SIZES = (150, 200, 250, 300, 350, 400)
RPR_SHAPES = ((12, 8, 3), (16, 10, 4))


@dataclass(frozen=True)
class Op:
    """One timed command: a netlist plus what to do with it."""

    index: int
    name: str
    bench: str
    n_patterns: int
    mode: str = "insert"  # insert | exact | coverage | sweep
    plan: Tuple[Tuple[str, str], ...] = ()


def digest(obj: Any) -> str:
    """Short stable digest of a JSON-able value (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _op(index: int, circuit: Circuit, n_patterns: int, mode: str = "insert") -> Op:
    return Op(index, circuit.name, write_bench(circuit), n_patterns, mode)


def _base_seed(workload: str, index: int) -> int:
    return random.Random(f"{workload}/{index}").randrange(1 << 30)


def variant(circuit: Circuit, seed: int, label: str, name: str) -> Circuit:
    """A seeded isomorphic copy: fresh node names, shuffled input, output
    and fan-in order (every gate type is symmetric in its inputs)."""
    rng = random.Random(f"{label}/{seed}")
    order = circuit.topological_order()
    fresh = rng.sample(range(1 << 32), len(order))
    names = {old: f"n{new:08x}" for old, new in zip(order, fresh)}
    builder = CircuitBuilder(name)
    inputs = list(circuit.inputs)
    rng.shuffle(inputs)
    builder.inputs(*(names[n] for n in inputs))
    for old in order:
        node = circuit.node(old)
        if not node.is_input:
            fanins = [names[f] for f in node.fanins]
            rng.shuffle(fanins)
            builder.gate(node.gate_type, fanins, name=names[old])
    outputs = list(circuit.outputs)
    rng.shuffle(outputs)
    builder.output(*(names[n] for n in outputs))
    return builder.build()


def _dag(n_gates: int, seed: int) -> Circuit:
    return random_dag(max(16, n_gates // 10), n_gates, seed=seed)


def _rpr(shape: Tuple[int, int, int], seed: int) -> Circuit:
    w, length, blocks = shape
    return rpr_mixed(w, length, blocks, seed=seed, name=f"rprmix{w}")


def _population(workload: str) -> List[Circuit]:
    """The fixed circuits behind a workload's op list, in op order."""
    circuits = []
    if workload == "tree_dp":
        for i, size in enumerate(TREE_SIZES):
            circuits.append(random_tree(size, seed=_base_seed(workload, i)))
    elif workload == "dag_greedy":
        for i, size in enumerate(DAG_SIZES):
            circuits.append(_dag(size, _base_seed(workload, i)))
        for i, shape in enumerate(RPR_SHAPES):
            circuits.append(_rpr(shape, _base_seed(workload, len(DAG_SIZES) + i)))
    elif workload == "coverage_sim":
        # gray: XOR chains, every fault easy; rprmix: planned with test
        # points; rdag: reconvergent logic with redundant faults.
        seeds = [_base_seed(workload, i) for i in range(8)]
        circuits = [
            gray_to_binary(64), _rpr(RPR_SHAPES[0], seeds[1]),
            _dag(150, seeds[2]), _dag(270, seeds[3]),
            gray_to_binary(128), _rpr(RPR_SHAPES[1], seeds[5]),
            _dag(210, seeds[6]), _dag(330, seeds[7]),
        ]
    elif workload == "sweep_store":
        # Small trees, DAGs and RPR blocks, one fabric job each.
        for i in range(SWEEP_FILES):
            seed = _base_seed(workload, i)
            if i % 3 == 0:
                circuits.append(random_tree(8 + i % 9, seed=seed))
            elif i % 3 == 1:
                circuits.append(random_dag(8, 20 + 4 * (i % 8), seed=seed))
            else:
                circuits.append(rpr_mixed(4 + i % 2, 3, 2, seed=seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return circuits


def circuits(workload: str, seed: int) -> List[Circuit]:
    """The seeded variants of a workload's population, in op order.

    The sweep's prefilled half (even positions) is a fixed corpus, as a
    shared cache would be: the store re-executes a seeded draw of its
    hits, keyed by job id, and a seed-dependent draw would make campaign
    time depend on which jobs it picked.
    """
    return [
        variant(c, 0 if workload == "sweep_store" and i % 2 == 0 else seed,
                f"{workload}/{i}", f"c{i:02d}_{c.name}")
        for i, c in enumerate(_population(workload))
    ]


def _plan(circuit: Circuit) -> Tuple[Tuple[str, str], ...]:
    """Greedy placement for an RPR circuit (set-up work, never timed)."""
    prepared = prepare_for_tpi(circuit)
    problem = TPIProblem.from_test_length(
        prepared, n_patterns=LONG_PATTERNS, escape_budget=ESCAPE
    )
    solution = solve_greedy(problem)
    return tuple((p.node, p.kind.value) for p in solution.points)


def _coverage_ops(seed: int) -> List[Op]:
    """Each circuit once per mode; the mode alternates op by op."""
    variants = circuits("coverage_sim", seed)
    plans = [_plan(c) if "rprmix" in c.name else () for c in variants]
    ops = []
    for i in range(2 * len(variants)):
        j = i % len(variants)
        exact = (i + i // len(variants)) % 2 == 0
        ops.append(
            Op(
                i,
                variants[j].name,
                write_bench(variants[j]),
                EXACT_PATTERNS if exact else LONG_PATTERNS,
                "exact" if exact else "coverage",
                plans[j],
            )
        )
    return ops


def build_ops(workload: str, seed: int) -> List[Op]:
    """The seeded op list of ``workload`` (the sweep's: one campaign per
    slice of its files)."""
    if workload == "coverage_sim":
        return _coverage_ops(seed)
    variants = circuits(workload, seed)
    if workload == "sweep_store":
        return [
            Op(k, f"campaign{k}", "".join(write_bench(c) for c in chunk),
               SWEEP_PATTERNS, "sweep")
            for k, chunk in enumerate(campaign_slices(variants))
        ]
    n_patterns = TREE_PATTERNS if workload == "tree_dp" else LONG_PATTERNS
    return [_op(i, c, n_patterns) for i, c in enumerate(variants)]


# ---------------------------------------------------------------------------
# Timed ops.  Each public call runs in its own ``call.*`` span; with no
# recorder installed a span is a shared no-op, so traced and untraced
# passes execute the same code.
# ---------------------------------------------------------------------------
def _call(label: str, fn: Callable, /, *args, **kwargs):
    with obs.span(f"call.{label}"):
        return fn(*args, **kwargs)


def _prepared_problem(op: Op) -> TPIProblem:
    circuit = _call("parse_bench", parse_bench, op.bench, name=op.name)
    circuit = _call("prepare_for_tpi", prepare_for_tpi, circuit)
    return TPIProblem.from_test_length(
        circuit, n_patterns=op.n_patterns, escape_budget=ESCAPE
    )


def _points_json(points) -> List[list]:
    return [[p.node, p.kind.value, list(p.branch) if p.branch else None]
            for p in points]


def _solution_json(solution: TPISolution) -> Dict[str, Any]:
    return {
        "points": _points_json(solution.points),
        "cost": solution.cost,
        "feasible": solution.feasible,
    }


def _report_json(report) -> Dict[str, Any]:
    return {
        "n_faults": report.n_faults,
        "baseline": report.baseline_coverage,
        "modified": report.modified_coverage,
        "baseline_curve": report.baseline_curve,
        "modified_curve": report.modified_curve,
        "points": [report.n_control, report.n_observation],
    }


class CheckFailed(Exception):
    """An op returned an answer its independent check rejects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Context:
    """Per-pass state the ops share: the seed, the pass's work directory
    (whose parent holds the sweep's inputs and prefilled store), a
    campaign counter naming each campaign's own directory, and the
    host-speed probe timed around each op."""

    seed: int
    workdir: Path
    campaigns: int = 0
    probe: Callable[[], float] = hostspeed.probe


def run_insert(op: Op, solver: str):
    problem = _prepared_problem(op)
    if solver == "dp":
        return problem, _call("solve_tree", solve_tree, problem)
    return problem, _call("solve_greedy", solve_greedy, problem)


def check_insert(problem: TPIProblem, solution: TPISolution, solver: str) -> None:
    _require(
        problem.costs.total(solution.points) == solution.cost,
        f"returned cost {solution.cost} != recomputed "
        f"{problem.costs.total(solution.points)}",
    )
    if solver == "dp":
        _require(solution.feasible, "DP reported a tree plan infeasible")
        _require(
            quantized_tree_check(problem, solution.points),
            "DP plan fails the quantized tree check",
        )
    else:
        # Greedy may give up; what it claims must hold on the arbiter.
        faults = testable_stuck_at_faults(problem.circuit)
        evaluation = evaluate_placement(problem, solution.points, kernel="interp")
        _require(evaluation.is_feasible(faults) == solution.feasible,
                 "greedy feasibility claim disagrees with interpreted COP")


def _plan_solution(op: Op) -> TPISolution:
    points = [TestPoint(node, TestPointType(kind)) for node, kind in op.plan]
    return TPISolution(points=points, cost=0.0, feasible=True, method="plan")


def run_coverage(op: Op, kernel: Optional[str] = None):
    problem = _prepared_problem(op)
    return _call(
        "evaluate_solution",
        evaluate_solution,
        problem,
        _plan_solution(op),
        op.n_patterns,
        mode=op.mode,
        kernel=kernel,
    )


def check_coverage(op: Op, report, seed: int) -> None:
    _require(0.0 <= report.baseline_coverage <= 1.0
             and 0.0 <= report.modified_coverage <= 1.0,
             "coverage outside [0, 1]")
    if random.Random(f"check/{seed}/{op.index}").random() < INTERP_SAMPLE:
        arbiter = run_coverage(op, kernel="interp")
        _require(_report_json(arbiter) == _report_json(report),
                 "compiled coverage differs from the interpreted arbiter")


def sweep_paths(workdir: Path) -> List[Path]:
    return sorted((workdir / "inputs").glob("*.bench"))


def campaign_slices(items: list) -> List[list]:
    """The sweep's files (or circuits) split into up to
    ``SWEEP_CAMPAIGNS`` campaigns of whole (prefilled, fresh) pairs."""
    size = 2 * max(1, len(items) // (2 * SWEEP_CAMPAIGNS))
    return [items[k:k + size] for k in range(0, len(items), size)]


def campaign_paths(workdir: Path, index: int) -> List[Path]:
    return campaign_slices(sweep_paths(workdir))[index]


def prefilled(paths: List[Path]) -> List[Path]:
    """Every other file (the fixed corpus) has its job in the store;
    campaign slices start at even positions, so this holds within each."""
    return paths[::2]


def prefill(seed: int, workdir: Path) -> None:
    """Write the sweep's netlists and the store holding half their jobs."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    for circuit in circuits("sweep_store", seed):
        (inputs / f"{circuit.name}.bench").write_text(write_bench(circuit))
    run_circuit_sweep(
        prefilled(sweep_paths(workdir)),
        workdir / "prefill.journal",
        n_patterns=SWEEP_PATTERNS,
        fabric=True,
        workers=SWEEP_WORKERS,
        measure_coverage=True,
        store=workdir / "store0",
    )
    # The copies each campaign gets should count only its own traffic.
    (workdir / "store0" / "stats.json").unlink()


def _campaign(paths: List[Path], root: Path):
    return _call(
        "run_circuit_sweep",
        run_circuit_sweep,
        paths,
        root / "journal",
        n_patterns=SWEEP_PATTERNS,
        fabric=True,
        workers=SWEEP_WORKERS,
        measure_coverage=True,
        store=root / "store",
    )


def check_sweep(outcomes, root: Path, n_paths: int, n_prefilled: int) -> None:
    _require(len(outcomes) == n_paths and all(o.ok for o in outcomes),
             "sweep outcome missing or failed")
    store = journal_status(root / "journal", store=root / "store")["store"]
    _require(store["hits"] == n_prefilled,
             f"store hits {store['hits']} != prefilled jobs {n_prefilled}")
    _require(store["publishes"] == n_paths - n_prefilled,
             f"store publishes {store['publishes']} != fresh jobs "
             f"{n_paths - n_prefilled}")
    _require(store["corrupt"] == 0, f"{store['corrupt']} corrupt store entries")


def _sweep_json(outcomes) -> List[Dict[str, Any]]:
    records = []
    for outcome in outcomes:
        record = json.loads(outcome.to_json())
        record["path"] = Path(record["path"]).name
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# One op end to end: timed run, then the untimed check.
# ---------------------------------------------------------------------------
def prepare_op(workload: str, ctx: Context) -> Optional[Path]:
    """Untimed per-op reset: cold kernel caches and, for the sweep, a
    fresh journal and a fresh copy of the prefilled store."""
    clear_registry()
    clear_plans()
    gc.collect()
    if workload != "sweep_store":
        return None
    ctx.campaigns += 1
    root = ctx.workdir / f"campaign{ctx.campaigns}"
    shutil.copytree(ctx.workdir.parent / "store0", root / "store")
    return root


def execute(workload: str, op: Op, ctx: Context, root: Optional[Path]):
    """The timed part of one op; returns what :func:`verify` needs."""
    if workload == "tree_dp":
        return run_insert(op, "dp")
    if workload == "dag_greedy":
        return run_insert(op, "greedy")
    if workload == "coverage_sim":
        return run_coverage(op)
    return _campaign(campaign_paths(ctx.workdir.parent, op.index), root)


def verify(workload: str, op: Op, ctx: Context, root: Optional[Path],
           answer) -> Dict[str, Any]:
    """Check one op's answer; returns its output record (for digests)."""
    if workload in ("tree_dp", "dag_greedy"):
        problem, solution = answer
        check_insert(problem, solution, "dp" if workload == "tree_dp" else "greedy")
        return _solution_json(solution)
    if workload == "coverage_sim":
        check_coverage(op, answer, ctx.seed)
        return _report_json(answer)
    paths = campaign_paths(ctx.workdir.parent, op.index)
    try:
        check_sweep(answer, root, len(paths), len(prefilled(paths)))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"outcomes": _sweep_json(answer)}


def quality(workload: str, output: Dict[str, Any]) -> Dict[str, float]:
    """Plan cost and post-insertion coverage carried by one op's output."""
    if workload in ("tree_dp", "dag_greedy"):
        return {"cost": output["cost"]}
    if workload == "coverage_sim":
        return {"coverage": output["modified"]}
    outcomes = output["outcomes"]
    return {
        "cost": sum(o["cost"] for o in outcomes),
        "coverage": sum(o["modified_coverage"] for o in outcomes) / len(outcomes),
    }


def warm_up(workload: str, ctx: Context) -> None:
    """One untimed op on an input outside the op list (lazy imports,
    allocator and file-system warm-up)."""
    def own(circuit: Circuit) -> Circuit:
        return variant(circuit, ctx.seed, f"{workload}/warm-up", "warm_up")

    if workload == "tree_dp":
        run_insert(_op(-1, own(random_tree(12, seed=1)), TREE_PATTERNS), "dp")
    elif workload == "dag_greedy":
        run_insert(_op(-1, own(_dag(100, 1)), LONG_PATTERNS), "greedy")
    elif workload == "coverage_sim":
        circuit = own(rpr_mixed(6, 3, 2, seed=1))
        for n, mode in ((EXACT_PATTERNS, "exact"), (LONG_PATTERNS, "coverage")):
            run_coverage(_op(-1, circuit, n, mode))
    else:
        root = ctx.workdir / "warmup"
        (root / "inputs").mkdir(parents=True)
        paths = []
        for k, circuit in enumerate((random_tree(10, seed=1), _dag(30, 1))):
            path = root / "inputs" / f"warm_up{k}.bench"
            path.write_text(write_bench(own(circuit)))
            paths.append(path)
        _campaign(paths, root)
        shutil.rmtree(root)


# ---------------------------------------------------------------------------
# Per-layer attribution of a traced pass.
# ---------------------------------------------------------------------------
#: Span name → the layer its self time is charged to.  ``call.*`` spans
#: are the benchmark's own wrappers around public functions; the rest
#: are spans the library already emits.
LAYER_OF_SPAN = {
    "call.parse_bench": "prepare.busy_s",
    "call.prepare_for_tpi": "prepare.busy_s",
    "call.solve_tree": "dp.busy_s",
    "dp.solve": "dp.busy_s",
    "call.solve_greedy": "greedy.busy_s",
    "kernel.compile": "kernel.compile_s",
    "npsim.plan": "npsim.plan_s",
    "fault_sim.run": "fault_sim.run_s",
    "fault_sim.run_coverage": "fault_sim.run_coverage_s",
    "fault_sim.parallel": "fault_sim.run_coverage_s",
    "call.evaluate_solution": "evaluate.busy_s",
    "insert": "insert.busy_s",
    "call.run_circuit_sweep": "fabric.run_s",
    "fabric.run": "fabric.run_s",
}

#: Library counters reported per op.
COUNTERS = (
    "dp.table_cells",
    "dp.decisions",
    "kernel.compiles",
    "kernel.cache_hits",
    "npsim.plans",
    "fault_sim.gate_evals",
    "fault_sim.dropped",
    "insert.points",
    "fabric.dispatches",
    "fabric.commits",
    "fabric.retries",
    "fabric.store.hits",
    "fabric.store.misses",
    "fabric.store.publishes",
    "fabric.store.verifications",
    "cascade.fallbacks",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attribute(trace_path: Path) -> Dict[str, Any]:
    """Per-layer self time and counters of a traced pass, per op.

    The recorder is installed only while an op runs, so every span lies
    inside one ``bench.op`` span; ops run one after another, so a span
    belongs to the last op that started before it.  Self times come from
    :func:`repro.obs.analyze.aggregate_spans` over each op's spans.
    Also returns every layer's share of op wall time split by op mode,
    for the human-readable report.
    """
    trace = obs.load_trace(trace_path)
    op_spans = sorted((s for s in trace.spans if s["name"] == "bench.op"),
                      key=lambda s: s["start_ns"])
    starts = [s["start_ns"] for s in op_spans]
    per_op: List[List[dict]] = [[] for _ in op_spans]
    for span in trace.spans:
        per_op[bisect.bisect_right(starts, span["start_ns"]) - 1].append(span)

    layers = sorted(set(LAYER_OF_SPAN.values()))
    by_mode: Dict[str, Dict[str, float]] = {}
    for op_span, spans in zip(op_spans, per_op):
        row = by_mode.setdefault(op_span["attrs"]["mode"],
                                 dict.fromkeys(["wall", *layers], 0.0))
        row["wall"] += op_span["dur_ns"] / 1e9
        for name, stats in aggregate_spans(spans).items():
            if name in LAYER_OF_SPAN:
                row[LAYER_OF_SPAN[name]] += stats.self_ns / 1e9
    totals = {k: sum(row[k] for row in by_mode.values()) for k in ["wall", *layers]}

    n_ops = max(len(op_spans), 1)
    recorded = trace.metrics.get("counters", {})
    # Fabric workers' counters reach the parent trace as ``worker.*``.
    counts = {n: recorded.get(n, 0.0) + recorded.get(f"worker.{n}", 0.0)
              for n in COUNTERS}
    metrics = {n: totals[n] / n_ops for n in layers}
    metrics.update({n: counts[n] / n_ops for n in COUNTERS})
    unattributed = totals["wall"] - sum(totals[n] for n in layers)
    metrics["unattributed_s"] = unattributed / n_ops
    metrics["unattributed_pct"] = 100 * _ratio(unattributed, totals["wall"])
    metrics["dp.cells_per_s"] = _ratio(counts["dp.table_cells"], totals["dp.busy_s"])
    metrics["fault_sim.gate_evals_per_s"] = _ratio(
        counts["fault_sim.gate_evals"],
        totals["fault_sim.run_s"] + totals["fault_sim.run_coverage_s"])
    metrics["kernel.cache_hit_ratio"] = _ratio(
        counts["kernel.cache_hits"], counts["kernel.cache_hits"] + counts["kernel.compiles"])
    metrics["fabric.store.hit_ratio"] = _ratio(
        counts["fabric.store.hits"], counts["fabric.store.hits"] + counts["fabric.store.misses"])
    shares = {mode: {n: 100 * _ratio(row[n], row["wall"]) for n in layers}
              for mode, row in by_mode.items()}
    return {"metrics": metrics, "shares": shares}


# ---------------------------------------------------------------------------
# One pass.
# ---------------------------------------------------------------------------
def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_one(workload: str, op: Op, ctx: Context, root: Optional[Path],
            recorder: Optional[obs.RunRecorder]) -> Dict[str, Any]:
    """Time one op (recorded when ``recorder`` is given), then check it.

    Only the op itself is timed and traced; a host-speed probe runs
    right before and right after it, and the check runs afterwards with
    no recorder installed.
    """
    record: Dict[str, Any] = {"index": op.index, "mode": op.mode}
    before = ctx.probe()
    previous = obs.set_recorder(recorder)
    start = time.perf_counter()
    try:
        with obs.span("bench.op", index=op.index, mode=op.mode):
            answer = execute(workload, op, ctx, root)
    except Exception as exc:  # an op that raises is a failed op
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    finally:
        record["seconds"] = time.perf_counter() - start
        obs.set_recorder(previous)
        record["probes"] = [before, ctx.probe()]
    try:
        output = verify(workload, op, ctx, root, answer)
    except CheckFailed as exc:
        record["error"] = f"check failed: {exc}"
        return record
    record["in"] = digest([op.bench, op.n_patterns, op.mode, list(op.plan)])
    record["out"] = digest(output)
    record["quality"] = quality(workload, output)
    if workload in ("tree_dp", "dag_greedy"):
        record["work"] = answer[1].stats  # solver work counts, not digested
    return record


def run_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, then run ops in a closed loop with one client.

    ``spec`` keys: ``workload``, ``seed``, ``workdir`` (private to this
    pass), ``spawn_time`` (wall clock when the parent started this
    process), ``probe`` (the parent's host-speed probe just before
    that), ``start`` (first op index, counted from the start of the
    run), then either ``window_s`` (run ops until their summed time
    reaches it; with ``align``, go on to the end of the op list) or
    ``count`` (run exactly that many; ``"all"`` runs the op list once),
    and ``trace`` (a JSONL path to record, or null).  The sweep's inputs
    and prefilled store live in the parent directory of ``workdir``.
    Returns per-op records plus ``setup_s``, the probes around set-up,
    ``peak_rss_mb`` and, when traced, the per-layer attribution.
    """
    workload = spec["workload"]
    ctx = Context(seed=spec["seed"], workdir=Path(spec["workdir"]))
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    ops = build_ops(workload, ctx.seed)
    warm_up(workload, ctx)
    count = len(ops) if spec.get("count") == "all" else spec.get("count")

    recorder = obs.RunRecorder(spec["trace"]) if spec.get("trace") else None
    records: List[Dict[str, Any]] = []
    busy = 0.0
    index = spec["start"]
    setup_s = time.time() - spec["spawn_time"]
    setup_probes = [spec["probe"], hostspeed.probe()]
    # Campaign ops keep both fabric workers busy; every other op one CPU.
    probe = hostspeed.WideProbe(SWEEP_WORKERS if workload == "sweep_store" else 1)
    ctx.probe = probe
    try:
        while (len(records) < count if count is not None
               else busy < spec["window_s"]
               or (spec.get("align") and index % len(ops))):
            op = ops[index % len(ops)]
            root = prepare_op(workload, ctx)
            record = run_one(workload, op, ctx, root, recorder)
            busy += record["seconds"]
            records.append(record)
            index += 1
    finally:
        probe.close()
        if recorder is not None:
            recorder.close()

    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": records,
        "next": index,
    }
    if recorder is not None:
        result["layers"] = attribute(Path(spec["trace"]))
    return result


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    if spec.get("role") == "prefill":
        prefill(spec["seed"], Path(spec["workdir"]))
        result: Dict[str, Any] = {"ok": True}
    else:
        result = run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
