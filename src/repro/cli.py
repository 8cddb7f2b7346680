"""Command-line interface: ``repro-tpi`` / ``python -m repro``.

Subcommands:

* ``stats <bench|name>`` — circuit statistics and baseline coverage;
* ``insert <bench|name>`` — plan test points and report the placement;
* ``coverage <bench|name>`` — plan, insert, fault simulate, report;
* ``report <bench|name|trace.jsonl>`` — testability profile of a
  circuit, or a human-readable summary of a recorded trace;
* ``experiments`` — run the reconstructed evaluation suite (T1–T4, F1–F4);
* ``sweep`` — plan test points over many netlist files as a supervised
  fabric campaign: per-circuit crash isolation, leased worker processes
  (``--workers N``; 1 runs in-process), content-addressed dedup,
  exactly-once commits to a resumable ``--results`` journal, poison-job
  quarantine;
* ``fabric-status <journal>`` — inspect a fabric journal: commits,
  quarantined jobs, crash evidence (torn lines); ``--store DIR`` adds
  result-store statistics (entries, bytes, hits/misses/corrupt);
* ``pack <journal> --out DIR`` — export an evidence pack (journal,
  verified store entries, quarantine artifacts, ``--include`` extras)
  under a SHA-256 manifest; ``pack <dir> --verify`` re-hashes a pack
  and exits 1 on any mismatch, missing, or unlisted file;
* ``store-gc <store>`` — prune least-recently-used result-store entries
  under ``--max-bytes`` / ``--max-age-days`` caps (leased entries are
  never deleted);
* ``fuzz`` — time-budgeted differential fuzzer over random circuits,
  cross-checking numpy against the interpreter (logic and fault
  simulation, fault dropping, placement passes, incremental deltas
  and gains, batch chunk seams), parallel against serial, DP
  against exhaustive search and, with ``--store``, store round trips;
  failures are shrunk and written as repro bundles;
* ``replay`` — deterministically re-run a divergence repro bundle with
  the same comparison the fuzzer ran and report whether it still
  reproduces; writes nothing;
* ``bench-compare <BENCH_PERF.json>`` — regression-gate fresh benchmark
  numbers against the rolling ``benchmarks/history/`` baseline;
* ``list`` — list built-in benchmark circuits.

A circuit argument is either the name of a built-in benchmark (see
``list``) or a path to an ISCAS-85 ``.bench`` file.

Observability: ``--trace-out FILE`` records a structured JSONL trace of
the run (spans, counters, run metadata — see :mod:`repro.obs`), and
``--metrics`` prints the metrics snapshot after the command finishes.
``repro-tpi report run.jsonl`` renders a recorded trace; ``--self-time``
/ ``--critical-path`` print trace analytics and ``--chrome-out`` exports
Chrome trace-event JSON for Perfetto.  ``--profile-out`` profiles the
command (sampling profiler by default, folded stacks; ``--profile-mode
cprofile`` with optional ``--profile-span``, pstats).  ``bench-compare``
gates a fresh ``BENCH_PERF.json`` against the benchmark history with a
noise-aware tolerance (exit 1 on regression).

Resilience: ``--budget-ms`` / ``--max-cells`` / ``--max-backtracks`` /
``--max-patterns`` impose a cooperative solve budget; the solver then runs
as a degradation cascade (``dp → greedy → random``) that records every
fallback as a ``solver_fallback`` trace event.  Long campaigns handle
SIGTERM/SIGINT gracefully: the in-flight item finishes, its record is
flushed, and the run stops resumably (a second signal kills
immediately).  Exit codes are stable: 0 success, 1 infeasible result,
2 usage/parse error, 3 budget exceeded with no fallback left, 4 other
internal library error, 5 interrupted by signal but resumable (rerun
the same command to continue).

Self-checking: ``--guard [FRACTION]`` (default 0.01 when given) runs the
command inside a :class:`repro.verify.GuardedSession` — a seeded sample
of numpy/incremental results is shadow re-executed on the interpreter
arbiters, and every solver answer is independently certified.  A
mismatch aborts with a replayable repro bundle (exit 4) under
``--bundle-dir`` (default ``repro_bundles/``); ``--guard-seed`` fixes
which results are sampled.  ``repro-tpi replay <bundle>`` exits 0 when
the divergence still reproduces, 1 when it does not.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Iterator, List, Optional

from . import obs
from .analysis import experiments as exps
from .circuit.bench_io import parse_bench_file
from .circuit.verilog_io import parse_verilog_file
from .circuit.library import BENCHMARKS, benchmark, benchmark_names
from .circuit.netlist import Circuit, CircuitError
from .core.cascade import DEFAULT_CASCADE, SOLVER_CASCADE, solve_with_fallback
from .core.evaluate import evaluate_solution, measure_coverage
from .core.prepare import prepare_for_tpi
from .core.greedy import solve_greedy
from .core.heuristic import solve_dp_heuristic
from .core.problem import TPIProblem, TPISolution
from .errors import BudgetExceededError, ParseError, ReproError, SweepInterrupted
from .resilience import Budget
from .resilience.interrupt import GracefulInterrupt
from .sim.compile import DEFAULT_KERNEL, KERNEL_MODES
from .sim.faults import collapse_faults
from .sim.patterns import UniformRandomSource
from .verify import GuardedSession, maybe_certify, replay_bundle

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_INFEASIBLE",
    "EXIT_USAGE",
    "EXIT_BUDGET",
    "EXIT_INTERNAL",
    "EXIT_INTERRUPTED",
]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
#: Stopped by SIGTERM/SIGINT at an item boundary with all completed work
#: flushed durably — rerunning the same command resumes where it stopped.
EXIT_INTERRUPTED = 5


def _usage_exit(message: str) -> SystemExit:
    """A usage error: one stderr line, exit code 2 (argparse's convention)."""
    print(f"repro-tpi: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _check_ranges(args: argparse.Namespace) -> None:
    """Exit 2 on a ``--patterns`` or ``--escape`` value no command can use.

    Runs before the command does, so a bad value never reaches a solver,
    a simulator or a campaign journal.
    """
    patterns = getattr(args, "patterns", None)
    if patterns is not None and patterns < 1:
        raise _usage_exit(f"--patterns must be at least 1, got {patterns}")
    escape = getattr(args, "escape", None)
    if escape is not None and not 0.0 < escape < 1.0:
        raise _usage_exit(
            f"--escape must lie strictly between 0 and 1, got {escape}"
        )


def _load_circuit(spec: str) -> Circuit:
    """Resolve a circuit spec (built-in name or netlist file).

    Malformed files raise :class:`~repro.errors.ParseError` (with
    ``file:line`` where known), which ``main`` maps to exit code 2.
    """
    if spec in BENCHMARKS:
        return benchmark(spec)
    path = Path(spec)
    if not path.exists():
        raise _usage_exit(
            f"unknown circuit {spec!r}: not a built-in benchmark and not a "
            f"file (built-ins: {', '.join(benchmark_names())})"
        )
    try:
        if path.suffix in (".v", ".sv"):
            return parse_verilog_file(path)
        return parse_bench_file(path)
    except ParseError:
        raise
    except CircuitError as exc:
        # Structural errors found after parsing (e.g. validate()) still
        # mean the input file is bad: present them as parse failures.
        raise ParseError(f"failed to parse: {exc}", path=str(path)) from exc


def _load_prepared(args: argparse.Namespace) -> Circuit:
    """Load + TPI-prepare a circuit under the ``prepare`` pipeline span."""
    with obs.span("prepare", circuit=args.circuit):
        return prepare_for_tpi(_load_circuit(args.circuit))


def _budget_from_args(args: argparse.Namespace) -> Optional[Budget]:
    """Build a cooperative :class:`Budget` from the CLI flags (or None)."""
    wall = getattr(args, "budget_ms", None)
    cells = getattr(args, "max_cells", None)
    backtracks = getattr(args, "max_backtracks", None)
    patterns = getattr(args, "max_patterns", None)
    if wall is None and cells is None and backtracks is None and patterns is None:
        return None
    return Budget(
        wall_ms=wall,
        max_dp_cells=cells,
        max_backtracks=backtracks,
        max_patterns=patterns,
    )


def _solve(problem: TPIProblem, args: argparse.Namespace) -> TPISolution:
    """Run the selected solver under the ``solve`` pipeline span.

    With any budget flag set (or ``--solver cascade``), solving goes
    through the degradation cascade so budget exhaustion downgrades to a
    cheaper solver instead of failing the command.
    """
    budget = _budget_from_args(args)
    with obs.span(
        "solve", solver=args.solver, circuit=problem.circuit.name
    ) as sp:
        if budget is not None or args.solver == "cascade":
            start = args.solver if args.solver in DEFAULT_CASCADE else "dp"
            stages = DEFAULT_CASCADE[DEFAULT_CASCADE.index(start):]
            solution = solve_with_fallback(problem, solvers=stages, budget=budget)
        elif args.solver == "greedy":
            solution = maybe_certify(problem, solve_greedy(problem))
        else:
            solution = maybe_certify(problem, solve_dp_heuristic(problem))
        sp.set(
            cost=solution.cost,
            points=len(solution.points),
            feasible=solution.feasible,
        )
    return solution


@contextlib.contextmanager
def _guarded(args: argparse.Namespace) -> Iterator[None]:
    """Install an ambient GuardedSession for ``--guard`` runs."""
    fraction = getattr(args, "guard", None)
    if fraction is None:
        yield
        return
    with GuardedSession(
        fraction=fraction,
        seed=getattr(args, "guard_seed", 0),
        bundle_dir=getattr(args, "bundle_dir", None),
    ) as guard:
        yield
    print(
        f"guard: {guard.checks} shadow checks, "
        f"{guard.divergences} divergences",
        file=sys.stderr,
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .analysis.fuzz import run_fuzz

    report = run_fuzz(
        budget_ms=args.budget_ms,
        seed=args.seed,
        bundle_dir=args.bundle_dir,
        max_gates=args.max_gates,
        n_patterns=args.patterns,
        store=args.store,
    )
    print(report.describe())
    if report.failures:
        for failure in report.failures:
            print(f"repro-tpi: divergence: {failure}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        result = replay_bundle(args.bundle)
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro-tpi: cannot replay {args.bundle!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(result.describe())
    return EXIT_OK if result.reproduced else EXIT_INFEASIBLE


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in benchmark_names():
        circuit = benchmark(name)
        stats = circuit.stats()
        print(
            f"{name:14s} inputs={stats['inputs']:4d} gates={stats['gates']:5d} "
            f"depth={stats['depth']:3d} outputs={stats['outputs']:3d}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with obs.span("prepare", circuit=args.circuit):
        circuit = _load_circuit(args.circuit)
        stats = circuit.stats()
        collapsed = collapse_faults(circuit)
    for key, value in stats.items():
        print(f"{key:10s} {value}")
    print(f"{'faults':10s} {collapsed.size()} (collapsed)")
    res = measure_coverage(
        circuit,
        args.patterns,
        UniformRandomSource(seed=args.seed),
        faults=collapsed.representatives,
        jobs=args.jobs,
        mode="coverage" if args.drop else "exact",
        kernel=args.kernel,
    )
    print(f"{'coverage':10s} {100 * res.coverage():.2f}% @ {args.patterns} patterns")
    return 0


def _make_problem(circuit: Circuit, args: argparse.Namespace) -> TPIProblem:
    return TPIProblem.from_test_length(
        circuit, n_patterns=args.patterns, escape_budget=args.escape
    )


def _cmd_insert(args: argparse.Namespace) -> int:
    circuit = _load_prepared(args)
    problem = _make_problem(circuit, args)
    solution = _solve(problem, args)
    print(f"threshold θ = {problem.threshold:.6f}")
    print(solution.describe())
    return 0 if solution.feasible else 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    circuit = _load_prepared(args)
    problem = _make_problem(circuit, args)
    solution = _solve(problem, args)
    report = evaluate_solution(
        problem,
        solution,
        args.patterns,
        jobs=getattr(args, "jobs", 1),
        mode="coverage" if getattr(args, "drop", False) else "exact",
        kernel=getattr(args, "kernel", None),
    )
    print(f"circuit        {report.circuit_name}")
    print(f"faults         {report.n_faults}")
    print(f"test points    {report.n_control} CP + {report.n_observation} OP")
    print(f"coverage       {100 * report.baseline_coverage:.2f}% -> "
          f"{100 * report.modified_coverage:.2f}%  (+{100 * report.coverage_gain:.2f})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = args.circuit
    trace_flags = (
        getattr(args, "self_time", False)
        or getattr(args, "critical_path", False)
        or getattr(args, "chrome_out", None) is not None
    )
    if Path(spec).suffix == ".jsonl":
        # A recorded trace, not a circuit: render its summary/analytics.
        if not Path(spec).exists():
            raise SystemExit(f"no such trace file: {spec!r}")
        trace = obs.load_trace(spec)
        sections: List[str] = []
        if args.self_time:
            sections.append(obs.render_self_time(trace.spans))
        if args.critical_path:
            sections.append(obs.render_critical_path(trace.spans))
        if not sections:
            sections.append(obs.render_trace(spec))
        print("\n\n".join(sections))
        if args.chrome_out is not None:
            obs.write_chrome_trace(trace, args.chrome_out)
            print(
                f"chrome trace written to {args.chrome_out} "
                f"(open in Perfetto or chrome://tracing)",
                file=sys.stderr,
            )
        return 0
    if trace_flags:
        raise _usage_exit(
            "--self-time/--critical-path/--chrome-out need a recorded "
            f"trace (.jsonl), not a circuit ({spec!r})"
        )

    from .analysis import testability_report

    circuit = _load_circuit(spec)
    report = testability_report(
        circuit, n_patterns=args.patterns, escape_budget=args.escape
    )
    print(report.render())
    return 0


def _refuse_foreign_results(path: str) -> None:
    """Exit 2 when ``--results`` names a file that is not a fabric journal.

    A checkpoint written by the removed serial runner decodes fine but
    holds no journal record, so the campaign would silently recompute
    everything and append a journal to it.  Library callers keep the
    journal's own policy (foreign records preserved and ignored).
    """
    from .fabric import journal_status

    if not Path(path).exists():
        return
    status = journal_status(path)
    if status["foreign_records"] and not (
        status["commits"] or status["quarantined"]
    ):
        raise _usage_exit(
            f"{path} is not a fabric journal ({status['foreign_records']} "
            f"foreign records, no commits): it looks like an old serial "
            f"checkpoint; pass a new journal path to --results"
        )


def _cmd_experiments(args: argparse.Namespace) -> int:
    runners = exps.experiment_runners()
    selected = args.only or list(runners)
    for key in selected:
        if key not in runners:
            raise _usage_exit(
                f"unknown experiment {key!r} (choose from {list(runners)})"
            )
    if args.store is not None and args.results is None:
        raise _usage_exit(
            "--store needs --results (the campaign journal the store "
            "entries are committed to)"
        )
    if args.results is not None:
        # Fabric campaign: crash-isolated, resumable per experiment.
        _refuse_foreign_results(args.results)
        with GracefulInterrupt() as stop:
            records = exps.run_experiments_checkpointed(
                selected,
                args.results,
                workers=args.workers,
                interrupt=stop,
                store=args.store,
                store_verify_fraction=args.store_verify,
            )
        failures = 0
        for record in records:
            if record["status"] == "ok":
                print(record["rendered"])
            else:
                failures += 1
                print(
                    f"[{record['experiment']}] FAILED "
                    f"({record['error_type']}): {record['error']}",
                    file=sys.stderr,
                )
            print()
        print(
            f"results written to {args.results} "
            f"({len(records) - failures} ok, {failures} failed)",
            file=sys.stderr,
        )
        return EXIT_OK if failures == 0 else EXIT_INFEASIBLE
    for key in selected:
        with obs.span(f"experiment.{key}"):
            rendered = runners[key]().render()
        print(rendered)
        print()
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    paths: List[Path] = []
    for spec in args.paths:
        p = Path(spec)
        if p.is_dir():
            paths.extend(
                sorted(
                    q
                    for q in p.iterdir()
                    if q.suffix in (".bench", ".v", ".sv")
                )
            )
        elif p.exists():
            paths.append(p)
        else:
            raise _usage_exit(f"no such file or directory: {spec!r}")
    if not paths:
        raise _usage_exit("no netlist files (.bench/.v/.sv) to sweep")
    _refuse_foreign_results(args.results)
    with GracefulInterrupt() as stop:
        outcomes = exps.run_circuit_sweep(
            paths,
            args.results,
            n_patterns=args.patterns,
            escape_budget=args.escape,
            budget=_budget_from_args(args),
            solvers=tuple(args.solvers),
            max_circuits=args.max_circuits,
            measure_coverage=args.measure_coverage,
            jobs=args.jobs,
            workers=args.workers,
            lease_timeout_s=args.lease_timeout,
            interrupt=stop,
            store=args.store,
            store_verify_fraction=args.store_verify,
        )
    for outcome in outcomes:
        print(outcome.describe())
    n_failed = sum(1 for o in outcomes if not o.ok)
    remaining = len(paths) - len(outcomes)
    summary = (
        f"swept {len(outcomes)}/{len(paths)} circuits: "
        f"{len(outcomes) - n_failed} ok, {n_failed} failed"
    )
    if remaining:
        summary += f", {remaining} not yet run"
    print(f"{summary} (results: {args.results})", file=sys.stderr)
    return EXIT_OK


def _cmd_fabric_status(args: argparse.Namespace) -> int:
    from .fabric import format_status, journal_status

    try:
        status = journal_status(args.journal, store=args.store)
    except FileNotFoundError as exc:
        raise _usage_exit(str(exc))
    if args.json:
        import json

        print(json.dumps(status, sort_keys=True, indent=2))
    else:
        print(format_status(status))
    return EXIT_OK


def _cmd_pack(args: argparse.Namespace) -> int:
    import json

    from .fabric.pack import build_pack, pack_status_line, verify_pack

    if args.verify:
        if args.out or args.store or args.include:
            raise _usage_exit(
                "--verify takes only a pack directory (build options "
                "--out/--store/--include do not apply)"
            )
        report = verify_pack(args.target)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        else:
            print(report.describe())
        return EXIT_OK if report.ok else EXIT_INFEASIBLE
    if not args.out:
        raise _usage_exit("pack needs --out DIR (or --verify on a pack)")
    try:
        manifest = build_pack(
            args.target,
            args.out,
            store=args.store,
            include=args.include or (),
        )
    except (FileNotFoundError, FileExistsError) as exc:
        raise _usage_exit(str(exc))
    if args.json:
        print(json.dumps(manifest, sort_keys=True, indent=2))
    else:
        print(f"evidence pack   {args.out}")
        print(f"  {pack_status_line(manifest)}")
        print(f"  manifest      {Path(args.out) / 'MANIFEST.json'}")
    return EXIT_OK


def _cmd_store_gc(args: argparse.Namespace) -> int:
    import json

    from .fabric import ResultStore

    if args.max_bytes is None and args.max_age_days is None:
        raise _usage_exit(
            "store-gc needs at least one cap: --max-bytes and/or "
            "--max-age-days"
        )
    store_dir = Path(args.store)
    if not store_dir.is_dir():
        raise _usage_exit(f"no result store at {store_dir}")
    report = ResultStore(store_dir).gc(
        max_bytes=args.max_bytes, max_age_days=args.max_age_days
    )
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(
            f"store-gc {store_dir}: deleted {report['deleted']} of "
            f"{report['scanned']} entries ({report['freed_bytes']} bytes "
            f"freed, {report['protected']} lease-protected, "
            f"{report['kept']} kept / {report['kept_bytes']} bytes)"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------
def _run_metadata(args: argparse.Namespace) -> dict:
    meta = {"command": args.command, "argv": sys.argv[1:]}
    for key in (
        "circuit",
        "seed",
        "patterns",
        "escape",
        "solver",
        "kernel",
        "only",
        "results",
        "budget_ms",
        "max_cells",
        "max_backtracks",
        "max_patterns",
    ):
        value = getattr(args, key, None)
        if value is not None:
            meta[key] = value
    return obs.run_metadata(**meta)


@contextlib.contextmanager
def _observability(args: argparse.Namespace) -> Iterator[None]:
    """Install a recorder for ``--trace-out`` / ``--metrics`` runs."""
    trace_out = getattr(args, "trace_out", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_out is None and not want_metrics:
        yield
        return
    recorder = obs.RunRecorder(trace_out, metadata=_run_metadata(args))
    previous = obs.set_recorder(recorder)
    try:
        yield
    finally:
        obs.set_recorder(previous)
        snapshot = recorder.metrics.snapshot()
        recorder.close()
        if want_metrics:
            print("\n" + obs.render_metrics(snapshot), file=sys.stderr)
        if trace_out is not None:
            print(
                f"trace written to {trace_out} "
                f"({recorder.n_spans} spans)",
                file=sys.stderr,
            )


@contextlib.contextmanager
def _profiled(args: argparse.Namespace) -> Iterator[None]:
    """Run the command under ``--profile-out`` profiling, if requested.

    ``--profile-mode sample`` (default) runs the sampling profiler and
    writes folded stacks; ``cprofile`` runs deterministic cProfile,
    optionally scoped to ``--profile-span NAME`` spans, and writes a
    pstats dump.
    """
    out = getattr(args, "profile_out", None)
    if out is None:
        yield
        return
    mode = getattr(args, "profile_mode", "sample")
    if mode == "sample":
        span_name = getattr(args, "profile_span", None)
        if span_name is not None:
            raise _usage_exit(
                "--profile-span needs --profile-mode cprofile "
                "(the sampler profiles the whole command)"
            )
        interval_ms = getattr(args, "profile_interval_ms", 5.0)
        try:
            sampler = obs.SamplingProfiler(interval_s=interval_ms / 1000.0)
        except ValueError as exc:
            raise _usage_exit(f"--profile-interval-ms: {exc}")
        with sampler:
            yield
        sampler.write_folded(out)
        print(
            f"profile: {sampler.samples} samples over "
            f"{sampler.elapsed_s:.2f}s -> {out} "
            f"(folded stacks; render with flamegraph.pl or speedscope)",
            file=sys.stderr,
        )
        return
    profile = obs.SpanScopedProfile(span_name=getattr(args, "profile_span", None))
    with contextlib.ExitStack() as stack:
        if profile.span_name is not None and not obs.enabled():
            # Span scoping needs real spans; without --trace-out/--metrics
            # the hot path hands out NULL_SPANs, so install a metrics-only
            # recorder for the profiled extent.
            stack.enter_context(obs.recording(obs.RunRecorder(None)))
        stack.enter_context(profile)
        yield
    profile.write_stats(out)
    scope = (
        f"spans named {profile.span_name!r}"
        if profile.span_name is not None
        else "the whole command"
    )
    print(
        f"profile: cProfile of {scope} -> {out} "
        f"(inspect with python -m pstats)",
        file=sys.stderr,
    )


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json

    from .obs import history as hist

    try:
        payload = json.loads(Path(args.current).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _usage_exit(f"cannot read benchmark payload {args.current!r}: {exc}")
    if not isinstance(payload, dict):
        raise _usage_exit(f"not a BENCH_PERF payload: {args.current!r}")
    current = hist.entries_from_bench_perf(payload, git_rev=obs.git_revision())
    if not current:
        raise _usage_exit(f"no benchmarks in payload {args.current!r}")
    history = hist.load_history(args.history)
    report = hist.compare_to_history(
        history,
        current,
        tolerance=args.tolerance,
        window=args.window,
        same_host_only=args.same_host_only,
        relative_only=args.relative_only,
    )
    print(hist.render_comparison(report, verbose=args.verbose))
    if args.record:
        hist.append_history(args.history, current)
        print(
            f"recorded {len(current)} entries to {args.history}",
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-tpi",
        description="Dynamic-programming test point insertion (DAC 1987 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in benchmark circuits").set_defaults(
        fn=_cmd_list
    )

    def add_observability(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="record a structured JSONL trace of the run",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="print the metrics snapshot after the command",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit", help="benchmark name, .bench file, or structural .v file")
        p.add_argument("--patterns", type=int, default=4096, help="pattern budget")
        p.add_argument("--escape", type=float, default=0.001, help="escape budget ε")
        p.add_argument("--seed", type=int, default=1, help="pattern source seed")

    def add_profile(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "profiling",
            "opt-in profiler around the whole command; zero cost when "
            "--profile-out is not given",
        )
        g.add_argument(
            "--profile-out", metavar="FILE",
            help="write a profile of the run: folded stacks "
            "(--profile-mode sample) or a pstats dump (cprofile)",
        )
        g.add_argument(
            "--profile-mode", choices=["sample", "cprofile"],
            default="sample",
            help="sampling profiler (flamegraph-ready folded stacks, "
            "default) or deterministic cProfile",
        )
        g.add_argument(
            "--profile-span", metavar="NAME", default=None,
            help="with cprofile: only profile while a span of this name "
            "is open (e.g. solve, fault_sim.run)",
        )
        g.add_argument(
            "--profile-interval-ms", type=float, default=5.0, metavar="MS",
            help="sampling interval (default 5 ms)",
        )

    def add_simflags(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "fault simulation",
            "performance knobs; coverage numbers are bit-identical "
            "for every setting",
        )
        g.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="fan the fault list out over N worker processes",
        )
        g.add_argument(
            "--drop", action="store_true",
            help="coverage-only fault dropping (skips full detection words)",
        )
        g.add_argument(
            "--kernel", choices=list(KERNEL_MODES), default=DEFAULT_KERNEL,
            help="word-parallel numpy engine (default) or the interpreted "
            "ground-truth gate walk",
        )

    def add_guard(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "self-checking",
            "shadow-verify a sampled fraction of fast-path results "
            "against the interpreted arbiter and certify solver output; "
            "a mismatch aborts with a replayable repro bundle (exit 4)",
        )
        g.add_argument(
            "--guard", type=float, nargs="?", const=0.01, default=None,
            metavar="FRACTION",
            help="enable guard mode, checking FRACTION of results "
            "(default 0.01 when the flag is given bare)",
        )
        g.add_argument(
            "--guard-seed", type=int, default=0, metavar="N",
            help="seed of the guard's sampling stream",
        )
        g.add_argument(
            "--bundle-dir", default=None, metavar="DIR",
            help="where divergence repro bundles are written "
            "(default: repro_bundles/)",
        )

    def add_store(g) -> None:
        g.add_argument(
            "--store", metavar="DIR", default=None,
            help="cross-campaign result store: verified cache hits skip "
            "recomputation, fresh commits are published back",
        )
        g.add_argument(
            "--store-verify", type=float, default=0.05, metavar="FRACTION",
            help="seeded fraction of store hits re-executed and compared "
            "bit-exact against the cache (default 0.05; a mismatch "
            "aborts with a repro bundle)",
        )

    def add_budget(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "solve budget",
            "cooperative limits; when any is set the solver degrades "
            "dp → greedy → random instead of failing (exit 3 only when "
            "the whole cascade runs out)",
        )
        g.add_argument(
            "--budget-ms", type=float, metavar="MS",
            help="wall-clock budget per solve stage (milliseconds)",
        )
        g.add_argument(
            "--max-cells", type=int, metavar="N",
            help="max DP table cells per solve stage",
        )
        g.add_argument(
            "--max-backtracks", type=int, metavar="N",
            help="max cumulative PODEM backtracks",
        )
        g.add_argument(
            "--max-patterns", type=int, metavar="N",
            help="max simulated pattern-fault pairs",
        )

    p = sub.add_parser("stats", help="circuit statistics and baseline coverage")
    add_common(p)
    add_observability(p)
    add_profile(p)
    add_simflags(p)
    add_guard(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("insert", help="plan test points and print the placement")
    add_common(p)
    add_observability(p)
    add_profile(p)
    add_budget(p)
    add_guard(p)
    p.add_argument("--solver", choices=["dp", "greedy", "cascade"], default="dp")
    p.set_defaults(fn=_cmd_insert)

    p = sub.add_parser("coverage", help="plan, insert, fault simulate, report")
    add_common(p)
    add_observability(p)
    add_profile(p)
    add_budget(p)
    add_simflags(p)
    add_guard(p)
    p.add_argument("--solver", choices=["dp", "greedy", "cascade"], default="dp")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser(
        "sweep",
        help="plan test points over many netlist files as a fabric "
        "campaign; crash-isolated, journaled to --results, resumable",
    )
    p.add_argument(
        "paths", nargs="+",
        help="netlist files and/or directories of .bench/.v/.sv files",
    )
    p.add_argument(
        "--results", required=True, metavar="FILE",
        help="fabric journal (appended; a rerun resumes from it — use a "
        "new path to start over)",
    )
    p.add_argument("--patterns", type=int, default=1024, help="pattern budget")
    p.add_argument("--escape", type=float, default=0.001, help="escape budget ε")
    p.add_argument(
        "--solvers", nargs="+", choices=list(SOLVER_CASCADE),
        default=list(DEFAULT_CASCADE), metavar="SOLVER",
        help=f"cascade stages, most precise first (default: {' '.join(DEFAULT_CASCADE)})",
    )
    p.add_argument(
        "--max-circuits", type=int, metavar="N",
        help="stop after N new circuits (for staged / interrupted runs)",
    )
    p.add_argument(
        "--measure-coverage", action="store_true",
        help="insert each solution and record measured before/after "
        "coverage (fault-dropping simulation)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for coverage fault simulation",
    )
    g = p.add_argument_group(
        "fabric",
        "supervised campaign execution: leased worker processes, "
        "content-addressed dedup, exactly-once journal commits, "
        "poison-job quarantine",
    )
    g.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (default 2; 1 runs every job in-process)",
    )
    g.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="liveness window per leased job: a worker that stops "
        "heartbeating this long is declared dead and its job "
        "re-dispatched (default 30)",
    )
    add_store(g)
    add_observability(p)
    add_profile(p)
    add_budget(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "fabric-status",
        help="inspect a fabric journal: commits, quarantined jobs, "
        "crash evidence",
    )
    p.add_argument(
        "journal", help="fabric journal file (sweep/experiments --results)"
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="also report this result store's statistics (entries, "
        "bytes, hits/misses/corrupt-quarantined)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the human summary",
    )
    p.set_defaults(fn=_cmd_fabric_status)

    p = sub.add_parser(
        "pack",
        help="export a campaign evidence pack under a SHA-256 manifest, "
        "or --verify an existing pack (exit 1 on any mismatch)",
    )
    p.add_argument(
        "target",
        help="fabric journal to pack, or (with --verify) a pack directory",
    )
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="target directory for the new pack (must be empty)",
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="result store whose verified entries back the journal's "
        "commits (corrupt entries are skipped, never vouched for)",
    )
    p.add_argument(
        "--include", nargs="*", metavar="PATH", default=None,
        help="extra files/directories (traces, BENCH artifacts) copied "
        "under extra/",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="re-hash an existing pack against its manifest instead of "
        "building one (exit 0 clean, 1 on mismatch/missing/unlisted)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON (manifest or verification report)",
    )
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser(
        "store-gc",
        help="prune least-recently-used result-store entries under "
        "--max-bytes/--max-age-days caps (leased entries survive)",
    )
    p.add_argument("store", help="result store directory (sweep --store)")
    p.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="prune oldest-recency entries until the store fits N bytes",
    )
    p.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune entries not read or written in DAYS days",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON report",
    )
    p.set_defaults(fn=_cmd_store_gc)

    p = sub.add_parser(
        "report",
        help="testability profile of a circuit, or summary/analytics of a "
        ".jsonl trace",
    )
    add_common(p)
    g = p.add_argument_group(
        "trace analytics", "only valid when the argument is a .jsonl trace"
    )
    g.add_argument(
        "--self-time", action="store_true",
        help="per-span-name table of cumulative vs self time",
    )
    g.add_argument(
        "--critical-path", action="store_true",
        help="longest root-to-leaf span chain with per-step self time",
    )
    g.add_argument(
        "--chrome-out", metavar="FILE",
        help="export the trace as Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "bench-compare",
        help="gate a BENCH_PERF.json against the benchmark history "
        "(exit 0: within tolerance, 1: regression, 2: unreadable)",
    )
    p.add_argument("current", help="BENCH_PERF.json produced by run_perf.py")
    p.add_argument(
        "--history", default="benchmarks/history/history.jsonl",
        metavar="FILE", help="JSONL benchmark history to compare against",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.15, metavar="FRACTION",
        help="minimum fractional regression gate (default 0.15; the "
        "gate widens automatically on noisy baselines)",
    )
    p.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="trailing history records feeding the baseline median",
    )
    p.add_argument(
        "--record", action="store_true",
        help="append this run to the history after comparing",
    )
    p.add_argument(
        "--same-host-only", action="store_true",
        help="only compare against history from this host fingerprint",
    )
    p.add_argument(
        "--relative-only", action="store_true",
        help="gate only machine-relative metrics (speedup*/overhead*); "
        "use for cross-host CI",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="also print passing metrics and skip reasons",
    )
    p.set_defaults(fn=_cmd_bench_compare)

    p = sub.add_parser("experiments", help="run the evaluation suite")
    p.add_argument(
        "--only",
        nargs="*",
        help="subset of experiment ids (t1..t4, f1..f4, e1..e5)",
    )
    p.add_argument(
        "--results", metavar="FILE",
        help="fabric journal: run the suite as a campaign that isolates "
        "experiment failures and resumes committed experiments from it",
    )
    g = p.add_argument_group(
        "fabric", "supervised campaign over a worker pool (with --results)"
    )
    g.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default 1: every experiment in-process)",
    )
    add_store(g)
    add_observability(p)
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzer: cross-check numpy fault sim, "
        "fault dropping, placement passes, incremental deltas and "
        "gains, batch chunk seams and parallel runs against their "
        "arbiters, and DP vs exhaustive, on random circuits",
    )
    p.add_argument(
        "--budget-ms", type=float, default=60_000.0, metavar="MS",
        help="wall-clock fuzz budget (default 60000)",
    )
    p.add_argument("--seed", type=int, default=0, help="fuzzer seed")
    p.add_argument(
        "--max-gates", type=int, default=40, metavar="N",
        help="largest random circuit to generate",
    )
    p.add_argument(
        "--patterns", type=int, default=64, metavar="N",
        help="patterns per simulation lane (default 64; >64 drives "
        "multi-word batches and partial last words)",
    )
    p.add_argument(
        "--bundle-dir", default="repro_bundles", metavar="DIR",
        help="where failure repro bundles are written",
    )
    p.add_argument(
        "--store", action="store_true",
        help="add the result-store lane: publish each circuit's sweep "
        "result to a throwaway store, read it back through the "
        "integrity envelope, and assert cached == recomputed",
    )
    add_observability(p)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "replay",
        help="re-run a divergence repro bundle deterministically with "
        "the comparison the fuzzer or guard ran; writes nothing "
        "(exit 0: reproduced, 1: not reproduced, 2: unreadable)",
    )
    p.add_argument("bundle", help="bundle directory or its manifest.json")
    p.set_defaults(fn=_cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Every deliberate library error (:class:`~repro.errors.ReproError`) is
    caught here and rendered as one stderr line with a stable exit code:
    2 usage/parse, 3 budget exceeded, 5 signal-interrupted but
    resumable, 4 anything else.
    """
    args = build_parser().parse_args(argv)
    _check_ranges(args)
    try:
        with _observability(args), _profiled(args), _guarded(args):
            return args.fn(args)
    except SweepInterrupted as exc:
        print(
            f"repro-tpi: {exc} — completed work is flushed; rerun the "
            f"same command to resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except BudgetExceededError as exc:
        print(f"repro-tpi: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"repro-tpi: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"repro-tpi: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
