"""Pipeline benchmark: end-to-end TPI workloads with per-layer attribution.

Usage::

    python3 benchmarks/pipeline/run_pipeline.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
        [--write-golden]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in turn.
Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  The ``--seconds`` of
timed op work are split over passes, each in a fresh interpreter, one at
a time; a pass continues the op list where the previous one stopped, and
the last one runs on to the end of the list.

``--trace 0`` runs three untimed-set-up passes and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced pass and replays
its ops in a traced pass, and reports the per-layer metrics (and the
tracing overhead as the ratio of the two).  Metric names, units and
bounds come from ``BENCHMARK.json`` at the repository root.

End-to-end timings are in reference seconds: each op's and each set-up's
wall time, rescaled by the host-speed probes run around it (see
``hostspeed.py``), so that the shared host's slow spells do not read as
slow code.

The last line on standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every op passed its checks, 1 when any failed, 2 when the
repository sources are missing or the arguments are wrong.  This script
never imports the library itself; passes run ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden_seed0.json"
#: Scratch space inside the checkout (pass work dirs, temp files).
WORK = ROOT / ".pipeline_work"
PASSES = 3
#: Each workload's run must end within this many seconds, children included.
RUN_LIMIT_S = 170.0


class PassFailed(Exception):
    """A pass process crashed or timed out: no metrics can be trusted."""


def child_command(spec_path: Path) -> List[str]:
    """Command line of one pass process."""
    return [sys.executable, str(HERE / "workloads.py"), str(spec_path)]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # Temp files (fabric worker sockets included) stay in the checkout,
    # and git never looks above it for a repository.
    env["TMPDIR"] = str(WORK / "tmp")
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(spec: Dict[str, Any], workdir: Path, deadline: float) -> Dict[str, Any]:
    """Run one pass (or the prefill) in a fresh interpreter and return its
    result.  The child gets its own process group, which is killed once
    it exits, so no fabric worker outlives its pass."""
    tag = spec.get("tag", spec.get("role"))
    spec_path = workdir / f"{tag}.spec.json"
    spec = dict(spec, result=str(workdir / f"{tag}.result.json"))
    spec.setdefault("workdir", str(workdir / tag))
    spec["probe"] = hostspeed.probe()
    spec["spawn_time"] = time.time()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        child_command(spec_path),
        cwd=ROOT,
        env=_child_env(),
        stdout=2,  # the last stdout line is ours: child output goes to fd 2
        start_new_session=True,
    )
    try:
        returncode = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{tag} exceeded the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        _kill_group(proc.pid)
        proc.wait()
    if returncode != 0:
        raise PassFailed(f"{tag} exited with code {returncode}")
    return json.loads(Path(spec["result"]).read_text())


def _schedule(args: argparse.Namespace, workload: str, workdir: Path,
              deadline: float) -> List[Dict[str, Any]]:
    """Run the passes of one workload; returns their results in order."""
    base = {"workload": workload, "seed": args.seed, "trace": None}
    if args.write_golden:
        return [run_child(dict(base, tag="golden", start=0, count="all"),
                          workdir, deadline)]
    results: List[Dict[str, Any]] = []
    if args.trace:
        plain = run_child(dict(base, tag="untraced", start=0, align=True,
                               window_s=args.seconds / 2), workdir, deadline)
        trace_dir = Path(args.trace_dir) if args.trace_dir else workdir
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_child(
            dict(base, tag="traced", start=0, count=len(plain["ops"]),
                 trace=str((trace_dir / f"{workload}.jsonl").resolve())),
            workdir, deadline)
        return [plain, traced]
    start, busy = 0, 0.0
    for k in range(PASSES):
        last = k == PASSES - 1
        # The last pass finishes the op list, so every run times whole
        # cycles of it and the op mix never depends on where time ran out.
        window = args.seconds - busy if last else args.seconds / PASSES
        result = run_child(dict(base, tag=f"pass{k}", start=start, align=last,
                                window_s=window), workdir, deadline)
        start = result["next"]
        busy += sum(op["seconds"] for op in result["ops"])
        results.append(result)
    return results


def _check_digests(workload: str, results: List[Dict[str, Any]],
                   golden: Optional[Dict[str, Any]]) -> None:
    """Fail ops whose output differs from an earlier op with the same
    index, or, for the default seed, from the committed golden digests."""
    seen: Dict[int, List[str]] = {}
    expected = None if golden is None else golden.get(workload, {})
    for result in results:
        for op in result["ops"]:
            if "error" in op:
                continue
            digests = [op["in"], op["out"]]
            first = seen.setdefault(op["index"], digests)
            if digests != first:
                op["error"] = "output differs from an earlier run of this op"
            elif expected is not None and expected.get(str(op["index"])) != digests:
                op["error"] = f"digests differ from {GOLDEN.name}"


def ref_seconds(op: Dict[str, Any]) -> float:
    """An op's wall time in reference seconds, rescaled by its probes."""
    return op["seconds"] * hostspeed.scale(*op["probes"])


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Timings in reference seconds.  ``op_p50_gmean_s`` is each op's
    median over its repeats, averaged geometrically over the op list, so
    small and large ops weigh alike and no single sample sets it."""
    by_op: Dict[int, List[float]] = {}
    for r in results:
        for op in r["ops"]:
            by_op.setdefault(op["index"], []).append(ref_seconds(op))
    times = [t for repeats in by_op.values() for t in repeats]
    return {
        "setup_s": statistics.median(
            r["setup_s"] * hostspeed.scale(*r["setup_probes"]) for r in results),
        "ops_per_s": len(times) / sum(times),
        "op_p50_gmean_s": statistics.geometric_mean(
            statistics.median(repeats) for repeats in by_op.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(results: List[Dict[str, Any]]) -> Dict[str, float]:
    plain, traced = results
    metrics = dict(traced["layers"]["metrics"])
    plain_s = sum(ref_seconds(op) for op in plain["ops"])
    traced_s = sum(ref_seconds(op) for op in traced["ops"])
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    # What the end-to-end timings are rescaled from: untraced wall time
    # and the host's slowdown against the reference (1 = full speed).
    metrics["wall.ops_per_s"] = len(plain["ops"]) / sum(
        op["seconds"] for op in plain["ops"])
    metrics["host.slowdown"] = statistics.median(
        p for op in plain["ops"] for p in op["probes"]) / hostspeed.PROBE_REF_S
    ops = [op for r in results for op in r["ops"] if "error" not in op]
    costs = [op["quality"]["cost"] for op in ops if "cost" in op["quality"]]
    covs = [op["quality"]["coverage"] for op in ops if "coverage" in op["quality"]]
    metrics["plan.cost_per_op"] = sum(costs) / len(costs) if costs else 0.0
    metrics["coverage.after_pct"] = 100 * sum(covs) / len(covs) if covs else 0.0
    # Solver work as the solver reports it (greedy only; zero elsewhere).
    work = [op.get("work", {}) for op in ops]
    for name, key in (("greedy.evaluations", "evaluations"),
                      ("incremental.nodes", "incremental_nodes")):
        metrics[name] = sum(w.get(key, 0.0) for w in work) / max(len(work), 1)
    return metrics


def _report(workload: str, args: argparse.Namespace, results, metrics,
            units: Dict[str, str], attempted: int, failures: List[str]) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {workload}  seed={args.seed}  {mode}  passes={len(results)}  "
          f"ops={attempted}  failed={len(failures)}  "
          f"failed_ratio={len(failures) / max(attempted, 1):.3f}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:>14.6g} {units.get(name, '')}")
    if not args.trace:
        times = [ref_seconds(op) for r in results for op in r["ops"]]
        print(f"  {'op_p50_s':32s} {statistics.median(times):>14.6g} s")
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            print(f"  {'op_p90_s':32s} {p90:>14.6g} s")
    else:
        for mode_name, shares in sorted(results[1]["layers"]["shares"].items()):
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            text = ", ".join(f"{k} {v:.1f}%" for k, v in top if v > 0)
            print(f"  share of {mode_name} op wall: {text}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")


def run_workload(args: argparse.Namespace, workload: str, bench: Dict[str, Any],
                 golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if workload == "sweep_store":
            # The sweep's inputs and prefilled store, shared by its passes.
            run_child({"role": "prefill", "seed": args.seed,
                       "workdir": str(workdir)}, workdir, deadline)
        results = _schedule(args, workload, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _check_digests(workload, results,
                   golden if args.seed == 0 and not args.write_golden else None)
    ops = [op for r in results for op in r["ops"]]
    failures = [f"op {op['index']}: {op['error']}" for op in ops if "error" in op]
    metrics = per_layer(results) if args.trace else end_to_end(results)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    _report(workload, args, results, metrics, units, len(ops), failures)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "golden": {str(op["index"]): [op["in"], op["out"]]
                   for op in ops if "error" not in op},
    }


def _parse(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed op seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="keep the traced pass's JSONL here")
    parser.add_argument("--out", help="also write the result object here")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"run each op list once with --seed 0 and "
                             f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    if args.write_golden and (args.seed != 0 or args.trace):
        parser.error("--write-golden needs --seed 0 and --trace 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run_pipeline: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    args = _parse(argv, workloads)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    selected = [args.workload] if args.workload else workloads
    try:
        outcome = {w: run_workload(args, w, bench, golden) for w in selected}
    except PassFailed as exc:
        print(f"run_pipeline: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.write_golden and all(r["correct"] for r in outcome.values()):
        GOLDEN.write_text(json.dumps(
            {w: r["golden"] for w, r in sorted(outcome.items())},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    if len(selected) == 1:
        metrics = outcome[selected[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in outcome.items()
                   for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in outcome.values()),
        "attempted": sum(r["attempted"] for r in outcome.values()),
        "failed": sum(r["failed"] for r in outcome.values()),
        "metrics": metrics,
    }
    line = json.dumps(summary)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
