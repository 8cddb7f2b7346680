#!/usr/bin/env python
"""Seeded fabric chaos campaign: injected mayhem, bit-identical results.

Computes the sweep's ground truth with a plain loop over the per-circuit
function every fabric job executes (``_sweep_one``, no fabric involved),
then runs the sweep repeatedly on the fabric under a probabilistic mix
of every injected fault (worker crashes, stalled heartbeats, corrupt
payloads, spurious exceptions, ENOSPC on journal appends, duplicate
completions) — until a wall-clock budget runs out.  After every round it asserts the fabric's
acceptance bar:

* the outcome list is **bit-identical** to the direct per-circuit
  reference, and
* every job is committed **exactly once** across the journal's whole
  history.

Any violation leaves the journal and quarantine artifacts in
``--out-dir`` and exits 1.  Rounds are deterministic in ``--seed`` (the
round index perturbs the chaos seed), so a failing campaign replays
exactly.

With ``--store`` every round shares one content-addressed result store
and the fault mix gains the four store faults (torn entry, bit flip,
stale schema, double publish) that strike the published entry *after*
its journal commit.  After the budget runs out a final chaos-free pass
re-runs the sweep against the battered store with a fresh journal and
asserts the caching bar: results still bit-identical to the reference,
every cache hit served from the store, and the only misses are the
entries the integrity envelope quarantined as corrupt (``misses ==
corrupt``) — i.e. zero recomputation beyond what corruption forced.

Usage (CI runs this as the chaos-smoke job)::

    python benchmarks/chaos/run_chaos.py --seed 0 --budget-ms 60000 \
        --out-dir chaos-artifacts --store
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.analysis.experiments import _sweep_one, run_circuit_sweep
from repro.circuit import generators, write_bench_file
from repro.core.cascade import DEFAULT_CASCADE
from repro.fabric import quarantine_dir_for
from repro.resilience.chaos import FabricChaosSpec

N_CIRCUITS = 14
N_PATTERNS = 128

#: The probabilistic fault mix each round rolls per (job, attempt).
CHAOS_MIX = dict(
    crash=0.12,
    stall=0.06,
    corrupt=0.12,
    spurious=0.12,
    enospc=0.12,
    duplicate=0.12,
)

#: With ``--store``: the worker faults make room for a store fault band.
#: Store faults only fire when a result store is attached, striking the
#: published entry after its journal commit.
STORE_CHAOS_MIX = dict(
    crash=0.10,
    stall=0.05,
    corrupt=0.10,
    spurious=0.10,
    enospc=0.10,
    duplicate=0.10,
    store_torn=0.08,
    store_bitflip=0.08,
    store_stale=0.07,
    store_double=0.07,
)


def _make_circuits(out_dir: Path, seed: int) -> list:
    d = out_dir / "circuits"
    d.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(N_CIRCUITS):
        circuit = generators.random_dag(5, 22, seed=seed * 1000 + i)
        p = d / f"chaos{i:02d}.bench"
        write_bench_file(circuit, p)
        paths.append(p)
    return paths


def _commit_counts(journal_path: Path) -> dict:
    counts: dict = {}
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn line: crash evidence, not a commit
        if record.get("type") == "commit":
            counts[record["job_id"]] = counts.get(record["job_id"], 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-ms", type=int, default=60_000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-rounds", type=int, default=1_000)
    parser.add_argument("--out-dir", type=Path, default=Path("chaos-artifacts"))
    parser.add_argument(
        "--store",
        action="store_true",
        help=(
            "share a content-addressed result store across rounds, add "
            "the four store faults to the mix, and finish with a "
            "chaos-free zero-recomputation verification pass"
        ),
    )
    args = parser.parse_args(argv)

    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _make_circuits(out_dir, args.seed)

    mix = STORE_CHAOS_MIX if args.store else CHAOS_MIX
    store_dir = out_dir / "store" if args.store else None
    store_kwargs = (
        dict(store=store_dir, store_verify_fraction=0.1)
        if args.store
        else {}
    )

    reference = [
        asdict(_sweep_one(p, N_PATTERNS, 0.001, None, DEFAULT_CASCADE,
                          measure_coverage=True))
        for p in paths
    ]
    print(f"direct reference: {len(reference)} circuits", flush=True)

    deadline = time.monotonic() + args.budget_ms / 1000.0
    rounds = 0
    failures = []
    while time.monotonic() < deadline and rounds < args.max_rounds:
        rounds += 1
        chaos = FabricChaosSpec(
            seed=args.seed * 100_003 + rounds,
            stall_seconds=3.0,
            **mix,
        )
        journal = out_dir / f"round{rounds:03d}.journal"
        fabric = [
            asdict(o)
            for o in run_circuit_sweep(
                paths,
                journal,
                n_patterns=N_PATTERNS,
                measure_coverage=True,
                workers=args.workers,
                lease_timeout_s=1.0,
                chaos=chaos,
                **store_kwargs,
            )
        ]
        counts = _commit_counts(journal)
        problems = []
        if fabric != reference:
            # Quarantines are a legal, visible difference only when the
            # injected fault genuinely exhausted a job's attempts; with
            # first_attempt_only chaos (the default) retries must
            # converge, so *any* difference is a violation.
            problems.append("results differ from the direct reference")
        if any(n != 1 for n in counts.values()):
            problems.append(
                "duplicate commits: "
                + ", ".join(j for j, n in counts.items() if n != 1)
            )
        if len(counts) != N_CIRCUITS:
            problems.append(
                f"expected {N_CIRCUITS} committed jobs, found {len(counts)}"
            )
        if problems:
            failures.append((rounds, chaos.seed, problems))
            print(
                f"round {rounds:3d} seed {chaos.seed}: "
                f"FAIL ({'; '.join(problems)})",
                flush=True,
            )
            continue
        print(
            f"round {rounds:3d} seed {chaos.seed}: ok "
            f"({len(counts)} commits, exactly once)",
            flush=True,
        )
        # Passing rounds clean up after themselves; failing rounds leave
        # their journal and quarantine dirs behind as artifacts.
        journal.unlink()
        shutil.rmtree(quarantine_dir_for(journal), ignore_errors=True)

    if args.store and rounds and not failures:
        # The caching bar: a chaos-free pass against the store every
        # round battered must serve every job from cache — the only
        # legal misses are entries a store fault corrupted (quarantined
        # by the integrity envelope, then recomputed).
        from repro import obs

        recorder = obs.RunRecorder(None)
        with obs.recording(recorder):
            final = [
                asdict(o)
                for o in run_circuit_sweep(
                    paths,
                    out_dir / "final-verify.journal",
                    n_patterns=N_PATTERNS,
                    measure_coverage=True,
                    workers=args.workers,
                    lease_timeout_s=1.0,
                    store=store_dir,
                    store_verify_fraction=0.0,
                )
            ]
        counters = recorder.metrics.snapshot()["counters"]
        hits = int(counters.get("fabric.store.hits", 0))
        misses = int(counters.get("fabric.store.misses", 0))
        corrupt = int(counters.get("fabric.store.corrupt", 0))
        problems = []
        if final != reference:
            problems.append("store-served results differ from the reference")
        if hits + misses != N_CIRCUITS:
            problems.append(
                f"expected {N_CIRCUITS} store lookups, saw "
                f"hits={hits} misses={misses}"
            )
        if misses != corrupt:
            problems.append(
                f"recomputation without corruption: misses={misses} "
                f"corrupt={corrupt}"
            )
        if problems:
            failures.append(("final", args.seed, problems))
            print(
                f"final verify: FAIL ({'; '.join(problems)})", flush=True
            )
        else:
            print(
                f"final verify: ok ({hits} cache hits, {misses} "
                f"corruption-forced recomputes, bit-identical to the reference)",
                flush=True,
            )

    print(
        f"chaos campaign: {rounds} round(s), {len(failures)} failure(s), "
        f"seed {args.seed}",
        flush=True,
    )
    if failures:
        print(
            f"artifacts (journals + quarantine dirs) kept in {out_dir}",
            file=sys.stderr,
        )
        return 1
    if rounds == 0:
        print("budget too small: no chaos round completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
