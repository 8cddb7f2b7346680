"""Replayable repro bundles for divergence failures.

A bundle is a self-contained directory — circuit ``.bench``, manifest
with every replay input (seeds, pattern configs, the fast backend's
name, both results) — written **atomically** so a crash mid-divergence never leaves
a torn artifact.  ``repro-tpi replay <bundle>`` re-executes the recorded
comparison deterministically (see :mod:`repro.verify.replay`).

Bundle directories are content-addressed (``<kind>-<sha256[:12]>``), so
re-hitting the same divergence reuses the existing bundle instead of
piling up duplicates.

Manifest schema (``repro-bundle/1``)::

    {
      "schema":  "repro-bundle/1",
      "kind":    "fault_sim.cone" | "incremental.delta" | ... ,
      "message": one-line human summary,
      "circuit": "circuit.bench"    (file in the bundle directory),
      "context": replay inputs (kind-specific; JSON-safe),
      "expected": arbiter result   (JSON-safe encoding),
      "actual":   fast-path result (JSON-safe encoding)
    }

Non-string dict keys (branch tuples, faults) are encoded as
``{"__pairs__": [[key, value], ...]}`` sorted by key; tuples become
lists.  :func:`jsonable` is the canonical encoder — replay compares
re-computed results *after* encoding both sides with it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Union

from ..circuit.bench_io import parse_bench, write_bench
from ..circuit.netlist import Circuit
from ..core.problem import (
    TestPoint,
    TestPointCosts,
    TestPointType,
    TPIProblem,
    TPISolution,
)
from ..ioutil import atomic_replace_dir, atomic_write_text
from ..sim.faults import Fault

__all__ = [
    "BUNDLE_SCHEMA",
    "jsonable",
    "write_bundle",
    "load_bundle",
    "fault_to_payload",
    "fault_from_payload",
    "point_to_payload",
    "point_from_payload",
    "problem_to_payload",
    "problem_from_payload",
    "solution_to_payload",
    "solution_from_payload",
]

BUNDLE_SCHEMA = "repro-bundle/1"

MANIFEST_NAME = "manifest.json"
CIRCUIT_NAME = "circuit.bench"


# ---------------------------------------------------------------------------
# Canonical JSON-safe encoding
# ---------------------------------------------------------------------------


def jsonable(value):
    """Recursively encode ``value`` into JSON-safe, canonical form.

    Deterministic: dicts with non-string keys become sorted
    ``{"__pairs__": [...]}`` lists, tuples become lists.  Floats and
    arbitrary-precision ints pass through (Python's ``json`` round-trips
    both exactly).
    """
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: jsonable(v) for k, v in sorted(value.items())}
        pairs = sorted(
            (jsonable(list(k) if isinstance(k, tuple) else k), jsonable(v))
            for k, v in value.items()
        )
        return {"__pairs__": [[k, v] for k, v in pairs]}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Fault):
        return fault_to_payload(value)
    if isinstance(value, TestPoint):
        return point_to_payload(value)
    if isinstance(value, set):
        return sorted(jsonable(v) for v in value)
    return repr(value)


# ---------------------------------------------------------------------------
# Domain-object payload codecs
# ---------------------------------------------------------------------------


def fault_to_payload(fault: Fault) -> dict:
    return {
        "node": fault.node,
        "value": fault.value,
        "branch": list(fault.branch) if fault.branch is not None else None,
    }


def fault_from_payload(payload: dict) -> Fault:
    branch = payload.get("branch")
    return Fault(
        node=payload["node"],
        value=payload["value"],
        branch=(branch[0], branch[1]) if branch is not None else None,
    )


def point_to_payload(point: TestPoint) -> dict:
    return {
        "node": point.node,
        "kind": point.kind.name,
        "branch": list(point.branch) if point.branch is not None else None,
    }


def point_from_payload(payload: dict) -> TestPoint:
    branch = payload.get("branch")
    return TestPoint(
        node=payload["node"],
        kind=TestPointType[payload["kind"]],
        branch=(branch[0], branch[1]) if branch is not None else None,
    )


def problem_to_payload(problem: TPIProblem) -> dict:
    """Everything needed to rebuild the instance minus the circuit."""
    return {
        "threshold": problem.threshold,
        "costs": {
            "observation": problem.costs.observation,
            "control_and": problem.costs.control_and,
            "control_or": problem.costs.control_or,
            "control_random": problem.costs.control_random,
        },
        "allowed_types": [t.name for t in problem.allowed_types],
        "input_probabilities": problem.input_probabilities,
        "max_points": problem.max_points,
    }


def problem_from_payload(circuit: Circuit, payload: dict) -> TPIProblem:
    return TPIProblem(
        circuit=circuit,
        threshold=payload["threshold"],
        costs=TestPointCosts(**payload["costs"]),
        allowed_types=tuple(
            TestPointType[name] for name in payload["allowed_types"]
        ),
        input_probabilities=payload.get("input_probabilities"),
        max_points=payload.get("max_points"),
    )


def solution_to_payload(solution: TPISolution) -> dict:
    return {
        "points": [point_to_payload(p) for p in solution.points],
        "cost": solution.cost,
        "feasible": solution.feasible,
        "method": solution.method,
        "stats": {k: v for k, v in sorted(solution.stats.items())},
    }


def solution_from_payload(payload: dict) -> TPISolution:
    return TPISolution(
        points=[point_from_payload(p) for p in payload["points"]],
        cost=payload["cost"],
        feasible=payload["feasible"],
        method=payload["method"],
        stats=dict(payload.get("stats", {})),
    )


# ---------------------------------------------------------------------------
# Bundle writer / loader
# ---------------------------------------------------------------------------


def write_bundle(
    kind: str,
    *,
    circuit: Circuit,
    context: dict,
    expected,
    actual,
    message: str = "",
    bundle_dir: Union[str, Path] = "repro_bundles",
) -> Path:
    """Write a content-addressed repro bundle; returns its directory.

    Every file inside is written atomically and the finished directory is
    moved into place with one ``rename``, so a concurrent reader never
    observes a partial bundle.
    """
    bench_text = write_bench(circuit)
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "kind": kind,
        "message": message,
        "circuit": CIRCUIT_NAME,
        "context": jsonable(context),
        "expected": jsonable(expected),
        "actual": jsonable(actual),
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(
        (manifest_text + bench_text).encode("utf-8")
    ).hexdigest()[:12]
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    final = bundle_dir / f"{kind.replace('.', '-')}-{digest}"
    if final.is_dir():  # same divergence already captured
        return final
    tmp = bundle_dir / f".{final.name}.tmp-{digest}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    atomic_write_text(tmp / CIRCUIT_NAME, bench_text)
    atomic_write_text(tmp / MANIFEST_NAME, manifest_text)
    return atomic_replace_dir(tmp, final)


def load_bundle(path: Union[str, Path]):
    """Load ``(manifest, circuit)`` from a bundle directory (or manifest).

    Accepts the bundle directory or a direct path to its
    ``manifest.json``.
    """
    path = Path(path)
    if path.is_dir():
        manifest_path = path / MANIFEST_NAME
    else:
        manifest_path = path
        path = path.parent
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"{manifest_path}: unsupported bundle schema "
            f"{manifest.get('schema')!r} (expected {BUNDLE_SCHEMA!r})"
        )
    bench_path = path / manifest.get("circuit", CIRCUIT_NAME)
    circuit = parse_bench(
        bench_path.read_text(encoding="utf-8"), source=str(bench_path)
    )
    return manifest, circuit
