"""Golden equivalence: fault simulation's output is pinned bit for bit.

``data/fault_sim_golden.json`` records, per instance, one SHA-256 digest
per run: the fault-free node words of :meth:`LogicSimulator.run` (sorted
by node name), and for every collapsed fault its ``Fault.describe()``,
detection word and first-detect index, for

* :meth:`FaultSimulator.run` (exact) at 64 and 1024 patterns, and
* :meth:`FaultSimulator.run_coverage` (fault dropping) at 16384
  patterns, whose doubling blocks cross the batch's width cap.

The instances are every built-in benchmark and three seeded random
DAGs (reconvergent, up to 1200 gates).  Both kernels must reproduce the
one digest: the numpy kernel batches the blocks the dispatch rule
accepts, the interpreted kernel walks every fault.

Regenerate the fixture only from the previous implementation, after an
intended change of fault simulation's output::

    PYTHONPATH=src python -m tests.sim.test_fault_sim_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Tuple

import pytest

from repro.circuit import Circuit, benchmark, benchmark_names
from repro.circuit.generators import random_dag
from repro.sim.fault_sim import FaultSimulator
from repro.sim.logic_sim import LogicSimulator
from repro.sim.patterns import UniformRandomSource

GOLDEN_PATH = Path(__file__).parent / "data" / "fault_sim_golden.json"

KERNELS = ("numpy", "interp")

Case = Callable[[], Circuit]


def golden_cases() -> Dict[str, Case]:
    """Every golden instance by name, in a fixed order."""
    cases: Dict[str, Case] = {
        f"bench/{name}": (lambda name=name: benchmark(name))
        for name in benchmark_names()
    }
    cases.update({
        "rdag8x40/s1": lambda: random_dag(8, 40, seed=1),
        "rdag16x300/s2": lambda: random_dag(16, 300, seed=2, fanin_span=40),
        "rdag32x1200/s3": lambda: random_dag(
            32, 1200, seed=3, fanin_span=200
        ),
    })
    return cases


def _sha(rows: Iterable[Tuple[object, ...]]) -> str:
    blob = json.dumps(list(rows), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _faults_sha(result) -> str:
    return _sha(
        (fault.describe(), hex(word), result.first_detect[fault])
        for fault, word in result.detection_word.items()
    )


def digest(case: Case, kernel: str) -> dict:
    """Simulate one instance on ``kernel`` and reduce every run to a digest."""
    circuit = case()
    source = UniformRandomSource(seed=11)
    good = LogicSimulator(circuit).run(
        source.generate(circuit.inputs, 1024), 1024
    )
    sim = FaultSimulator(circuit, kernel=kernel)
    record = {
        "faults": None,
        "logic_1024": _sha(
            (name, hex(good[name])) for name in sorted(good)
        ),
    }
    for n in (64, 1024):
        result = sim.run(source.generate(circuit.inputs, n), n)
        record["faults"] = len(result.detection_word)
        record[f"run_{n}"] = _faults_sha(result)
    n = 16384
    result = sim.run_coverage(source.generate(circuit.inputs, n), n)
    record[f"coverage_{n}"] = _faults_sha(result)
    record["detected_16384"] = result.n_detected()
    return record


_CASES = golden_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert list(golden) == list(_CASES)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", list(_CASES))
def test_matches_golden(name, kernel, golden):
    assert digest(_CASES[name], kernel) == golden[name]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sim.test_fault_sim_golden --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {}
    for name, case in _CASES.items():
        per_kernel = {kernel: digest(case, kernel) for kernel in KERNELS}
        if per_kernel["numpy"] != per_kernel["interp"]:
            sys.exit(f"{name}: the kernels disagree; nothing written")
        records[name] = per_kernel["numpy"]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one case a line
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
