"""Golden equivalence: COP's output is pinned bit for bit.

``data/cop_golden.json`` records, per instance, a SHA-256 digest of
``cop_measures(circuit, input_probabilities).as_dict()``: every
probability, node observability and branch observability as an exact
``float.hex`` string, sorted by key (callers look the maps up by key,
so their insertion order is not part of the output).  The instances are
every built-in benchmark, a few seeded random DAGs (reconvergent, up to
1200 gates) and two cases with non-uniform input probabilities (the
weighted-random inputs of :func:`repro.testability.weights.optimize_weights`).

Any change to COP that moves a single float, or adds or drops a key,
shows up here as a digest mismatch.  Regenerate the fixture
only from the previous implementation, after an intended change of
COP's output::

    PYTHONPATH=src python -m tests.testability.test_cop_golden --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

import pytest

from repro.circuit import Circuit, benchmark, benchmark_names
from repro.circuit.generators import random_dag
from repro.testability import cop_measures

GOLDEN_PATH = Path(__file__).parent / "data" / "cop_golden.json"

#: A case builds ``(circuit, input_probabilities)``.
Case = Callable[[], Tuple[Circuit, Optional[Mapping[str, float]]]]


def _weighted(circuit: Circuit, seed: int) -> Tuple[Circuit, Dict[str, float]]:
    rng = random.Random(seed)
    return circuit, {pi: rng.uniform(0.05, 0.95) for pi in circuit.inputs}


def golden_cases() -> Dict[str, Case]:
    """Every golden instance by name, in a fixed order."""
    cases: Dict[str, Case] = {
        f"bench/{name}": (lambda name=name: (benchmark(name), None))
        for name in benchmark_names()
    }
    cases.update({
        "rdag8x40/s1": lambda: (random_dag(8, 40, seed=1), None),
        "rdag16x300/s2": lambda: (
            random_dag(16, 300, seed=2, fanin_span=40), None
        ),
        "rdag32x1200/s3": lambda: (
            random_dag(32, 1200, seed=3, fanin_span=200), None
        ),
        "weighted/rprmix": lambda: _weighted(benchmark("rprmix"), 5),
        "weighted/rdag16x300/s4": lambda: _weighted(
            random_dag(16, 300, seed=4, fanin_span=40), 6
        ),
    })
    return cases


def digest(case: Case) -> dict:
    """Run COP on one instance and reduce its three maps to a digest."""
    circuit, input_probabilities = case()
    maps = cop_measures(circuit, input_probabilities).as_dict()
    canonical = {
        field: [
            [list(key) if isinstance(key, tuple) else key, value.hex()]
            for key, value in sorted(values.items())
        ]
        for field, values in maps.items()
    }
    blob = json.dumps(canonical, separators=(",", ":")).encode()
    return {
        "nodes": len(maps["probability"]),
        "branches": len(maps["branch_observability"]),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


_CASES = golden_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert list(golden) == list(_CASES)


@pytest.mark.parametrize("name", list(_CASES))
def test_matches_golden(name, golden):
    assert digest(_CASES[name]) == golden[name]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.testability.test_cop_golden --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {name: digest(case) for name, case in _CASES.items()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one case a line
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")
