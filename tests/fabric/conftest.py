"""Fabric suite fixtures: circuit files, counters, journal forensics,
and the direct per-circuit reference every campaign is compared with."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.experiments import _sweep_one
from repro.circuit import generators, write_bench_file
from repro.core.cascade import DEFAULT_CASCADE
from repro.obs.recorder import RunRecorder


def direct_sweep(paths, n_patterns, measure_coverage=False):
    """Reference outcomes: ``_sweep_one`` per path, no fabric involved.

    A campaign is judged against this plain loop over the per-circuit
    function every job executes — never against another campaign, which
    would hide a bug both share.  Returns ``asdict`` records.
    """
    return [
        asdict(
            _sweep_one(
                Path(path),
                n_patterns,
                0.001,
                None,
                DEFAULT_CASCADE,
                measure_coverage=measure_coverage,
            )
        )
        for path in paths
    ]


@pytest.fixture
def bench_paths(tmp_path):
    """Four small, distinct netlist files (fast to solve, fast to parse)."""
    d = tmp_path / "circuits"
    d.mkdir()
    paths = []
    for i in range(4):
        circuit = generators.random_dag(4, 14, seed=40 + i)
        p = d / f"c{i}.bench"
        write_bench_file(circuit, p)
        paths.append(p)
    return paths


class Counters:
    """Context manager capturing obs counters for one block."""

    def __enter__(self):
        self.recorder = RunRecorder(None)
        self.previous = obs.set_recorder(self.recorder)
        return self

    def __exit__(self, *exc):
        obs.set_recorder(self.previous)
        self.snapshot = self.recorder.metrics.snapshot().get("counters", {})
        self.recorder.close()
        return False

    def value(self, name):
        return self.snapshot.get(name, 0.0)


@pytest.fixture
def counters():
    return Counters


def _journal_records(journal_path):
    records = []
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue  # torn line: legal crash evidence
    return records


def _commit_counts(journal_path):
    """job_id -> number of commit records; exactly-once means all 1."""
    counts = {}
    for record in _journal_records(journal_path):
        if record.get("type") == "commit":
            job_id = record["job_id"]
            counts[job_id] = counts.get(job_id, 0) + 1
    return counts


@pytest.fixture
def journal_records():
    return _journal_records


@pytest.fixture
def commit_counts():
    return _commit_counts
