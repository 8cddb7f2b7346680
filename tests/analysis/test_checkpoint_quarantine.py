"""Resume hardening: corrupt journal lines are counted, never fatal.

A sweep's ``--results`` file is a fabric journal.  A corrupted disk or a
foreign writer can mangle any line of it, not just the torn tail of a
killed run; a resume must skip every undecodable or foreign line,
re-run only the jobs whose commits were lost, and leave the corrupt
lines in place as evidence (``fabric-status`` counts them).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_circuit_sweep
from repro.circuit.bench_io import write_bench
from repro.circuit.generators import c17, random_dag
from repro.fabric import journal_status


@pytest.fixture
def sweep_env(tmp_path):
    paths = []
    for i, circuit in enumerate([c17(), random_dag(4, 10, seed=1)]):
        p = tmp_path / f"c{i}.bench"
        p.write_text(write_bench(circuit))
        paths.append(p)
    return paths, tmp_path / "sweep.journal"


class TestSweepResume:
    def test_resume_survives_corrupt_checkpoint(self, sweep_env):
        paths, journal = sweep_env
        first = run_circuit_sweep(paths, journal, n_patterns=64)
        assert all(o.ok for o in first)

        lines = journal.read_text().splitlines()
        # Corrupt the FIRST commit (not just a torn tail), add a
        # decodable foreign record, and tear the tail.
        lines[0] = lines[0][: len(lines[0]) // 2]
        lines.append(json.dumps({"foreign": True, "schema": 9}))
        lines.append('{"torn": ')
        journal.write_text("\n".join(lines) + "\n")

        second = run_circuit_sweep(paths, journal, n_patterns=64)
        # Both circuits present: the job whose commit was destroyed
        # re-ran, the intact commit was reused.
        assert [o.circuit for o in second] == [o.circuit for o in first]
        assert all(o.ok for o in second)
        status = journal_status(journal)
        assert status["commits"] == len(paths)
        assert status["torn_lines"] == 2
        assert status["foreign_records"] == 1
        # The corrupt lines stay where they were: no sidecar, no rewrite.
        assert not journal.with_name(journal.name + ".bad").exists()
        assert journal.read_text().startswith(lines[0] + "\n")

        # A third resume needs no reruns and appends nothing.
        before = journal.read_text()
        third = run_circuit_sweep(paths, journal, n_patterns=64, max_circuits=0)
        assert [o.circuit for o in third] == [o.circuit for o in first]
        assert journal.read_text() == before
