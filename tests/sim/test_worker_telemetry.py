"""Worker telemetry: per-chunk counters merged exactly once into the parent.

The contract under test: every chunk of a parallel fault-sim run ships
back a telemetry record (pid, parent run id, counter deltas), the parent
merges exactly one record per chunk under the ``worker.`` namespace when
every chunk succeeded and none when a worker failure sends the call to
the serial fallback, and none of it ever changes the simulation results.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.circuit import generators
from repro.obs.recorder import RunRecorder
from repro.sim import FaultSimulator, UniformRandomSource, run_parallel
from repro.sim.parallel import MIN_FAULTS_PER_JOB

JOBS = 4


def _workload(seed=0, n_gates=40, n_patterns=128):
    circuit = generators.random_dag(5, n_gates, seed=seed)
    stimulus = UniformRandomSource(seed=seed).generate(
        circuit.inputs, n_patterns
    )
    return circuit, stimulus, n_patterns


def _traced_run(tmp_path, jobs=JOBS, **kwargs):
    """run_parallel under a file recorder; returns (result, trace bits)."""
    circuit, stimulus, n_patterns = _workload()
    path = tmp_path / "run.jsonl"
    recorder = RunRecorder(path)
    previous = obs.set_recorder(recorder)
    try:
        result = run_parallel(
            circuit, stimulus, n_patterns, jobs=jobs, **kwargs
        )
    finally:
        obs.set_recorder(previous)
        recorder.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    counters = next(
        r for r in records if r.get("event") == "metrics"
    )["metrics"]["counters"]
    events = [r for r in records if r.get("event") == "event"]
    return result, counters, events, recorder.run_id


def _serial_reference(**kwargs):
    circuit, stimulus, n_patterns = _workload()
    return FaultSimulator(circuit).run(stimulus, n_patterns, **kwargs)


def _chunk_events(events):
    return [e for e in events if e["name"] == "parallel.chunk_telemetry"]


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    previous = obs.set_recorder(None)
    yield
    obs.set_recorder(previous)


@pytest.fixture(scope="module")
def n_faults():
    circuit, _stim, _n = _workload()
    faults = FaultSimulator(circuit)._resolve_faults(None, True)
    assert len(faults) >= MIN_FAULTS_PER_JOB * JOBS, (
        "workload too small to actually fan out"
    )
    return len(faults)


class TestCleanRun:
    def test_one_telemetry_event_per_chunk_with_attribution(self, tmp_path):
        _result, counters, events, run_id = _traced_run(tmp_path)
        chunk_events = _chunk_events(events)
        assert sorted(e["chunk"] for e in chunk_events) == list(range(JOBS))
        for e in chunk_events:
            assert e["run_id"] == run_id
            assert isinstance(e["pid"], int) and e["pid"] != os.getpid()
            assert e["seconds"] >= 0
            assert e["counters"]["fault_sim.runs"] == 1.0
        assert counters["parallel.chunks_merged"] == JOBS

    def test_counters_merged_exactly_once(self, tmp_path, n_faults):
        _result, counters, _events, _rid = _traced_run(tmp_path)
        # Every fault simulated once across all workers: the namespaced
        # totals reconstruct the whole run, no double counting.
        assert counters["worker.fault_sim.faults"] == n_faults
        assert counters["worker.fault_sim.runs"] == JOBS
        # Worker-side gate-eval counts agree with the payload-side tally
        # the parent recorded independently.
        assert counters["worker.fault_sim.gate_evals"] == (
            counters["fault_sim.gate_evals"]
        )
        # Namespacing keeps parent-level counts at run granularity.
        assert counters["fault_sim.runs"] == 1.0
        assert counters["fault_sim.faults"] == n_faults

    def test_worker_summaries_roll_up_chunks(self, tmp_path):
        _result, _counters, events, run_id = _traced_run(tmp_path)
        summaries = [
            e for e in events if e["name"] == "parallel.worker_summary"
        ]
        assert summaries, "no per-worker rollups emitted"
        assert sum(s["chunks"] for s in summaries) == JOBS
        for s in summaries:
            assert s["run_id"] == run_id
            assert s["counters"]["fault_sim.runs"] == s["chunks"]

    def test_results_bit_identical_to_serial(self, tmp_path):
        result, _c, _e, _r = _traced_run(tmp_path)
        serial = _serial_reference()
        assert result.detection_word == serial.detection_word
        assert result.first_detect == serial.first_detect

    def test_coverage_mode_also_reports(self, tmp_path):
        _result, counters, events, _rid = _traced_run(
            tmp_path, mode="coverage"
        )
        assert len(_chunk_events(events)) == JOBS
        assert counters["parallel.chunks_merged"] == JOBS


class TestChaosPaths:
    def test_corrupt_payload_telemetry_discarded_with_it(
        self, tmp_path, n_faults, chunk_failure
    ):
        # The malformed chunk and its healthy siblings all built
        # telemetry records — the fallback must discard every one, or
        # the serial recomputation's faults would double-count.
        circuit, _stimulus, _n = _workload()
        chunk_failure("malformed", circuit, "numpy", JOBS)
        _result, counters, events, _rid = _traced_run(
            tmp_path, kernel="numpy"
        )
        assert not _chunk_events(events)
        assert not [n for n in counters if n.startswith("worker.")]
        assert "parallel.chunks_merged" not in counters
        assert counters["fault_sim.faults"] == n_faults

    def test_degraded_chunk_reports_in_parent(
        self, tmp_path, n_faults, chunk_failure
    ):
        # A dead worker: the serial recomputation runs in the parent and
        # reports straight into the parent registry, exactly once.
        circuit, _stimulus, _n = _workload()
        chunk_failure("die", circuit, "numpy", JOBS)
        result, counters, events, _rid = _traced_run(
            tmp_path, kernel="numpy"
        )
        fallbacks = [
            e for e in events if e["name"] == "fault_sim.parallel_fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["error"] == "BrokenProcessPool"
        assert counters["fault_sim.runs"] == 1.0
        assert counters["fault_sim.faults"] == n_faults
        assert "fault_sim.parallel_runs" not in counters
        assert not _chunk_events(events)
        serial = _serial_reference()
        assert result.detection_word == serial.detection_word
        assert result.first_detect == serial.first_detect


class TestDisabledObservability:
    def test_runs_without_recorder(self):
        circuit, stimulus, n_patterns = _workload()
        assert obs.get_recorder() is None
        result = run_parallel(circuit, stimulus, n_patterns, jobs=JOBS)
        serial = _serial_reference()
        assert result.detection_word == serial.detection_word
