"""The plain pool's single fallback: a failing worker never changes results.

`run_parallel` answers every worker failure the same way — a worker that
dies, raises, or returns a malformed payload: every chunk payload is
discarded and the whole call is recomputed serially in the parent with
the caller's budget.  The failures are injected through a module-level
stand-in for the worker's chunk function (the ``chunk_failure`` fixture;
forked workers inherit the patched module), and every test asserts the
result is bit-identical to the plain serial simulator.  The traced tests also pin the observable
contract: exactly one `fault_sim.parallel_fallback` event, and no worker
telemetry merged (no `parallel.chunk_telemetry`, no `worker.*`
counters).  A worker's budget sentinel is not a failure: it still raises.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.circuit import generators
from repro.errors import BudgetExceededError
from repro.obs.recorder import RunRecorder
from repro.resilience import Budget
from repro.sim import FaultSimulator, UniformRandomSource, run_parallel

JOBS = 3


def _workload(seed=0, n_gates=40, n_patterns=192):
    circuit = generators.random_dag(5, n_gates, seed=seed)
    stimulus = UniformRandomSource(seed=seed).generate(
        circuit.inputs, n_patterns
    )
    return circuit, stimulus, n_patterns


def _serial(circuit, stimulus, n, mode="exact", kernel=None, **kw):
    sim = FaultSimulator(circuit, kernel=kernel)
    if mode == "coverage":
        return sim.run_coverage(stimulus, n, **kw)
    return sim.run(stimulus, n, **kw)


def _assert_identical(parallel, serial):
    assert parallel.detection_word == serial.detection_word
    assert parallel.first_detect == serial.first_detect
    assert list(parallel.detection_word) == list(serial.detection_word)
    assert parallel.coverage_only == serial.coverage_only


def _traced(tmp_path, circuit, stimulus, n, **kwargs):
    """run_parallel under a file recorder: (result, counters, event names)."""
    path = tmp_path / "run.jsonl"
    recorder = RunRecorder(path)
    previous = obs.set_recorder(recorder)
    try:
        result = run_parallel(circuit, stimulus, n, jobs=JOBS, **kwargs)
    finally:
        obs.set_recorder(previous)
        recorder.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    counters = next(
        r for r in records if r.get("event") == "metrics"
    )["metrics"]["counters"]
    events = [r["name"] for r in records if r.get("event") == "event"]
    return result, counters, events


def _assert_single_fallback(counters, events):
    assert events.count("fault_sim.parallel_fallback") == 1
    assert "parallel.chunk_telemetry" not in events
    assert "parallel.worker_summary" not in events
    assert not [name for name in counters if name.startswith("worker.")]
    assert "parallel.chunks_merged" not in counters


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@pytest.mark.parametrize("mode", ["exact", "coverage"])
class TestSingleFallback:
    def test_dead_worker_falls_back_bit_identical(
        self, tmp_path, chunk_failure, mode, kernel
    ):
        circuit, stimulus, n = _workload(seed=1)
        chunk_failure("die", circuit, kernel, JOBS)
        result, counters, events = _traced(
            tmp_path, circuit, stimulus, n, mode=mode, kernel=kernel
        )
        _assert_identical(
            result, _serial(circuit, stimulus, n, mode=mode, kernel=kernel)
        )
        _assert_single_fallback(counters, events)

    def test_malformed_payload_falls_back_bit_identical(
        self, tmp_path, chunk_failure, mode, kernel
    ):
        circuit, stimulus, n = _workload(seed=2)
        chunk_failure("malformed", circuit, kernel, JOBS)
        result, counters, events = _traced(
            tmp_path, circuit, stimulus, n, mode=mode, kernel=kernel
        )
        _assert_identical(
            result, _serial(circuit, stimulus, n, mode=mode, kernel=kernel)
        )
        _assert_single_fallback(counters, events)


class TestBudgetSentinel:
    def test_worker_budget_raises_instead_of_falling_back(self, tmp_path):
        # max_patterns=4 leaves each chunk a share of 1: every worker
        # exhausts its budget and returns the sentinel.
        circuit, stimulus, n = _workload(seed=7)
        path = tmp_path / "run.jsonl"
        recorder = RunRecorder(path)
        previous = obs.set_recorder(recorder)
        try:
            with pytest.raises(BudgetExceededError) as err:
                run_parallel(
                    circuit,
                    stimulus,
                    n,
                    jobs=JOBS,
                    mode="coverage",
                    budget=Budget(max_patterns=4),
                )
        finally:
            obs.set_recorder(previous)
            recorder.close()
        assert err.value.resource == "patterns"
        # The limit is the chunk's share, not the caller's 4: the error
        # came from a worker, not from a serial recomputation.
        assert err.value.limit < 4
        assert "fault_sim.parallel_fallback" not in path.read_text()


class TestDegradation:
    def test_persistent_failure_degrades_to_serial(
        self, tmp_path, chunk_failure
    ):
        """A worker raising on its chunk: the whole call runs serially."""
        circuit, stimulus, n = _workload(seed=5)
        chunk_failure("raise", circuit, "compiled", JOBS)
        result, counters, events = _traced(
            tmp_path, circuit, stimulus, n, kernel="compiled"
        )
        _assert_identical(result, _serial(circuit, stimulus, n))
        _assert_single_fallback(counters, events)

    def test_coverage_mode_under_chaos(self, chunk_failure):
        circuit, stimulus, n = _workload(seed=6)
        chunk_failure("die", circuit, "interp", JOBS)
        parallel = run_parallel(
            circuit, stimulus, n, jobs=JOBS, mode="coverage", kernel="interp"
        )
        serial = _serial(circuit, stimulus, n, kernel="interp")
        assert parallel.first_detect == serial.first_detect
        assert parallel.coverage() == serial.coverage()


class TestSweepSurvivesChaos:
    def test_sweep_checkpoint_intact_after_chaotic_coverage(self, tmp_path):
        """A jobs=2 coverage sweep commits every circuit to its journal,
        and a resume serves all of them from it without recomputation."""
        from repro.analysis.experiments import run_circuit_sweep
        from repro.circuit.bench_io import write_bench
        from repro.fabric import journal_status

        paths = []
        for i in range(3):
            c = generators.random_dag(4, 12, seed=i)
            p = tmp_path / f"c{i}.bench"
            p.write_text(write_bench(c))
            paths.append(p)
        journal = tmp_path / "sweep.journal"
        kwargs = dict(n_patterns=64, measure_coverage=True, jobs=2)
        outcomes = run_circuit_sweep(paths, journal, **kwargs)
        assert all(o.ok for o in outcomes)
        assert journal_status(journal)["commits"] == len(paths)
        before = journal.read_text()
        resumed = run_circuit_sweep(paths, journal, **kwargs)
        assert resumed == outcomes
        assert journal.read_text() == before
