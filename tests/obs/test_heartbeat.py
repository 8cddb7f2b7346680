"""Heartbeat events: rate limiting, payload, env override."""

import json

import pytest

from repro import obs
from repro.obs.heartbeat import DEFAULT_INTERVAL_S, Heartbeat
from repro.obs.recorder import RunRecorder


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    previous = obs.set_recorder(None)
    yield
    obs.set_recorder(previous)


def _heartbeat_events(path):
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    return [
        r for r in records if r.get("event") == "event"
        and r.get("name") == "heartbeat"
    ]


class TestRateLimit:
    def test_no_beat_before_interval(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)):
            hb = Heartbeat("loop", interval_s=60.0)
            for _ in range(100):
                assert not hb.beat()
        assert hb.beats == 0
        assert _heartbeat_events(path) == []

    def test_beats_after_interval(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)):
            hb = Heartbeat("loop", interval_s=0.0001)
            import time

            time.sleep(0.001)
            assert hb.beat(items=3)
        (beat,) = _heartbeat_events(path)
        assert beat["items"] == 3
        assert hb.beats == 1

    def test_disabled_with_zero_interval(self):
        hb = Heartbeat("loop", interval_s=0)
        assert not hb.beat()

    def test_no_burst_after_recorder_installed_late(self, tmp_path):
        import time

        hb = Heartbeat("loop", interval_s=5.0)
        hb._last -= 10.0  # pretend the interval elapsed with no recorder
        assert not hb.beat()  # swallowed, but the clock advanced
        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)):
            hb.beat()  # immediately after: interval not elapsed again
        assert _heartbeat_events(path) == []


class TestPayload:
    def test_carries_progress_resources_and_counters(self, tmp_path):
        import time

        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)):
            obs.count("fault_sim.gate_evals", 42)
            obs.count("npsim.plan_cache_hits", 3)
            obs.count("npsim.plans", 1)
            hb = Heartbeat("fault_sim.run", interval_s=0.0001)
            time.sleep(0.001)
            assert hb.beat(faults_done=7, faults_total=9)
        (beat,) = _heartbeat_events(path)
        assert beat["loop"] == "fault_sim.run"
        assert beat["faults_done"] == 7 and beat["faults_total"] == 9
        assert beat["elapsed_s"] >= 0
        assert beat["rss_peak_kb"] is None or beat["rss_peak_kb"] > 0
        assert beat["counters"]["fault_sim.gate_evals"] == 42
        assert beat["kernel_cache_hit_rate"] == pytest.approx(0.75)

    def test_hit_rate_none_before_kernel_activity(self, tmp_path):
        import time

        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)):
            hb = Heartbeat("loop", interval_s=0.0001)
            time.sleep(0.001)
            hb.beat()
        (beat,) = _heartbeat_events(path)
        assert beat["kernel_cache_hit_rate"] is None

    def test_emission_counted(self, tmp_path):
        import time

        path = tmp_path / "run.jsonl"
        with obs.recording(RunRecorder(path)) as recorder:
            hb = Heartbeat("loop", interval_s=0.0001)
            time.sleep(0.001)
            hb.beat()
            snapshot = recorder.metrics.snapshot()
        assert snapshot["counters"]["heartbeat.emitted"] == 1


class TestEnvOverride:
    def test_env_sets_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_SEC", "2.5")
        assert Heartbeat("loop").interval_s == 2.5

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_SEC", "soon")
        assert Heartbeat("loop").interval_s == DEFAULT_INTERVAL_S

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_SEC", raising=False)
        assert Heartbeat("loop").interval_s == DEFAULT_INTERVAL_S


class TestWiredLoops:
    def test_solve_loop_emits_heartbeats(self, tmp_path, monkeypatch):
        # End to end: a real greedy solve with a tiny interval heartbeats.
        from repro.circuit.library import benchmark
        from repro.core import TPIProblem, prepare_for_tpi, solve_greedy

        monkeypatch.setenv("REPRO_HEARTBEAT_SEC", "0.0001")
        path = tmp_path / "run.jsonl"
        circuit = prepare_for_tpi(benchmark("rprmix"))
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=512, escape_budget=0.001
        )
        with obs.recording(RunRecorder(path)):
            solve_greedy(problem)
        beats = _heartbeat_events(path)
        assert beats, "greedy solve loop emitted no heartbeats"
        assert any(b["loop"] == "greedy.solve" for b in beats)
        assert all("elapsed_s" in b for b in beats)
