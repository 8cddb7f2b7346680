"""Satellite 3: graceful SIGTERM/SIGINT — stop resumably, lose nothing."""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.analysis import experiments as exps
from repro.circuit import generators, write_bench_file
from repro.cli import EXIT_INTERRUPTED, main
from repro.errors import SweepInterrupted
from repro.resilience.interrupt import GracefulInterrupt


@pytest.fixture
def bench_paths(tmp_path):
    d = tmp_path / "circuits"
    d.mkdir()
    paths = []
    for i in range(3):
        circuit = generators.random_dag(4, 14, seed=90 + i)
        p = d / f"c{i}.bench"
        write_bench_file(circuit, p)
        paths.append(p)
    return paths


class TestGracefulInterrupt:
    def test_request_then_check_raises_resumable(self):
        stop = GracefulInterrupt(install=False)
        stop.check(5, 2)  # no request yet: a no-op
        stop.request("SIGTERM")
        assert stop.requested
        with pytest.raises(SweepInterrupted) as ei:
            stop.check(completed=5, remaining=2)
        assert ei.value.signal_name == "SIGTERM"
        assert ei.value.completed == 5
        assert ei.value.remaining == 2

    def test_real_signal_sets_the_flag(self):
        with GracefulInterrupt() as stop:
            assert not stop.requested
            signal.raise_signal(signal.SIGTERM)
            assert stop.requested
            assert stop.signal_name == "SIGTERM"
        # On exit the previous disposition is restored — delivering
        # SIGTERM now would kill the test runner, so just verify the
        # handler is no longer ours.
        assert signal.getsignal(signal.SIGTERM) is not stop._handle

    def test_off_main_thread_degrades_to_request_only(self):
        seen = {}

        def body():
            with GracefulInterrupt() as stop:
                seen["installed"] = stop._installed
                stop.request("SIGINT")
                seen["requested"] = stop.requested

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert seen == {"installed": False, "requested": True}


class TestSweepBoundaryStop:
    def test_serial_sweep_stops_after_flushed_item_and_resumes(
        self, tmp_path, bench_paths
    ):
        results = tmp_path / "results.jsonl"

        class StopAfterFirst(GracefulInterrupt):
            def check(self, completed=0, remaining=0):
                if completed >= 1:
                    self.request("SIGTERM")
                super().check(completed, remaining)

        with pytest.raises(SweepInterrupted) as ei:
            exps.run_circuit_sweep(
                bench_paths,
                results,
                n_patterns=64,
                interrupt=StopAfterFirst(install=False),
            )
        assert ei.value.completed == 1
        # The interrupted item was committed before the raise.
        lines = results.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["result"]["circuit"] == bench_paths[0].stem

        # Rerunning the same command finishes the campaign.
        outcomes = exps.run_circuit_sweep(
            bench_paths, results, n_patterns=64
        )
        assert len(outcomes) == len(bench_paths)
        assert len(results.read_text().splitlines()) == len(bench_paths)


class TestCliExitCode:
    def test_interrupted_sweep_exits_5(
        self, tmp_path, bench_paths, monkeypatch, capsys
    ):
        def fake_sweep(*args, **kwargs):
            raise SweepInterrupted("SIGTERM", 1, 2)

        monkeypatch.setattr(exps, "run_circuit_sweep", fake_sweep)
        rc = main(
            [
                "sweep",
                str(bench_paths[0].parent),
                "--results",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == EXIT_INTERRUPTED == 5
        err = capsys.readouterr().err
        assert "resume" in err
        assert "SIGTERM" in err

    def test_sigterm_mid_sweep_integration(self, tmp_path):
        """A real signal against a real subprocess sweep: exit 5, resume."""
        import subprocess
        import sys
        import time
        from pathlib import Path

        d = tmp_path / "many"
        d.mkdir()
        paths = []
        for i in range(10):
            circuit = generators.random_dag(5, 25, seed=120 + i)
            p = d / f"m{i}.bench"
            write_bench_file(circuit, p)
            paths.append(p)
        results = tmp_path / "r.jsonl"
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "sweep",
                str(d),
                "--results",
                str(results),
                "--patterns",
                "4096",
                "--measure-coverage",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        # Let it get at least one item durable, then ask it to stop.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            if results.exists() and results.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        stderr = proc.stderr.read().decode()
        if rc == EXIT_INTERRUPTED:
            assert "resume" in stderr
            done_before = results.read_text().count("\n")
            assert 1 <= done_before < len(paths)
        else:
            # The sweep finished before the signal landed — legal, but
            # then it must have finished cleanly.
            assert rc == 0
        outcomes = exps.run_circuit_sweep(
            paths, results, n_patterns=4096, measure_coverage=True
        )
        assert len(outcomes) == len(paths)
        assert results.read_text().count("\n") == len(paths)
