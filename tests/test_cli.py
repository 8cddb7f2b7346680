"""Tests for the command-line interface (driven through main(argv))."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "wand16" in out


class TestStats:
    def test_builtin(self, capsys):
        assert main(["stats", "c17", "--patterns", "128"]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "coverage" in out

    def test_bench_file(self, tmp_path, capsys):
        from repro.circuit import generators, write_bench_file

        path = tmp_path / "circ.bench"
        write_bench_file(generators.wide_and_cone(4), path)
        assert main(["stats", str(path), "--patterns", "64"]) == 0

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["stats", "no-such-circuit"])


class TestInsert:
    def test_dp_solver(self, capsys):
        assert main(["insert", "wand16", "--patterns", "512"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "dp-heuristic" in out

    def test_greedy_solver(self, capsys):
        assert main(
            ["insert", "wand16", "--patterns", "512", "--solver", "greedy"]
        ) == 0
        assert "greedy" in capsys.readouterr().out


class TestCoverage:
    def test_reports_improvement(self, capsys):
        assert main(["coverage", "wand16", "--patterns", "512"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "->" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "--only", "t2"]) == 0
        assert "[T2]" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiments", "--only", "zz"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestReport:
    def test_report_sections(self, capsys):
        assert main(["report", "wand16", "--patterns", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Testability report" in out
        assert "Random-pattern-resistant" in out

    def test_verilog_file(self, tmp_path, capsys):
        from repro.circuit import generators, write_verilog_file

        path = tmp_path / "circ.v"
        write_verilog_file(generators.wide_and_cone(4), path)
        assert main(["stats", str(path), "--patterns", "64"]) == 0

    def test_unparseable_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "junk.bench"
        path.write_text("this is ( not a bench file\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "junk.bench:1" in err


class TestObservability:
    def test_coverage_trace_out_emits_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["coverage", "wand16", "--patterns", "256",
             "--trace-out", str(trace)]
        ) == 0
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert events[0]["meta"]["circuit"] == "wand16"
        assert events[0]["meta"]["seed"] == 1

        # One span per pipeline stage.
        span_names = {e["name"] for e in events if e["event"] == "span"}
        for stage in ("prepare", "solve", "insert", "fault_sim.run"):
            assert stage in span_names, f"missing {stage} span"

        # DP counters and fault-sim work in the metrics snapshot.  wand16
        # is one fanout-free region rooted at its output, before and
        # after insertion, so the region-factored runs need no faulty
        # machine and evaluate no gate.
        (metrics,) = [e for e in events if e["event"] == "metrics"]
        counters = metrics["metrics"]["counters"]
        assert counters["dp.table_cells"] > 0
        assert counters["dp.decisions"] > 0
        assert counters["fault_sim.faults"] > 0
        assert counters["fault_sim.machines"] == 0
        assert counters["fault_sim.gate_evals"] == 0
        assert metrics["metrics"]["gauges"]["fault_sim.gate_evals_per_sec"] == 0

    def test_report_renders_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["coverage", "wand16", "--patterns", "256",
             "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "dp.solve" in out
        assert "fault_sim" in out

    def test_report_missing_trace(self):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["report", "does-not-exist.jsonl"])

    def test_metrics_flag_prints_snapshot(self, capsys):
        assert main(
            ["stats", "c17", "--patterns", "64", "--metrics"]
        ) == 0
        err = capsys.readouterr().err
        assert "counters" in err
        assert "fault_sim.runs" in err

    def test_recorder_uninstalled_after_run(self, tmp_path):
        from repro import obs

        trace = tmp_path / "run.jsonl"
        main(["stats", "c17", "--patterns", "64", "--trace-out", str(trace)])
        assert obs.get_recorder() is None


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "c17" in proc.stdout


class TestTraceAnalyticsFlags:
    @pytest.fixture()
    def trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            ["coverage", "wand16", "--patterns", "256",
             "--trace-out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_self_time(self, trace, capsys):
        assert main(["report", str(trace), "--self-time"]) == 0
        out = capsys.readouterr().out
        assert "self-time by span name" in out
        assert "dp.solve" in out
        assert "Trace summary" not in out  # analytics replace the summary

    def test_critical_path(self, trace, capsys):
        assert main(["report", str(trace), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "solve" in out

    def test_chrome_export(self, trace, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "run.trace.json"
        assert main(
            ["report", str(trace), "--chrome-out", str(out_path)]
        ) == 0
        obj = json.loads(out_path.read_text())
        assert validate_chrome_trace(obj) == []
        assert "chrome trace written" in capsys.readouterr().err

    def test_default_summary_includes_phases(self, trace, capsys):
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "phase attribution" in out

    def test_flags_rejected_for_circuit_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "wand16", "--self-time"])
        assert exc.value.code == 2

    def test_tolerates_torn_final_line(self, trace, capsys):
        with trace.open("a") as sink:
            sink.write('{"event": "span", "name": "torn')
        assert main(["report", str(trace), "--self-time"]) == 0
        assert "dp.solve" in capsys.readouterr().out


class TestProfileFlags:
    def test_sampling_profile_writes_folded(self, tmp_path, capsys):
        out = tmp_path / "run.folded"
        assert main(
            ["coverage", "wand16", "--patterns", "256",
             "--profile-out", str(out),
             "--profile-interval-ms", "1"]
        ) == 0
        assert "profile:" in capsys.readouterr().err
        for line in out.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0

    def test_cprofile_span_scoped(self, tmp_path, capsys):
        import pstats

        out = tmp_path / "solve.pstats"
        assert main(
            ["insert", "wand16", "--patterns", "512",
             "--profile-out", str(out),
             "--profile-mode", "cprofile",
             "--profile-span", "solve"]
        ) == 0
        funcs = {
            func for _f, _l, func in pstats.Stats(str(out)).stats
        }
        assert any("solve" in f for f in funcs)

    def test_profile_span_requires_cprofile_mode(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["stats", "c17", "--patterns", "64",
                 "--profile-out", str(tmp_path / "x"),
                 "--profile-span", "solve"]
            )
        assert exc.value.code == 2


class TestBenchCompare:
    def _payload(self, tmp_path, speedup=3.0, seconds=1.0):
        payload = {
            "schema": 1,
            "mode": "quick",
            "kernel": "compiled",
            "benchmarks": {
                "kernel_logic_sim": {
                    "speedup": speedup,
                    "seconds_compiled": seconds,
                }
            },
        }
        path = tmp_path / "BENCH_PERF.json"
        path.write_text(json.dumps(payload))
        return path

    def _seed(self, tmp_path, n=5):
        from repro.obs import history as hist

        history = tmp_path / "history.jsonl"
        for i in range(n):
            payload = json.loads(self._payload(tmp_path).read_text())
            hist.append_history(
                history,
                hist.entries_from_bench_perf(payload, ts=float(i)),
            )
        return history

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        current = self._payload(tmp_path)
        assert main(
            ["bench-compare", str(current), "--history", str(history)]
        ) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_planted_slowdown_exits_nonzero(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        current = self._payload(tmp_path, speedup=2.0, seconds=1.5)
        assert main(
            ["bench-compare", str(current), "--history", str(history)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_record_appends(self, tmp_path, capsys):
        from repro.obs import history as hist

        history = self._seed(tmp_path, n=2)
        current = self._payload(tmp_path)
        assert main(
            ["bench-compare", str(current), "--history", str(history),
             "--record"]
        ) == 0
        assert len(hist.load_history(history)) == 3

    def test_empty_history_skips_cleanly(self, tmp_path, capsys):
        current = self._payload(tmp_path)
        assert main(
            ["bench-compare", str(current),
             "--history", str(tmp_path / "missing.jsonl")]
        ) == 0
        assert "skipped" in capsys.readouterr().out

    def test_unreadable_payload_is_usage_error(self, tmp_path):
        bad = tmp_path / "nope.json"
        with pytest.raises(SystemExit) as exc:
            main(["bench-compare", str(bad)])
        assert exc.value.code == 2


class TestRemovedCompiledKernel:
    """The ``compiled`` backend is gone: its flags and bundles are refused."""

    def test_compiled_kernel_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "c17", "--kernel", "compiled"])
        assert exc.value.code == 2

    def test_fuzz_kernel_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--kernel", "numpy", "--budget-ms", "1"])
        assert exc.value.code == 2

    def _bundle(self, tmp_path, context, **extra):
        """A hand-written ``fuzz.fault_sim`` bundle on a 1-gate circuit."""
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "circuit.bench").write_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
        )
        manifest = {
            "schema": "repro-bundle/1",
            "kind": "fuzz.fault_sim",
            "message": "compiled fault backend disagrees with interpreter",
            "circuit": "circuit.bench",
            "context": {"stimulus": {"a": 5, "b": 3}, "n_patterns": 4,
                        **context},
            "expected": {"y s-a-0": 1},
            "actual": {"y s-a-0": 7},
            **extra,
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        return bundle

    @pytest.mark.parametrize(
        "context, extra",
        [
            ({"kernel": "compiled"}, {}),
            ({}, {"sources": {"logic": "def kernel(stim, mask):\n"}}),
        ],
        ids=["compiled-kernel", "kernel-sources"],
    )
    def test_replay_refuses_compiled_bundles(
        self, tmp_path, capsys, context, extra
    ):
        # Replaying on numpy would print a misleading "not reproduced"
        # (exit 1); the bundle is unsupported instead (exit 2).
        bundle = self._bundle(tmp_path, context, **extra)
        assert main(["replay", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert "compiled backend" in err and "removed" in err

    def test_replay_still_runs_numpy_bundles(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path, {"kernel": "numpy"})
        assert main(["replay", str(bundle)]) == 1  # healthy engine
        assert "not reproduced" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, engine",
    [
        pytest.param("cop.measures", "numpy COP sweeps", id="cop.measures"),
        pytest.param("fuzz.cop", "numpy COP sweeps", id="fuzz.cop"),
        pytest.param("fuzz.logic_sim", "numpy logic pass", id="fuzz.logic_sim"),
    ],
)
def test_replay_refuses_removed_engine_bundles(kind, engine, tmp_path, capsys):
    # COP and logic simulation have one engine each: a bundle comparing a
    # removed numpy engine with the interpreted one is unsupported (exit
    # 2, one line naming the engine).
    from repro.circuit.generators import c17
    from repro.verify import write_bundle

    bundle = write_bundle(
        kind,
        circuit=c17(),
        context={"kernel": "numpy"},
        expected={},
        actual={},
        message=f"{engine} disagrees with the interpreted engine",
        bundle_dir=tmp_path,
    )
    assert main(["replay", str(bundle)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert engine in err and "removed" in err
