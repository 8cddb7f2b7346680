"""CLI resilience: stable exit codes and budget-driven solver fallback."""

import json

import pytest

from repro.cli import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


class TestExitCodes:
    def test_constants(self):
        assert (
            EXIT_OK,
            EXIT_INFEASIBLE,
            EXIT_USAGE,
            EXIT_BUDGET,
            EXIT_INTERRUPTED,
        ) == (0, 1, 2, 3, 5)

    def test_parse_error_is_exit_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        assert main(["stats", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message
        assert "parse error" in err
        assert f"{path}:3" in err

    def test_unknown_circuit_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["stats", "no-such-circuit"])
        assert ei.value.code == EXIT_USAGE
        assert "unknown circuit" in capsys.readouterr().err

    def test_unknown_experiment_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["experiments", "--only", "zz"])
        assert ei.value.code == EXIT_USAGE

    def test_exhausted_budget_is_exit_3(self, capsys):
        rc = main(["insert", "c17", "--patterns", "64", "--budget-ms", "0"])
        assert rc == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "budget exceeded" in err

    def test_generous_budget_still_succeeds(self, capsys):
        rc = main(
            ["insert", "c17", "--patterns", "64", "--budget-ms", "60000"]
        )
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)


class TestBudgetFallback:
    def test_cell_budget_triggers_dp_to_greedy_fallback(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "insert",
                "wand16",
                "--patterns",
                "256",
                "--max-cells",
                "1",
                "--trace-out",
                str(trace),
            ]
        )
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)  # degraded, not dead
        out = capsys.readouterr().out
        assert "greedy" in out

        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        fallbacks = [
            e
            for e in events
            if e["event"] == "event" and e.get("name") == "solver_fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["from_solver"] == "dp"
        assert fallbacks[0]["to_solver"] == "greedy"
        assert fallbacks[0]["resource"] == "dp_cells"

    def test_budget_metadata_recorded_in_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "insert",
                "c17",
                "--patterns",
                "64",
                "--max-cells",
                "100000",
                "--trace-out",
                str(trace),
            ]
        )
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["event"] == "run_start"
        assert first["meta"]["max_cells"] == 100000


class TestSweepCommand:
    def test_sweep_records_failures_and_resumes(
        self, circuit_dir, tmp_path, capsys
    ):
        results = tmp_path / "results.jsonl"
        rc = main(
            [
                "sweep",
                str(circuit_dir),
                "--results",
                str(results),
                "--patterns",
                "64",
            ]
        )
        assert rc == EXIT_OK  # failures are recorded, not fatal
        out = capsys.readouterr().out
        assert "parse_error" in out
        records = [
            json.loads(line) for line in results.read_text().splitlines()
        ]
        assert len(records) == 3
        assert {r["result"]["status"] for r in records} == {"ok", "parse_error"}

        # Second invocation must not re-run anything.
        rc = main(
            [
                "sweep",
                str(circuit_dir),
                "--results",
                str(results),
                "--patterns",
                "64",
            ]
        )
        assert rc == EXIT_OK
        assert len(results.read_text().splitlines()) == 3

    def test_sweep_missing_path_is_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "sweep",
                    str(tmp_path / "nowhere"),
                    "--results",
                    str(tmp_path / "r.jsonl"),
                ]
            )
        assert ei.value.code == EXIT_USAGE
