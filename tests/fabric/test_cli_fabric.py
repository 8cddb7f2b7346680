"""The fabric's CLI surface: sweep, experiments --results, fabric-status,
pack, store-gc."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from repro.resilience.chaos import FabricChaosSpec


class TestSweepFabric:
    def test_fabric_sweep_runs_and_resumes(
        self, tmp_path, bench_paths, capsys
    ):
        journal = tmp_path / "sweep.journal"
        argv = [
            "sweep",
            str(bench_paths[0].parent),
            "--results",
            str(journal),
            "--patterns",
            "64",
            "--workers",
            "2",
        ]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert f"swept {len(bench_paths)}/{len(bench_paths)}" in err
        before = journal.read_text()
        # A rerun serves everything from the journal and writes nothing.
        assert main(argv) == EXIT_OK
        assert journal.read_text() == before

    def test_no_resume_with_fabric_is_a_usage_error(
        self, tmp_path, bench_paths, capsys
    ):
        # Both flags are gone: every sweep runs on the fabric, and a new
        # journal path is how a campaign starts over.
        for flags in (["--fabric"], ["--no-resume"], ["--fabric", "--no-resume"]):
            with pytest.raises(SystemExit) as ei:
                main(
                    [
                        "sweep",
                        str(bench_paths[0].parent),
                        "--results",
                        str(tmp_path / "j.journal"),
                        *flags,
                    ]
                )
            assert ei.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "j.journal").exists()

    def test_old_serial_checkpoint_is_refused(
        self, tmp_path, bench_paths, capsys
    ):
        # A checkpoint of the removed serial runner: one bare outcome
        # record per line, no journal records.
        old = tmp_path / "old.jsonl"
        old.write_text(
            "".join(
                json.dumps({"circuit": p.stem, "path": str(p), "status": "ok"})
                + "\n"
                for p in bench_paths
            )
        )
        before = old.read_text()
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "sweep",
                    str(bench_paths[0].parent),
                    "--results",
                    str(old),
                    "--patterns",
                    "64",
                ]
            )
        assert ei.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(old) in err and "new journal path" in err
        assert old.read_text() == before


class TestExperimentsFabric:
    def test_fabric_campaign_runs_and_resumes(self, tmp_path, capsys):
        journal = tmp_path / "exp.journal"
        argv = [
            "experiments",
            "--only",
            "t2",
            "--results",
            str(journal),
        ]
        assert main(argv) == EXIT_OK
        assert "1 ok, 0 failed" in capsys.readouterr().err
        before = journal.read_text()
        assert main(argv) == EXIT_OK
        assert journal.read_text() == before

    def test_fabric_without_results_is_a_usage_error(self, capsys):
        # --results alone makes the suite a fabric campaign; the old
        # --fabric switch no longer exists.
        with pytest.raises(SystemExit) as ei:
            main(["experiments", "--only", "t2", "--fabric"])
        assert ei.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_resume_with_fabric_is_a_usage_error(self, tmp_path, capsys):
        for flags in (["--fabric"], ["--no-resume"], ["--fabric", "--no-resume"]):
            with pytest.raises(SystemExit) as ei:
                main(
                    [
                        "experiments",
                        "--only",
                        "t2",
                        "--results",
                        str(tmp_path / "exp.journal"),
                        *flags,
                    ]
                )
            assert ei.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "exp.journal").exists()

    def test_old_serial_checkpoint_is_refused(self, tmp_path, capsys):
        old = tmp_path / "old.jsonl"
        old.write_text(
            json.dumps({"experiment": "t2", "status": "ok", "rendered": "T2"})
            + "\n"
        )
        before = old.read_text()
        with pytest.raises(SystemExit) as ei:
            main(["experiments", "--only", "t2", "--results", str(old)])
        assert ei.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(old) in err and "new journal path" in err
        assert old.read_text() == before


class TestFabricStatus:
    def test_status_reports_commits_and_poison(
        self, tmp_path, bench_paths, capsys
    ):
        from repro.analysis import experiments as exps

        journal = tmp_path / "sweep.journal"
        exps.run_circuit_sweep(
            bench_paths,
            journal,
            n_patterns=64,
            workers=2,
            chaos=FabricChaosSpec(
                forced=((1, "spurious"),), first_attempt_only=False
            ),
        )
        assert main(["fabric-status", str(journal)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"committed     {len(bench_paths) - 1}" in out
        assert "quarantined   1" in out
        assert "poison [+]" in out  # artifact written and present

        assert main(["fabric-status", str(journal), "--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["commits"] == len(bench_paths) - 1
        assert status["quarantined"] == 1
        assert status["kinds"] == {"sweep_circuit": len(bench_paths) - 1}
        assert status["quarantine"][0]["last_error"] == "RuntimeError"
        assert status["quarantine"][0]["artifact_present"] is True

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["fabric-status", str(tmp_path / "nope.journal")])
        assert ei.value.code == EXIT_USAGE
        assert "no fabric journal" in capsys.readouterr().err


@pytest.fixture
def store_campaign(tmp_path, bench_paths):
    """One finished --store sweep: (journal, store_dir)."""
    journal = tmp_path / "sweep.journal"
    store = tmp_path / "store"
    assert (
        main(
            [
                "sweep",
                str(bench_paths[0].parent),
                "--results",
                str(journal),
                "--patterns",
                "64",
                "--workers",
                "1",
                "--store",
                str(store),
            ]
        )
        == EXIT_OK
    )
    return journal, store


class TestStoreCli:
    def test_store_without_fabric_is_a_usage_error(self, tmp_path, capsys):
        # Without --results, experiments runs outside any fabric
        # campaign, so there is no journal for store entries to back.
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "experiments",
                    "--only",
                    "t2",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
        assert ei.value.code == EXIT_USAGE
        assert "--store needs --results" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_fabric_status_reports_store(
        self, bench_paths, store_campaign, capsys
    ):
        journal, store = store_campaign
        capsys.readouterr()
        argv = ["fabric-status", str(journal), "--store", str(store)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "result store" in out
        assert f"entries       {len(bench_paths)}" in out
        assert main(argv + ["--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["store"]["entries"] == len(bench_paths)
        assert status["store"]["publishes"] == len(bench_paths)
        assert status["store"]["corrupt"] == 0

    def test_store_gc_needs_a_cap(self, store_campaign, capsys):
        _journal, store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(["store-gc", str(store)])
        assert ei.value.code == EXIT_USAGE
        assert "cap" in capsys.readouterr().err

    def test_store_gc_missing_store_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["store-gc", str(tmp_path / "nope"), "--max-bytes", "1"])
        assert ei.value.code == EXIT_USAGE
        assert "no result store" in capsys.readouterr().err

    def test_store_gc_prunes_and_reports(
        self, bench_paths, store_campaign, capsys
    ):
        _journal, store = store_campaign
        capsys.readouterr()
        argv = ["store-gc", str(store), "--max-bytes", "0", "--json"]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["deleted"] == len(bench_paths)
        assert report["kept"] == 0


class TestPackCli:
    def test_build_verify_and_tamper(
        self, tmp_path, store_campaign, capsys
    ):
        journal, store = store_campaign
        pack = tmp_path / "pack"
        assert (
            main(
                [
                    "pack",
                    str(journal),
                    "--out",
                    str(pack),
                    "--store",
                    str(store),
                ]
            )
            == EXIT_OK
        )
        assert "evidence pack" in capsys.readouterr().out
        assert main(["pack", str(pack), "--verify"]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

        victim = sorted((pack / "store").glob("*.json"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x40
        victim.write_bytes(bytes(data))
        assert main(["pack", str(pack), "--verify"]) == EXIT_INFEASIBLE
        assert "mismatched" in capsys.readouterr().out

        assert main(["pack", str(pack), "--verify", "--json"]) \
            == EXIT_INFEASIBLE
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["mismatched"] == [f"store/{victim.name}"]

    def test_build_without_out_is_a_usage_error(
        self, store_campaign, capsys
    ):
        journal, _store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(["pack", str(journal)])
        assert ei.value.code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_verify_refuses_build_options(
        self, tmp_path, store_campaign, capsys
    ):
        _journal, store = store_campaign
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "pack",
                    str(tmp_path / "pack"),
                    "--verify",
                    "--store",
                    str(store),
                ]
            )
        assert ei.value.code == EXIT_USAGE

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "pack",
                    str(tmp_path / "nope.journal"),
                    "--out",
                    str(tmp_path / "pack"),
                ]
            )
        assert ei.value.code == EXIT_USAGE
        assert "journal not found" in capsys.readouterr().err
