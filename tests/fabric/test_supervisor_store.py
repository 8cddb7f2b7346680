"""The caching bar: store-served campaigns bit-identical, exactly once.

A store-enabled campaign must equal the direct per-circuit reference
(:func:`direct_sweep`) bit-for-bit, both
when computing fresh (publishing every result) and when serving a later
campaign entirely from cache — and must stay that way under every
injected store fault, with corrupt entries quarantined rather than
served.  Shadow verification (re-executing a fraction of hits) must
accept honest entries and reject poisoned ones whose envelope was
forged along with the payload.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.analysis import experiments as exps
from repro.errors import DivergenceError
from repro.fabric.store import ResultStore, payload_digest
from repro.resilience.chaos import FabricChaosSpec

from .conftest import direct_sweep

N_PATTERNS = 64


def _fabric(paths, journal_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("store_verify_fraction", 0.0)
    outcomes = exps.run_circuit_sweep(
        paths, journal_path, n_patterns=N_PATTERNS, **kw
    )
    return [asdict(o) for o in outcomes]


class TestStoreCampaign:
    def test_store_requires_fabric(self, tmp_path, bench_paths):
        # The fabric is the only runner: asking for the removed serial
        # checkpoint runner is an error, with or without a store.
        with pytest.raises(ValueError, match="fabric=False"):
            exps.run_circuit_sweep(
                bench_paths,
                tmp_path / "run.journal",
                n_patterns=N_PATTERNS,
                fabric=False,
                store=tmp_path / "store",
            )
        assert not (tmp_path / "run.journal").exists()

    def test_first_campaign_publishes_and_matches_serial(
        self, tmp_path, bench_paths, counters, commit_counts
    ):
        reference = direct_sweep(bench_paths, N_PATTERNS)
        store = tmp_path / "store"
        with counters() as ctrs:
            fabric = _fabric(
                bench_paths, tmp_path / "run1.journal", store=store
            )
        assert fabric == reference
        assert ctrs.value("fabric.store.misses") == len(bench_paths)
        assert ctrs.value("fabric.store.publishes") == len(bench_paths)
        assert ctrs.value("fabric.store.hits") == 0
        counts = commit_counts(tmp_path / "run1.journal")
        assert set(counts.values()) == {1}

    def test_second_campaign_all_hits_zero_recomputation(
        self, tmp_path, bench_paths, counters, commit_counts
    ):
        reference = direct_sweep(bench_paths, N_PATTERNS)
        store = tmp_path / "store"
        _fabric(bench_paths, tmp_path / "run1.journal", store=store)
        with counters() as ctrs:
            second = _fabric(
                bench_paths, tmp_path / "run2.journal", store=store
            )
        assert second == reference
        assert ctrs.value("fabric.store.hits") == len(bench_paths)
        assert ctrs.value("fabric.store.misses") == 0
        assert ctrs.value("fabric.dispatches") == 0, "recomputation happened"
        # Cache hits are committed to the new journal exactly once each
        # (durable truth stays per-campaign; the store is an accelerator).
        counts = commit_counts(tmp_path / "run2.journal")
        assert len(counts) == len(bench_paths)
        assert set(counts.values()) == {1}

    def test_store_stats_persisted_across_campaigns(
        self, tmp_path, bench_paths
    ):
        store = tmp_path / "store"
        _fabric(bench_paths, tmp_path / "run1.journal", store=store)
        _fabric(bench_paths, tmp_path / "run2.journal", store=store)
        stats = ResultStore(store).stats()
        assert stats["publishes"] == len(bench_paths)
        assert stats["hits"] == len(bench_paths)
        assert stats["misses"] == len(bench_paths)

    def test_invalid_verify_fraction_rejected(self, tmp_path, bench_paths):
        with pytest.raises(ValueError, match="fraction"):
            _fabric(
                bench_paths,
                tmp_path / "run.journal",
                store=tmp_path / "store",
                store_verify_fraction=1.5,
            )


class TestShadowVerification:
    def test_honest_hits_survive_full_verification(
        self, tmp_path, bench_paths, counters
    ):
        reference = direct_sweep(bench_paths, N_PATTERNS)
        store = tmp_path / "store"
        _fabric(bench_paths, tmp_path / "run1.journal", store=store)
        with counters() as ctrs:
            second = _fabric(
                bench_paths,
                tmp_path / "run2.journal",
                store=store,
                store_verify_fraction=1.0,
            )
        assert second == reference
        assert ctrs.value("fabric.store.verifications") == len(bench_paths)
        assert ctrs.value("fabric.store.hits") == len(bench_paths)

    def test_poisoned_entry_with_forged_envelope_is_caught(
        self, tmp_path, bench_paths, monkeypatch
    ):
        # Forge a payload *and* recompute its digest: the envelope
        # verifies, so only shadow re-execution can catch it.  The
        # supervisor's guard writes to the default bundle directory,
        # relative to the working directory: keep it inside tmp_path.
        monkeypatch.chdir(tmp_path)
        store_dir = tmp_path / "store"
        _fabric(bench_paths, tmp_path / "run1.journal", store=store_dir)
        store = ResultStore(store_dir)
        entry = next(store.entries())
        record = json.loads(entry.path.read_text(encoding="utf-8"))
        record["result"]["cost"] = record["result"].get("cost", 0) + 97
        record["payload_sha256"] = payload_digest(record["result"])
        entry.path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(DivergenceError) as info:
            _fabric(
                bench_paths,
                tmp_path / "run2.journal",
                store=store_dir,
                store_verify_fraction=1.0,
            )
        assert info.value.bundle_path.startswith("repro_bundles")
        assert (tmp_path / info.value.bundle_path).is_dir()

    def test_fraction_zero_never_verifies(
        self, tmp_path, bench_paths, counters
    ):
        store = tmp_path / "store"
        _fabric(bench_paths, tmp_path / "run1.journal", store=store)
        with counters() as ctrs:
            _fabric(
                bench_paths,
                tmp_path / "run2.journal",
                store=store,
                store_verify_fraction=0.0,
            )
        assert ctrs.value("fabric.store.verifications") == 0


class TestStoreChaos:
    """Store faults strike after the commit; recovery must be invisible."""

    @pytest.mark.parametrize(
        "fault", ["store_torn", "store_bitflip", "store_stale", "store_double"]
    )
    def test_forced_store_fault_is_invisible_in_results(
        self, tmp_path, bench_paths, commit_counts, counters, fault
    ):
        reference = direct_sweep(bench_paths, N_PATTERNS)
        store = tmp_path / "store"
        chaos = FabricChaosSpec(seed=7, forced=((1, fault),))
        first = _fabric(
            bench_paths,
            tmp_path / "run1.journal",
            store=store,
            chaos=chaos,
            workers=1,
        )
        assert first == reference, "store fault leaked into campaign results"
        assert set(commit_counts(tmp_path / "run1.journal").values()) == {1}

        # A fresh campaign against the battered store: the corrupted
        # entry quarantines (a miss that recomputes), everything else
        # serves from cache, and the results are still bit-identical.
        with counters() as ctrs:
            second = _fabric(
                bench_paths, tmp_path / "run2.journal", store=store, workers=1
            )
        assert second == reference
        expected_corrupt = 0 if fault == "store_double" else 1
        assert ctrs.value("fabric.store.corrupt") == expected_corrupt
        assert ctrs.value("fabric.store.hits") == (
            len(bench_paths) - expected_corrupt
        )
        assert ctrs.value("fabric.store.misses") == expected_corrupt
        assert set(commit_counts(tmp_path / "run2.journal").values()) == {1}
        quarantine = ResultStore(store).quarantine_dir
        corpses = (
            list(quarantine.glob("*.json")) if quarantine.is_dir() else []
        )
        assert len(corpses) == expected_corrupt

    def test_store_mix_with_worker_faults_converges(
        self, tmp_path, bench_paths, commit_counts
    ):
        reference = direct_sweep(bench_paths, N_PATTERNS)
        store = tmp_path / "store"
        chaos = FabricChaosSpec(
            seed=3,
            crash=0.15,
            corrupt=0.15,
            enospc=0.15,
            store_torn=0.1,
            store_bitflip=0.1,
            store_stale=0.1,
            store_double=0.1,
        )
        journal = tmp_path / "run1.journal"
        fabric = _fabric(bench_paths, journal, store=store, chaos=chaos)
        assert fabric == reference
        assert set(commit_counts(journal).values()) == {1}
        # And the store still round-trips a clean follow-up campaign.
        second = _fabric(bench_paths, tmp_path / "run2.journal", store=store)
        assert second == reference


class TestExperimentsStore:
    def test_experiment_results_cache_across_campaigns(
        self, tmp_path, monkeypatch, counters
    ):
        calls = {"n": 0}

        class FakeResult:
            def render(self):
                calls["n"] += 1
                return "TABLE t1"

        monkeypatch.setattr(
            exps, "experiment_runners", lambda: {"t1": FakeResult}
        )
        store = tmp_path / "store"
        records = exps.run_experiments_checkpointed(
            ["t1"], tmp_path / "run1.journal", workers=1,
            store=store, store_verify_fraction=0.0,
        )
        assert records == [
            {"experiment": "t1", "status": "ok", "rendered": "TABLE t1"}
        ]
        assert calls["n"] == 1
        with counters() as ctrs:
            again = exps.run_experiments_checkpointed(
                ["t1"], tmp_path / "run2.journal", workers=1,
                store=store, store_verify_fraction=0.0,
            )
        assert again == records
        assert calls["n"] == 1, "cached experiment was recomputed"
        assert ctrs.value("fabric.store.hits") == 1
