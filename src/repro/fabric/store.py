"""Content-addressed result store: cross-campaign caching with integrity.

The journal (:mod:`repro.fabric.journal`) makes re-runs free *within*
one campaign; this store makes them free *across* campaigns.  Results
are keyed by the fabric's content-addressed ``job_id`` (already a sha256
of ``kind``, ``content_key``, and ``config_digest``), so two campaigns
that sweep structurally identical circuits under the same config share
one stored result — regardless of journal, process lifetime, or host.

Every entry is a crash-consistent record carrying its own integrity
envelope:

* **atomic writes** — entries land via
  :func:`repro.ioutil.atomic_write_json` (tmp + fsync + ``os.replace``),
  so readers observe a whole record or nothing, never a torn one;
* **payload digest** — the record stores ``payload_sha256``, the sha256
  of the canonical JSON of its ``result``, recomputed and compared on
  *every* read;
* **schema version** — ``fabric-store/1``; stale-schema entries are
  never served;
* **producer fingerprint** — git revision, package version, simulation
  kernel, python version of whatever published the entry, for forensics
  and evidence packs.

A read that fails any check — undecodable bytes, wrong schema, id
mismatch, digest mismatch — **quarantines** the entry to a sidecar
directory (corruption is evidence, not garbage) and reports a miss, so
the fabric recomputes; corrupt entries are never silently served.  On
top of the envelope, the supervisor re-executes a seeded fraction of
cache hits and compares bit-exact via :class:`repro.verify.Guard`, so
an entry whose envelope was forged along with its payload (cache
poisoning) still cannot survive unnoticed.

Publishing is idempotent and first-write-wins: :meth:`ResultStore.put`
refuses to overwrite an existing entry, and concurrent double-publishes
are harmless because both writers replace-in the *same* bit-exact
content.  Eviction (:meth:`ResultStore.gc`) prunes least-recently-used
entries (hits touch mtime) under ``max_bytes`` / ``max_age_days`` caps,
one atomic unlink at a time, and never deletes an entry named by a live
lease file (:meth:`ResultStore.acquire_lease`) — a running campaign's
working set cannot be evicted out from under it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from .. import __version__, ioutil, obs
from ..errors import ArtifactWriteError
from .jobs import Job

__all__ = [
    "STORE_SCHEMA",
    "ResultStore",
    "StoreLease",
    "payload_digest",
    "producer_fingerprint",
]

#: Store entry format identifier; entries with any other schema are
#: quarantined as stale, never served.
STORE_SCHEMA = "fabric-store/1"

#: Lease-file format identifier.
_LEASE_SCHEMA = "fabric-store-lease/1"

_STATS_NAME = "stats.json"
_QUARANTINE_DIR = "quarantine"
_LEASE_DIR = ".leases"

#: Persisted lifetime counters (merged, not overwritten, on every flush).
_STAT_KEYS = ("hits", "misses", "corrupt", "publishes")


def payload_digest(result: object) -> str:
    """sha256 of the canonical JSON encoding of a result payload."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def producer_fingerprint() -> Dict[str, object]:
    """Who/what produced an entry: enough to audit a cache hit later."""
    import platform

    from ..sim.compile import DEFAULT_KERNEL

    return {
        "package": "repro-tpi",
        "package_version": __version__,
        "git_rev": obs.git_revision(),
        "kernel": DEFAULT_KERNEL,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class _Entry:
    """One on-disk entry as seen by scans (no verification implied)."""

    job_id: str
    path: Path
    size: int
    mtime: float


class StoreLease:
    """A durable claim on a set of job ids, protecting them from GC.

    The lease is a file under the store's ``.leases/`` directory; it
    exists exactly while the campaign holding it runs (the supervisor
    releases it in a ``finally``).  A lease left behind by a killed
    process keeps protecting its entries until an operator removes it —
    GC reports protected entries rather than guessing about liveness.
    """

    def __init__(self, path: Path, job_ids: Set[str]) -> None:
        self.path = path
        self.job_ids = frozenset(job_ids)

    def release(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "StoreLease":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


class ResultStore:
    """Content-addressed, integrity-verified result store (one directory).

    Entries live at ``root/<id[:2]>/<job_id>.json`` (fanned out to keep
    directory listings sane at scale); quarantined corpses under
    ``root/quarantine/``; lease files under ``root/.leases/``; lifetime
    hit/miss/corrupt counters in ``root/stats.json``.

    Session counters (``hits``/``misses``/``corrupt``/``publishes``)
    accumulate in memory and are merged into ``stats.json`` by
    :meth:`persist_stats` — the supervisor calls it once per campaign.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.publishes = 0
        self._persisted: Dict[str, int] = {k: 0 for k in _STAT_KEYS}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_path(self, job_id: str) -> Path:
        return self.root / job_id[:2] / f"{job_id}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / _QUARANTINE_DIR

    @property
    def lease_dir(self) -> Path:
        return self.root / _LEASE_DIR

    @property
    def stats_path(self) -> Path:
        return self.root / _STATS_NAME

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def put(
        self,
        job: Job,
        result: dict,
        producer: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Publish one result; first write wins, re-publishes are no-ops.

        Returns True when this call created the entry, False when a
        valid-or-not entry already occupied the slot (idempotent: the
        journal's exactly-once gate means any existing entry for this id
        holds the same bit-exact result; a *corrupt* existing entry is
        left for the next read to quarantine, after which a fresh
        publish lands cleanly).  Raises
        :class:`~repro.errors.ArtifactWriteError` on filesystem failure.
        """
        path = self.entry_path(job.job_id)
        if path.exists():
            obs.count("fabric.store.duplicate_publishes")
            return False
        # Normalize through a JSON round-trip so the digest computed here
        # is over exactly what a reader will re-parse (e.g. tuples become
        # lists *before* hashing, not after).
        result = json.loads(json.dumps(result))
        record = {
            "schema": STORE_SCHEMA,
            "job_id": job.job_id,
            "kind": job.kind,
            "content_key": job.content_key,
            "config_digest": job.config_digest,
            "result": result,
            "payload_sha256": payload_digest(result),
            "producer": dict(producer) if producer else producer_fingerprint(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        ioutil.atomic_write_json(path, record)
        self.publishes += 1
        obs.count("fabric.store.publishes")
        return True

    # ------------------------------------------------------------------
    # Verified read
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[dict]:
        """Return the verified record for ``job_id``, or None (a miss).

        Every read re-checks the integrity envelope; an entry failing
        any check is moved to the quarantine sidecar and reported as a
        miss (plus a ``fabric.store.corrupt`` count) so the caller
        recomputes.  A served hit touches the entry's mtime — the LRU
        recency :meth:`gc` orders eviction by.
        """
        path = self.entry_path(job_id)
        if not path.exists():
            self.misses += 1
            obs.count("fabric.store.misses")
            return None
        record, problem = self._load_verified(path, job_id)
        if record is None:
            self._quarantine(path, job_id, problem or "unreadable")
            self.corrupt += 1
            self.misses += 1
            obs.count("fabric.store.corrupt")
            obs.count("fabric.store.misses")
            return None
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        self.hits += 1
        obs.count("fabric.store.hits")
        return record

    @staticmethod
    def _load_verified(
        path: Path, job_id: str
    ) -> Tuple[Optional[dict], Optional[str]]:
        """(record, None) when the envelope verifies, else (None, why)."""
        try:
            raw = path.read_bytes()
        except OSError as exc:
            return None, f"unreadable: {exc}"
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None, "undecodable (torn or binary-corrupted)"
        if not isinstance(record, dict):
            return None, "not a record object"
        if record.get("schema") != STORE_SCHEMA:
            return None, f"stale schema {record.get('schema')!r}"
        if record.get("job_id") != job_id:
            return None, f"job id mismatch ({record.get('job_id')!r})"
        if "result" not in record:
            return None, "missing result payload"
        stored = record.get("payload_sha256")
        actual = payload_digest(record["result"])
        if stored != actual:
            return None, "payload digest mismatch"
        return record, None

    def _quarantine(self, path: Path, job_id: str, reason: str) -> None:
        """Move a bad entry to the sidecar — evidence, never served again."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():  # keep every corpse, even repeat offenders
            n += 1
            target = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            try:  # cross-device or racing reader: at minimum stop serving it
                path.unlink()
            except OSError:
                pass
            target = None  # type: ignore[assignment]
        obs.event(
            "fabric.store.entry_quarantined",
            job_id=job_id,
            reason=reason,
            moved_to=str(target) if target else None,
        )

    # ------------------------------------------------------------------
    # Scans and statistics
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[_Entry]:
        """Every on-disk entry (unverified), in no particular order."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name in (
                _QUARANTINE_DIR,
                _LEASE_DIR,
            ):
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    st = path.stat()
                except OSError:
                    continue  # raced a concurrent gc/quarantine
                yield _Entry(
                    job_id=path.stem,
                    path=path,
                    size=st.st_size,
                    mtime=st.st_mtime,
                )

    def stats(self) -> Dict[str, object]:
        """Entry counts, bytes, and lifetime hit/miss/corrupt counters.

        Lifetime counters are the persisted ones plus this session's
        not-yet-flushed deltas, so the numbers are current either way.
        """
        n = 0
        total = 0
        for entry in self.entries():
            n += 1
            total += entry.size
        quarantined = 0
        if self.quarantine_dir.is_dir():
            quarantined = sum(
                1 for _ in self.quarantine_dir.glob("*.json")
            )
        persisted = self._read_persisted()
        session = self._session_counters()
        return {
            "path": str(self.root),
            "entries": n,
            "bytes": total,
            "quarantined": quarantined,
            **{
                key: persisted.get(key, 0)
                + session[key]
                - self._persisted[key]
                for key in _STAT_KEYS
            },
        }

    def _session_counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "publishes": self.publishes,
        }

    def _read_persisted(self) -> Dict[str, int]:
        try:
            payload = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        return {
            k: int(v)
            for k, v in payload.items()
            if k in _STAT_KEYS and isinstance(v, (int, float))
        }

    def persist_stats(self) -> None:
        """Merge this session's counter deltas into ``stats.json``.

        Additive (read-modify-write, atomic replace), so campaigns that
        share a store accumulate rather than clobber.  Best-effort: the
        counters are operator telemetry, not correctness state.
        """
        session = self._session_counters()
        deltas = {
            key: session[key] - self._persisted[key] for key in _STAT_KEYS
        }
        if not any(deltas.values()):
            return
        merged = self._read_persisted()
        for key, delta in deltas.items():
            merged[key] = merged.get(key, 0) + delta
        try:
            ioutil.atomic_write_json(self.stats_path, merged)
        except ArtifactWriteError:
            return
        self._persisted = dict(session)

    # ------------------------------------------------------------------
    # Leases (GC protection)
    # ------------------------------------------------------------------
    def acquire_lease(self, job_ids: Iterable[str]) -> StoreLease:
        """Durably protect ``job_ids`` from eviction until released."""
        ids = {str(j) for j in job_ids}
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        path = self.lease_dir / f"{token}.json"
        ioutil.atomic_write_json(
            path,
            {
                "schema": _LEASE_SCHEMA,
                "pid": os.getpid(),
                "job_ids": sorted(ids),
            },
        )
        return StoreLease(path, ids)

    def leased_job_ids(self) -> Set[str]:
        """Every job id named by any live lease file."""
        ids: Set[str] = set()
        if not self.lease_dir.is_dir():
            return ids
        for path in self.lease_dir.glob("*.json"):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # a torn lease file protects nothing
            if (
                isinstance(payload, dict)
                and payload.get("schema") == _LEASE_SCHEMA
            ):
                ids.update(str(j) for j in payload.get("job_ids") or ())
        return ids

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Prune LRU entries down to the caps; never touch leased ones.

        Entries are considered oldest-recency first (mtime; hits touch
        it).  An entry is pruned when it is older than ``max_age_days``
        or while the store is still over ``max_bytes``; each prune is a
        single atomic unlink, so a crash mid-gc leaves a smaller, still
        fully consistent store.  Entries named by a live lease are
        skipped and counted in ``protected``.
        """
        if now is None:
            now = time.time()
        ordered = sorted(self.entries(), key=lambda e: e.mtime)
        total = sum(e.size for e in ordered)
        protected_ids = self.leased_job_ids()
        deleted = 0
        freed = 0
        protected = 0
        for entry in ordered:
            too_old = (
                max_age_days is not None
                and (now - entry.mtime) > max_age_days * 86_400.0
            )
            over_cap = (
                max_bytes is not None and (total - freed) > max_bytes
            )
            if not too_old and not over_cap:
                # mtime-ascending order: everything later is younger, and
                # the byte cap is already met — nothing left to prune.
                break
            if entry.job_id in protected_ids:
                protected += 1
                continue
            try:
                entry.path.unlink()
            except FileNotFoundError:
                continue  # raced another gc; its delete counts, not ours
            deleted += 1
            freed += entry.size
        if deleted:
            obs.count("fabric.store.gc_pruned", deleted)
            obs.event(
                "fabric.store.gc",
                deleted=deleted,
                freed_bytes=freed,
                protected=protected,
                max_bytes=max_bytes,
                max_age_days=max_age_days,
            )
        return {
            "scanned": len(ordered),
            "deleted": deleted,
            "freed_bytes": freed,
            "kept": len(ordered) - deleted,
            "kept_bytes": total - freed,
            "protected": protected,
        }
