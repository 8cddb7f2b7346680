"""The fabric supervisor: leased jobs over a process pool, exactly once.

:class:`FabricSupervisor` is the conductor that ties the fabric's three
dumb parts into one fault-tolerant machine:

* the :class:`~repro.fabric.queue.WorkQueue` owns the campaign state
  machine (pending → leased → done/quarantined, attempts, lease expiry);
* the :class:`~repro.fabric.journal.ResultJournal` owns durable truth
  (exactly-once commits, quarantine records, crash recovery);
* :func:`~repro.fabric.worker.execute_job` owns computation in worker
  processes (heartbeats, structured errors, telemetry capture).

The supervisor's loop is the only place policy lives, and it is the
direct descendant of the parallel fan-out's ``_fan_out``:

1. **lease & dispatch** — lease pending jobs (campaign order) up to the
   pool width; leases start ticking at submission, and since in-flight
   futures never exceed the worker count, a submitted job starts
   executing (and heartbeating) immediately;
2. **drain heartbeats** — workers beat a manager queue; the supervisor
   stamps each beat's *arrival* with its own monotonic clock, so lease
   liveness never depends on clock sync between processes;
3. **settle results** — payloads are shape-validated, committed through
   the journal's exactly-once gate (duplicates and late results from
   expired leases lose, loudly), and the winner's worker telemetry is
   merged into the parent trace exactly once;
4. **expire leases** — a lease with no beat inside the liveness window
   is declared dead: the attempt fails, and the job is re-dispatched —
   to the pool when a slot is free, or *in the parent* when the pool is
   clogged with stalled workers (liveness must never depend on the very
   substrate being doubted);
5. **break the circuit** — :class:`BrokenProcessPool` earns one respawn;
   cascading failures trip the :class:`~repro.resilience.breaker.\
CircuitBreaker` and the remaining campaign drains serially in-process,
   which cannot cascade;
6. **quarantine poison** — a job that fails ``max_attempts`` times is
   recorded durably (journal record + repro-bundle-style artifact dir
   with its payload and full error history) so resumed campaigns never
   retry it.

Every path lands in the same journal through the same commit gate, which
is the whole bit-identity argument: *what* is computed is fixed by the
job's content-addressed payload, and *that it is recorded once* is fixed
by the gate — so crash, stall, duplicate, respawn, and degrade can only
change scheduling, never results.
"""

from __future__ import annotations

import errno
import json
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .. import ioutil, obs
from ..errors import ArtifactWriteError, SweepInterrupted
from ..resilience.breaker import CircuitBreaker
from ..resilience.chaos import FabricChaosSpec
from ..resilience.interrupt import GracefulInterrupt
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .jobs import Job
from .journal import ResultJournal
from .queue import Lease, WorkQueue
from .store import ResultStore
from .worker import execute_job, init_fabric_worker

__all__ = ["FabricSupervisor", "quarantine_dir_for"]

#: Upper bound on one wait() slice: keeps heartbeat stamping and expiry
#: scanning responsive even when every lease is far from expiring.
_MAX_WAIT_SLICE_S = 0.25

#: Journal-append retries (ENOSPC, EIO) before the supervisor gives up
#: and lets the error propagate — durability failures are not hidable.
_JOURNAL_APPEND_ATTEMPTS = 3

#: Chaos actions that strike the result store (supervisor-side, after the
#: journal commit); workers check actions by name and ignore these.
_STORE_CHAOS_ACTIONS = (
    "store_torn",
    "store_bitflip",
    "store_stale",
    "store_double",
)


def quarantine_dir_for(journal_path: Path) -> Path:
    """Where a journal's poison-job artifacts live (sibling directory)."""
    return journal_path.with_name(journal_path.name + ".quarantine")


class FabricSupervisor:
    """Run a campaign of content-addressed jobs to exactly-once commits.

    Parameters
    ----------
    journal:
        The campaign's durable result log (already replayed if resuming).
    workers:
        Pool width; ``<= 1`` runs the whole campaign serially in-process
        (the fabric still provides dedup, journaling, and quarantine).
    lease_timeout_s:
        Liveness window per lease; heartbeats extend it.
    heartbeat_interval_s:
        Worker beat period; defaults to a quarter of the lease window so
        a live worker has four chances per window.
    max_attempts:
        Tries per job before quarantine.
    retry_policy:
        Backoff between re-dispatches *and* between journal-append
        retries; defaults to the shared policy with deterministic jitter.
    chaos:
        Optional fault injection (worker death, stalls, corruption,
        ENOSPC, duplicate completions) for tests and chaos campaigns.
    breaker:
        Circuit breaker; a fresh default is created when omitted.
    interrupt:
        Optional :class:`GracefulInterrupt`; when it reports a signal the
        supervisor stops leasing, shuts the pool down, and raises
        :class:`SweepInterrupted` with the journal already durable.
    store:
        Optional cross-campaign :class:`~repro.fabric.store.ResultStore`.
        When given, jobs not already in this journal are looked up in the
        store before dispatch (a verified hit commits without
        recomputation), and every fresh commit is published back exactly
        once.  The campaign holds a store lease over its job ids for its
        whole run, so concurrent ``store-gc`` cannot evict its entries.
    store_verify_fraction:
        Seeded fraction of store hits that are re-executed in-process and
        compared bit-exact against the cached result (via
        :class:`~repro.verify.Guard`); a mismatch raises
        :class:`~repro.errors.DivergenceError` — cache poisoning fails
        the campaign loudly instead of contaminating results.
    store_verify_seed:
        Seed of the per-job verification draw (a pure function of seed
        and job id, so the audited subset is order-independent).
    """

    def __init__(
        self,
        journal: ResultJournal,
        workers: int = 2,
        lease_timeout_s: float = 30.0,
        heartbeat_interval_s: Optional[float] = None,
        max_attempts: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        chaos: Optional[FabricChaosSpec] = None,
        breaker: Optional[CircuitBreaker] = None,
        interrupt: Optional[GracefulInterrupt] = None,
        store: Optional[ResultStore] = None,
        store_verify_fraction: float = 0.0,
        store_verify_seed: int = 0,
    ) -> None:
        self.journal = journal
        self.workers = max(1, int(workers))
        self.lease_timeout_s = float(lease_timeout_s)
        self.heartbeat_interval_s = (
            float(heartbeat_interval_s)
            if heartbeat_interval_s is not None
            else max(0.05, self.lease_timeout_s / 4.0)
        )
        self.max_attempts = int(max_attempts)
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else DEFAULT_RETRY_POLICY.replaced(
                max_attempts=max_attempts, jitter=0.1
            )
        )
        self.chaos = chaos
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.interrupt = interrupt
        self.store = store
        self.store_verify_fraction = float(store_verify_fraction)
        self.store_verify_seed = int(store_verify_seed)
        if not 0.0 <= self.store_verify_fraction <= 1.0:
            raise ValueError("store_verify_fraction must lie in [0, 1]")
        self.stats: Dict[str, int] = {
            "jobs": 0,
            "cached": 0,
            "committed": 0,
            "retries": 0,
            "expired": 0,
            "quarantined": 0,
            "duplicates": 0,
            "pool_breaks": 0,
            "parent_runs": 0,
            "store_hits": 0,
            "store_misses": 0,
            "store_verified": 0,
        }
        self._errors: Dict[str, List[dict]] = {}
        self._enospc_armed: set = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[Job]) -> Dict[str, Optional[dict]]:
        """Drive every job to a terminal state; return committed results.

        The mapping covers every requested job id: committed jobs map to
        their result dict, quarantined jobs to ``None``.  Results cached
        in the journal from a previous run (resume, dedup) are returned
        without recomputation.
        """
        queue = WorkQueue(
            lease_timeout_s=self.lease_timeout_s,
            max_attempts=self.max_attempts,
        )
        requested: List[str] = []
        for job in jobs:
            requested.append(job.job_id)
            queue.add(job)
        self.stats["jobs"] = len(queue.job_ids())  # distinct after dedup
        for job_id in queue.job_ids():
            if job_id in self.journal.committed:
                queue.mark_done(job_id, "committed")
                self.stats["cached"] += 1
                obs.count("fabric.cache_hits")
            elif job_id in self.journal.quarantined:
                queue.mark_done(job_id, "quarantined")
                self.stats["cached"] += 1
        store_lease = None
        if self.store is not None:
            # The lease pins this campaign's working set against a
            # concurrent store-gc for the whole run, hits and misses
            # alike (a miss becomes an entry the moment it commits).
            store_lease = self.store.acquire_lease(queue.job_ids())
        try:
            if self.store is not None and queue.unfinished:
                self._resolve_from_store(queue)
            self._drive(queue)
        finally:
            if store_lease is not None:
                store_lease.release()
            if self.store is not None:
                self.store.persist_stats()
        return {
            job_id: self.journal.result_for(job_id) for job_id in requested
        }

    def _drive(self, queue: WorkQueue) -> None:
        with obs.span(
            "fabric.run",
            jobs=self.stats["jobs"],
            cached=self.stats["cached"],
            workers=self.workers,
        ):
            obs.event(
                "fabric.campaign_start",
                jobs=self.stats["jobs"],
                cached=self.stats["cached"],
                workers=self.workers,
                lease_timeout_s=self.lease_timeout_s,
                chaos=self.chaos is not None,
            )
            if queue.unfinished:
                if self.workers <= 1 or self.breaker.tripped:
                    self._drain_serial(queue)
                else:
                    self._run_pool(queue)
            obs.event(
                "fabric.campaign_end",
                **{k: v for k, v in self.stats.items()},
                breaker_tripped=self.breaker.tripped,
            )

    # ------------------------------------------------------------------
    # Result-store integration
    # ------------------------------------------------------------------
    def _resolve_from_store(self, queue: WorkQueue) -> None:
        """Settle every job the store can vouch for, before any dispatch.

        A verified store hit commits through the same journal gate as a
        computed result — bit-identity and exactly-once hold regardless
        of which campaign originally computed the value.  Corrupt
        entries were already quarantined (and counted) by the store's
        own read path; they surface here as misses and recompute.
        """
        for job_id in queue.job_ids():
            if self.journal.is_done(job_id):
                continue
            job = queue.job(job_id)
            record = self.store.get(job_id)
            if record is None:
                self.stats["store_misses"] += 1
                continue
            cached = record.get("result")
            verified = False
            if self._store_verify_due(job_id):
                if not self._verify_store_hit(job, cached):
                    # Could not re-execute (not a mismatch — that
                    # raises): fall through to normal dispatch.
                    self.stats["store_misses"] += 1
                    continue
                verified = True
                self.stats["store_verified"] += 1
            self._commit_durable(job, cached, attempt=0)
            queue.mark_done(job_id, "committed")
            self.stats["store_hits"] += 1
            obs.event(
                "fabric.store.hit_committed",
                job=job.describe(),
                verified=verified,
            )

    def _store_verify_due(self, job_id: str) -> bool:
        """Seeded, order-independent audit draw for one store hit."""
        if self.store_verify_fraction >= 1.0:
            return True
        if self.store_verify_fraction <= 0.0:
            return False
        roll = random.Random(
            f"store-verify:{self.store_verify_seed}:{job_id}"
        ).random()
        return roll < self.store_verify_fraction

    def _verify_store_hit(self, job: Job, cached: object) -> bool:
        """Re-execute one hit and compare bit-exact; raise on mismatch.

        Returns False when the re-execution itself errors (the hit is
        then treated as a miss and dispatched normally); a successful
        re-execution that *disagrees* with the cached result raises
        :class:`~repro.errors.DivergenceError` through the Guard, with a
        repro bundle when the job's circuit can be reloaded.
        """
        from ..verify import Guard
        from .worker import _dispatch

        capture = obs.RunRecorder(None)
        previous = obs.set_recorder(capture)
        try:
            recomputed = _dispatch(job.kind, dict(job.payload))
        except Exception as exc:
            obs.event(
                "fabric.store.verify_error",
                job=job.describe(),
                error=type(exc).__name__,
                message=str(exc)[:200],
            )
            return False
        finally:
            obs.set_recorder(previous)
        # Same normalization the store applied before digesting: the
        # comparison must see exactly what a JSON reader would.
        recomputed = json.loads(json.dumps(recomputed))
        obs.count("fabric.store.verifications")
        guard = Guard(fraction=1.0, certify=False)
        guard.confirm(
            "fabric.store_hit",
            expected=recomputed,
            actual=cached,
            circuit=self._bundle_circuit(job),
            context={
                "job": job.describe(),
                "store": str(self.store.root),
                "entry": str(self.store.entry_path(job.job_id)),
                "expected_from": "re-executed in supervisor",
                "actual_from": "result-store entry",
            },
            message=(
                "stored result differs from bit-exact re-execution "
                "(cache poisoning or nondeterministic executor)"
            ),
        )
        return True

    def _bundle_circuit(self, job: Job):
        """Best-effort circuit reload for divergence repro bundles."""
        path = dict(job.payload).get("path")
        if not path:
            return None
        try:
            from ..analysis.experiments import _load_netlist_file

            return _load_netlist_file(Path(str(path)))
        except Exception:
            return None

    def _publish_store(self, job: Job, result: dict, attempt: int) -> None:
        """Publish one fresh commit to the store (exactly once, then chaos).

        Called only from the winning commit in :meth:`_settle_ok` —
        store hits settle in :meth:`_resolve_from_store` and never
        republish, and :meth:`~repro.fabric.store.ResultStore.put` is
        first-write-wins besides.  A store write failure is logged and
        swallowed: the journal is the campaign's durable truth, the
        store is an accelerator.
        """
        try:
            self.store.put(job, result)
        except (ArtifactWriteError, OSError) as exc:
            obs.event(
                "fabric.store.publish_failed",
                job=job.describe(),
                error=type(exc).__name__,
            )
            return
        action = (
            self.chaos.action(job.index, attempt)
            if self.chaos is not None
            else None
        )
        if action in _STORE_CHAOS_ACTIONS:
            self._inflict_store_chaos(action, job, result)

    def _inflict_store_chaos(
        self, action: str, job: Job, result: dict
    ) -> None:
        """Damage the just-published entry the way real storage would."""
        path = self.store.entry_path(job.job_id)
        if action == "store_double":
            # A racing second publish: first write must win, silently.
            again = self.store.put(job, result)
            assert not again, "store accepted a second publish"
        elif path.exists():
            if action == "store_torn":
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
            elif action == "store_stale":
                record = json.loads(path.read_text(encoding="utf-8"))
                record["schema"] = "fabric-store/0"
                ioutil.atomic_write_json(path, record)
            elif action == "store_bitflip":
                data = bytearray(path.read_bytes())
                rng = random.Random(f"store-bitflip:{job.job_id}")
                while True:
                    # Keep flipping until the envelope actually rejects
                    # the entry — a flip inside e.g. the producer block
                    # can leave a still-valid record.
                    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
                    path.write_bytes(bytes(data))
                    rec, _why = ResultStore._load_verified(path, job.job_id)
                    if rec is None:
                        break
        obs.event(
            "fabric.store.chaos", action=action, job=job.describe()
        )

    # ------------------------------------------------------------------
    # Pool mode
    # ------------------------------------------------------------------
    def _run_pool(self, queue: WorkQueue) -> None:
        hb_queue, manager = self._make_heartbeat_queue()
        pool = self._make_pool(queue, hb_queue)
        if pool is None:
            # Could not even start a pool (fork forbidden, manager dead):
            # that is a substrate failure, not a campaign failure.
            self.breaker.record_pool_break()
            self._drain_serial(queue)
            if manager is not None:
                manager.shutdown()
            return
        beat = obs.Heartbeat("fabric")
        # fut -> (job_id, attempt); ``current`` marks the fut that holds
        # the live claim on a job (late futs from expired leases stay in
        # ``pending`` so their results can still reach the commit gate).
        pending: Dict[Future, Tuple[str, int]] = {}
        current: Dict[str, Future] = {}
        try:
            while queue.unfinished:
                self._check_interrupt(queue, pool, pending)
                now = time.monotonic()
                # Lease & dispatch up to pool width.  len(pending) counts
                # every outstanding fut — including stalled ones whose
                # lease already expired — so a clogged pool stops being
                # offered new work instead of queueing jobs whose lease
                # clock would tick before execution starts.
                while len(pending) < self.workers:
                    lease = queue.lease_next(now)
                    if lease is None:
                        break
                    try:
                        fut = pool.submit(
                            execute_job,
                            (
                                lease.job.to_dict(),
                                lease.job.index,
                                lease.attempt,
                            ),
                        )
                    except BrokenProcessPool:
                        queue.release(lease)
                        pool = self._handle_broken(
                            queue, pool, hb_queue, pending, current
                        )
                        if pool is None:
                            return
                        break
                    pending[fut] = (lease.job.job_id, lease.attempt)
                    current[lease.job.job_id] = fut
                    obs.count("fabric.dispatches")
                if not pending:
                    if queue.unfinished:
                        # Nothing in flight yet work remains: every job is
                        # waiting on backoff/quarantine bookkeeping; the
                        # expiry scan below will make progress.
                        time.sleep(0.01)
                    self._drain_heartbeats(queue, hb_queue)
                    self._expire_leases(queue, pending, current)
                    continue
                done, _ = wait(
                    list(pending),
                    timeout=self._wait_slice(queue),
                    return_when=FIRST_COMPLETED,
                )
                self._drain_heartbeats(queue, hb_queue)
                broken = False
                for fut in done:
                    job_id, attempt = pending.pop(fut)
                    is_current = current.get(job_id) is fut
                    if is_current:
                        current.pop(job_id)
                    exc = fut.exception()
                    if isinstance(exc, BrokenProcessPool):
                        broken = True
                        if is_current:
                            # Keep the claim visible so _handle_broken
                            # fails (and re-pends) this job; otherwise
                            # its lease would orphan until expiry.
                            current[job_id] = fut
                        continue
                    if exc is not None:
                        # Worker died mid-job (chaos crash, OOM kill):
                        # the pool surfaces it as BrokenProcessPool on
                        # *all* futures; anything else is a pickling or
                        # dispatch failure local to this job.
                        if is_current:
                            self._fail(
                                queue,
                                job_id,
                                {
                                    "type": type(exc).__name__,
                                    "message": str(exc)[:500],
                                },
                            )
                        continue
                    self._settle_payload(
                        queue, job_id, attempt, fut.result(), is_current
                    )
                if broken:
                    pool = self._handle_broken(
                        queue, pool, hb_queue, pending, current
                    )
                    if pool is None:
                        return
                    continue
                self._drain_heartbeats(queue, hb_queue)
                self._expire_leases(queue, pending, current)
                if (
                    queue.n_pending
                    and queue.n_leased == 0
                    and len(pending) >= self.workers
                ):
                    # Every pool slot is held by a zombie fut (stalled
                    # worker whose lease already expired and settled):
                    # pending work would wait forever for a slot.  The
                    # parent executes it — liveness over parallelism.
                    lease = queue.lease_next(time.monotonic())
                    if lease is not None:
                        self._run_in_parent(queue, lease)
                beat.beat(
                    fabric_done=queue.n_done,
                    fabric_pending=queue.n_pending,
                    fabric_leased=queue.n_leased,
                )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if manager is not None:
                manager.shutdown()

    def _wait_slice(self, queue: WorkQueue) -> float:
        """How long one wait() may block without starving the scans."""
        slice_s = _MAX_WAIT_SLICE_S
        expiry = queue.next_expiry()
        if expiry is not None:
            slice_s = min(slice_s, max(0.01, expiry - time.monotonic()))
        return slice_s

    def _make_heartbeat_queue(self):
        """A manager-proxy queue (picklable through initargs), or None."""
        try:
            import multiprocessing

            manager = multiprocessing.Manager()
            return manager.Queue(), manager
        except Exception as exc:  # sandboxes may forbid the manager's socket
            obs.event(
                "fabric.no_heartbeat_channel",
                error=type(exc).__name__,
            )
            return None, None

    def _make_pool(
        self, queue: WorkQueue, hb_queue
    ) -> Optional[ProcessPoolExecutor]:
        try:
            import os

            try:
                usable = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity support
                usable = os.cpu_count() or 1
            width = max(1, min(self.workers, usable, queue.unfinished))
            pool = ProcessPoolExecutor(
                max_workers=width,
                initializer=init_fabric_worker,
                initargs=(
                    hb_queue,
                    self.heartbeat_interval_s,
                    self.chaos,
                    self._run_id(),
                ),
            )
            self.workers = width
            return pool
        except Exception as exc:
            obs.event("fabric.pool_unavailable", error=type(exc).__name__)
            return None

    @staticmethod
    def _run_id() -> Optional[str]:
        recorder = obs.get_recorder()
        return recorder.run_id if recorder is not None else None

    def _drain_heartbeats(self, queue: WorkQueue, hb_queue) -> None:
        if hb_queue is None:
            return
        now = time.monotonic()
        while True:
            try:
                job_id, _pid = hb_queue.get_nowait()
            except Exception:  # Empty, or a manager mid-shutdown
                return
            if queue.heartbeat(str(job_id), now):
                obs.count("fabric.heartbeats")

    def _expire_leases(
        self,
        queue: WorkQueue,
        pending: Dict[Future, Tuple[str, int]],
        current: Dict[str, Future],
    ) -> None:
        now = time.monotonic()
        for lease in queue.expired(now):
            job_id = lease.job.job_id
            self.stats["expired"] += 1
            obs.count("fabric.lease_expired")
            obs.event(
                "fabric.lease_expired",
                job=lease.job.describe(),
                attempt=lease.attempt,
                heartbeats=lease.heartbeats,
            )
            # The stalled fut loses its claim but stays in ``pending``:
            # if the worker eventually answers, the payload is offered to
            # the commit gate (and loses if the re-dispatch landed first).
            stalled = current.pop(job_id, None)
            self._fail(
                queue,
                job_id,
                {
                    "type": "LeaseExpired",
                    "message": (
                        f"no heartbeat within {queue.lease_timeout_s:.3f}s "
                        f"(attempt {lease.attempt}, "
                        f"{lease.heartbeats} beats)"
                    ),
                },
                # A clogged pool (every slot held by an outstanding fut)
                # cannot be trusted to start the retry — run it in the
                # parent, whose liveness is not in question.
                force_parent=stalled is not None
                and len(pending) >= self.workers,
            )

    def _handle_broken(
        self,
        queue: WorkQueue,
        pool: ProcessPoolExecutor,
        hb_queue,
        pending: Dict[Future, Tuple[str, int]],
        current: Dict[str, Future],
    ) -> Optional[ProcessPoolExecutor]:
        """One respawn per campaign; a second break trips the breaker."""
        self.stats["pool_breaks"] += 1
        obs.count("fabric.pool_breaks")
        pool.shutdown(wait=False, cancel_futures=True)
        pending.clear()
        for job_id in list(current):
            current.pop(job_id)
            self._fail(
                queue,
                job_id,
                {"type": "BrokenProcessPool", "message": "pool broke"},
                count_breaker=False,  # the pool break is counted once below
            )
        tripped = self.breaker.record_pool_break()
        if tripped:
            obs.event("fabric.degraded_serial", reason=self.breaker.trip_reason)
            self._drain_serial(queue)
            return None
        obs.count("fabric.pool_respawns")
        obs.event("fabric.pool_respawn")
        fresh = self._make_pool(queue, hb_queue)
        if fresh is None:
            self.breaker.record_pool_break()
            obs.event("fabric.degraded_serial", reason="respawn failed")
            self._drain_serial(queue)
            return None
        return fresh

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def _settle_payload(
        self,
        queue: WorkQueue,
        job_id: str,
        attempt: int,
        payload: object,
        is_current: bool,
    ) -> None:
        shape_error = self._validate_payload(job_id, payload)
        if shape_error is not None:
            if is_current:
                self._fail(queue, job_id, shape_error)
            return
        status, _jid, body, telem = payload  # type: ignore[misc]
        if status == "error":
            if is_current:
                self._fail(queue, job_id, dict(body))
            return
        # Valid result — late ones included: work already done should win
        # if (and only if) nothing else committed first.
        self._settle_ok(queue, job_id, attempt, body, telem)

    @staticmethod
    def _validate_payload(job_id: str, payload: object) -> Optional[dict]:
        """None when well-formed; a structured error record otherwise."""
        if (
            not isinstance(payload, tuple)
            or len(payload) != 4
            or payload[0] not in ("ok", "error")
            or payload[1] != job_id
        ):
            return {
                "type": "CorruptPayload",
                "message": f"malformed worker payload {type(payload).__name__}",
            }
        if payload[0] == "ok" and not isinstance(payload[2], dict):
            return {
                "type": "CorruptPayload",
                "message": "ok payload without a result dict",
            }
        if payload[0] == "error" and not isinstance(payload[2], dict):
            return {
                "type": "CorruptPayload",
                "message": "error payload without an error dict",
            }
        return None

    def _settle_ok(
        self,
        queue: WorkQueue,
        job_id: str,
        attempt: int,
        result: dict,
        telem: Optional[dict],
    ) -> None:
        job = queue.job(job_id)
        committed = self._commit_durable(job, result, attempt)
        if not committed:
            self.stats["duplicates"] += 1
            return
        queue.complete(job_id)
        self.breaker.record_success()
        self.stats["committed"] += 1
        if telem:
            self._merge_telemetry(job, telem)
        if self.store is not None:
            self._publish_store(job, result, attempt)
        if (
            self.chaos is not None
            and self.chaos.action(job.index, attempt) == "duplicate"
        ):
            # Chaos: a confused worker (or a resumed supervisor) offers
            # the same completion again — the gate must refuse it.
            again = self.journal.commit(job, result)
            assert not again, "journal accepted a duplicate commit"
            self.stats["duplicates"] += 1

    def _commit_durable(self, job: Job, result: dict, attempt: int) -> bool:
        """Commit through the gate, riding out transient append failures."""
        fault_hook = None
        if (
            self.chaos is not None
            and self.chaos.action(job.index, attempt) == "enospc"
            and job.job_id not in self._enospc_armed
        ):
            self._enospc_armed.add(job.job_id)
            fault_hook = _one_shot_enospc()
        tries = 0
        with ioutil.inject_faults(fault_hook) if fault_hook else _noop():
            while True:
                try:
                    return self.journal.commit(job, result)
                except ArtifactWriteError as exc:
                    tries += 1
                    obs.count("fabric.journal_write_errors")
                    obs.event(
                        "fabric.journal_write_error",
                        job=job.describe(),
                        op=exc.op,
                        errno=exc.errno,
                        attempt=tries,
                    )
                    if tries >= _JOURNAL_APPEND_ATTEMPTS:
                        raise
                    # Realign the tail so the retry cannot weld onto a
                    # torn fragment, then back off and try again.
                    try:
                        self.journal.recover_append()
                    except OSError:
                        pass
                    self.retry_policy.sleep(tries, key=f"journal:{job.job_id}")

    def _fail(
        self,
        queue: WorkQueue,
        job_id: str,
        error: dict,
        force_parent: bool = False,
        count_breaker: bool = True,
    ) -> None:
        self._errors.setdefault(job_id, []).append(error)
        obs.event(
            "fabric.job_failed",
            job=queue.job(job_id).describe(),
            attempt=queue.attempts(job_id),
            error=error.get("type"),
        )
        if count_breaker:
            self.breaker.record_failure()
        move = queue.fail(job_id)
        if move == "settled":
            return
        if move == "quarantine":
            self._quarantine(queue, job_id)
            return
        self.stats["retries"] += 1
        obs.count("fabric.retries")
        self.retry_policy.sleep(queue.attempts(job_id), key=job_id)
        if force_parent or self.breaker.tripped:
            lease = queue.lease_next(time.monotonic())
            # fail() put this job at the front, so the next lease is it
            # (or another retry that deserves the slot just as much).
            if lease is not None:
                self._run_in_parent(queue, lease)

    def _quarantine(self, queue: WorkQueue, job_id: str) -> None:
        job = queue.job(job_id)
        attempts = queue.attempts(job_id)
        errors = self._errors.get(job_id, [])
        artifact = self._write_quarantine_artifact(job, attempts, errors)
        self.journal.record_quarantine(
            job, attempts=attempts, errors=errors, artifact=artifact
        )
        queue.quarantine(job_id)
        self.stats["quarantined"] += 1
        obs.event(
            "fabric.job_quarantined",
            job=job.describe(),
            attempts=attempts,
            last_error=errors[-1].get("type") if errors else None,
            artifact=artifact,
        )

    def _write_quarantine_artifact(
        self, job: Job, attempts: int, errors: List[dict]
    ) -> Optional[str]:
        """Repro-bundle-style artifact: everything needed to replay poison."""
        target = quarantine_dir_for(self.journal.path) / job.job_id
        try:
            target.mkdir(parents=True, exist_ok=True)
            ioutil.atomic_write_json(
                target / "job.json",
                {
                    "schema": "fabric-quarantine/1",
                    "job": job.to_dict(),
                    "attempts": attempts,
                    "errors": errors,
                    "journal": str(self.journal.path),
                },
            )
            return str(target)
        except (ArtifactWriteError, OSError) as exc:
            # The journal record is the durable truth; the artifact is
            # best-effort forensics and must not fail the campaign.
            obs.event(
                "fabric.quarantine_artifact_failed",
                job=job.describe(),
                error=type(exc).__name__,
            )
            return None

    def _merge_telemetry(self, job: Job, telem: dict) -> None:
        """Merge exactly one telemetry record per committed job."""
        counters = telem.get("counters") or {}
        for name, value in counters.items():
            obs.count(f"worker.{name}", value)
        obs.event(
            "fabric.job_telemetry",
            job=job.describe(),
            pid=telem.get("pid"),
            attempt=telem.get("attempt"),
            in_parent=telem.get("in_parent"),
            seconds=telem.get("seconds"),
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Serial paths
    # ------------------------------------------------------------------
    def _drain_serial(self, queue: WorkQueue) -> None:
        """Run everything left in-process (degraded or workers<=1).

        Beats the same ``fabric`` heartbeat as the pool loop between
        jobs, so a stalled in-process campaign stays visible.
        """
        obs.count("fabric.serial_drains")
        beat = obs.Heartbeat("fabric")
        while queue.unfinished:
            if self.interrupt is not None:
                # A no-op unless a signal arrived: stops at a job
                # boundary, every earlier commit already durable.
                self.interrupt.check(
                    completed=queue.n_done, remaining=queue.unfinished
                )
            lease = queue.lease_next(time.monotonic())
            if lease is None:
                return  # only leased-elsewhere work remains
            self._run_in_parent(queue, lease)
            beat.beat(
                fabric_done=queue.n_done,
                fabric_pending=queue.n_pending,
                fabric_leased=queue.n_leased,
            )

    def _run_in_parent(self, queue: WorkQueue, lease: Lease) -> None:
        """Execute one leased job in-process; commit through the gate.

        The last-resort path: worker-side chaos does not apply (there is
        no worker to kill), but the commit-side gate — and its chaos —
        is exactly the one the pool path uses.
        """
        from time import perf_counter

        from .worker import _dispatch

        job = lease.job
        self.stats["parent_runs"] += 1
        obs.count("fabric.parent_runs")
        capture = obs.RunRecorder(None)
        previous = obs.set_recorder(capture)
        start = perf_counter()
        try:
            result = _dispatch(job.kind, dict(job.payload))
        except Exception as exc:
            obs.set_recorder(previous)
            self._fail(
                queue,
                job.job_id,
                {"type": type(exc).__name__, "message": str(exc)[:500]},
            )
            return
        finally:
            obs.set_recorder(previous)
        if not isinstance(result, dict):
            self._fail(
                queue,
                job.job_id,
                {
                    "type": "TypeError",
                    "message": f"executor returned "
                    f"{type(result).__name__}, not a result dict",
                },
            )
            return
        import os

        telem = {
            "pid": os.getpid(),
            "run_id": self._run_id(),
            "attempt": lease.attempt,
            "in_parent": True,
            "seconds": round(perf_counter() - start, 6),
            "counters": capture.metrics.snapshot()["counters"],
        }
        self._settle_ok(queue, job.job_id, lease.attempt, result, telem)

    # ------------------------------------------------------------------
    # Interruption
    # ------------------------------------------------------------------
    def _check_interrupt(
        self,
        queue: WorkQueue,
        pool: ProcessPoolExecutor,
        pending: Dict[Future, Tuple[str, int]],
    ) -> None:
        if self.interrupt is None or not self.interrupt.requested:
            return
        obs.event(
            "fabric.interrupted",
            signal=self.interrupt.signal_name,
            completed=queue.n_done,
            remaining=queue.unfinished,
        )
        pool.shutdown(wait=False, cancel_futures=True)
        pending.clear()
        # The journal is already durable record-by-record; nothing to
        # flush.  Raise the resumable interruption for the CLI to map.
        self.interrupt.check(
            completed=queue.n_done, remaining=queue.unfinished
        )


def _one_shot_enospc():
    """A fault hook that fails exactly one journal append with ENOSPC."""
    armed = {"live": True}

    def hook(op: str, path) -> None:
        if op == "append" and armed["live"]:
            armed["live"] = False
            raise OSError(errno.ENOSPC, "chaos: injected ENOSPC")

    return hook


class _noop:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False
