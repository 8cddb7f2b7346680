"""Deterministic fault injection for the sweep fabric (chaos hooks).

The fabric (:mod:`repro.fabric`) promises that worker crashes, stalled
heartbeats, corrupted payloads, spurious worker exceptions, journal
writes hitting ENOSPC, duplicate completions racing the commit point, and
corrupted result-store entries never change a campaign's *results* —
only its wall clock.  That promise is worth nothing untested, and real
crashes are not reproducible; a :class:`FabricChaosSpec` makes them so.
Injection is **seeded and deterministic**: the decision for a job is a
pure function of ``(seed, job_index, attempt)``, so a failing campaign
replays exactly.  ``forced`` pins specific jobs to specific actions for
targeted tests.  By default (``first_attempt_only=True``) chaos applies
only to a job's first attempt, so every campaign must converge to the
chaos-free result — which is exactly the property the chaos tests
assert.

Nothing here ever fires in production: ``FabricSupervisor(chaos=None)``
(the default) skips every hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

__all__ = ["FABRIC_CHAOS_ACTIONS", "FabricChaosSpec"]


def _banded_roll(
    seed_key: str, bands: Sequence[Tuple[str, float]]
) -> Optional[str]:
    """One uniform draw partitioned into probability bands.

    The draw is keyed by ``seed_key`` alone, so the same key always
    lands in the same band — in the parent, in any worker, on any host.
    """
    if not any(p for _name, p in bands):
        return None
    roll = random.Random(seed_key).random()
    edge = 0.0
    for name, p in bands:
        edge += p
        if roll < edge:
            return name
    return None


#: Everything fabric chaos can do to a job attempt.  The first four are
#: inflicted inside the worker process; ``enospc`` and ``duplicate``
#: strike the *supervisor* side (journal append failure, double commit).
FABRIC_CHAOS_ACTIONS = (
    "crash",      # worker process dies hard mid-lease (os._exit)
    "stall",      # worker stops heartbeating and sleeps past lease expiry
    "corrupt",    # worker returns a malformed result payload
    "spurious",   # worker raises an unexpected exception
    "enospc",     # the journal append for this job's commit fails once
    "duplicate",  # a second completion for the job races the commit
    # Result-store faults (strike the published store entry after the
    # journal commit; workers ignore them — they check actions by name):
    "store_torn",     # the entry file is truncated mid-record
    "store_bitflip",  # one bit of the entry payload is flipped
    "store_stale",    # the entry is rewritten under an old schema tag
    "store_double",   # a concurrent second publish races the first
)


@dataclass(frozen=True)
class FabricChaosSpec:
    """Seeded fault-injection plan for one fabric campaign.

    Banded probabilities over one uniform draw per ``(job_index,
    attempt)`` (so they must sum to at most 1), ``forced`` pins
    (``((1, "crash"),)`` crashes job 1's worker), first-attempt-only by
    default, over the fabric's fault surface:

    * ``crash`` — the worker leasing the job dies hard, breaking the
      pool (exercises pool respawn, lease bookkeeping, the breaker);
    * ``stall`` — the worker suppresses its heartbeat and sleeps
      ``stall_seconds`` (exercises heartbeat-based lease expiry and
      re-dispatch; the stalled attempt's late result must lose to the
      exactly-once commit);
    * ``corrupt`` — the worker returns a malformed payload (exercises
      supervisor-side shape validation + retry);
    * ``spurious`` — the worker raises (plain retry path);
    * ``enospc`` — the journal append committing this job fails once
      with ``ENOSPC`` (exercises commit retry; the job must still
      commit exactly once);
    * ``duplicate`` — a duplicate completion for the job is offered to
      the journal after the real commit (must be rejected, not
      double-counted);
    * ``store_torn`` — the result-store entry published for this job is
      truncated mid-record (a torn write; the next read must quarantine
      it and recompute, never serve a partial record);
    * ``store_bitflip`` — one bit of the published entry is flipped
      (silent media corruption; the payload sha256 must catch it);
    * ``store_stale`` — the published entry is rewritten under an
      outdated schema tag (a leftover from an older store format; it
      must be quarantined, not parsed on faith);
    * ``store_double`` — a second publish for the job races the first
      (must be a no-op: first write wins, entry content unchanged).

    The ``store_*`` faults only fire when the campaign runs with a
    result store attached; without one the supervisor has nothing to
    corrupt and ignores them.
    """

    seed: int = 0
    crash: float = 0.0
    stall: float = 0.0
    corrupt: float = 0.0
    spurious: float = 0.0
    enospc: float = 0.0
    duplicate: float = 0.0
    store_torn: float = 0.0
    store_bitflip: float = 0.0
    store_stale: float = 0.0
    store_double: float = 0.0
    #: How long a stalled worker sleeps (keep well above the
    #: supervisor's ``lease_timeout_s`` so the lease actually expires).
    stall_seconds: float = 30.0
    #: With True (default) chaos only strikes a job's first attempt, so
    #: retries converge; False re-rolls per attempt (torture mode).
    first_attempt_only: bool = True
    forced: Tuple[Tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        total = (
            self.crash + self.stall + self.corrupt
            + self.spurious + self.enospc + self.duplicate
            + self.store_torn + self.store_bitflip
            + self.store_stale + self.store_double
        )
        if total > 1.0 + 1e-12:
            raise ValueError(f"chaos probabilities sum to {total:g} > 1")
        for _idx, act in self.forced:
            if act not in FABRIC_CHAOS_ACTIONS:
                raise ValueError(
                    f"unknown fabric chaos action {act!r} "
                    f"(choose from {FABRIC_CHAOS_ACTIONS})"
                )

    def action(self, job_index: int, attempt: int) -> Optional[str]:
        """The action (if any) to inflict on this job attempt.

        Pure and deterministic — the supervisor and the worker agree on
        the answer without communicating, which is what lets worker-side
        and supervisor-side faults share one spec.
        """
        if attempt > 0 and self.first_attempt_only:
            return None
        for idx, act in self.forced:
            if idx == job_index:
                return act
        bands = (
            ("crash", self.crash),
            ("stall", self.stall),
            ("corrupt", self.corrupt),
            ("spurious", self.spurious),
            ("enospc", self.enospc),
            ("duplicate", self.duplicate),
            ("store_torn", self.store_torn),
            ("store_bitflip", self.store_bitflip),
            ("store_stale", self.store_stale),
            ("store_double", self.store_double),
        )
        return _banded_roll(
            f"fabric-chaos:{self.seed}:{job_index}:{attempt}", bands
        )
