"""Retry/backoff policy of the sweep fabric, the one retry ladder.

The fabric (:mod:`repro.fabric`) re-dispatches expired leases and
failed jobs with capped exponential backoff.  :class:`RetryPolicy`
holds that schedule, with **deterministic seeded jitter**, so many
supervisors retrying against the same contended resource (a shared
filesystem, one overloaded host) de-synchronize without sacrificing
replayability: the delay for a given ``(seed, key, attempt)`` is a pure
function, so a chaos campaign that failed replays with the exact same
timing decisions.

The default policy is ``base 0.05 s, doubling, cap 0.5 s, no jitter``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with optional deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total tries per work unit (first attempt + retries).  An
        ``attempt`` counter of ``max_attempts`` means the unit is out of
        chances (:meth:`should_retry` returns False) and the fabric
        quarantines the job.
    backoff_base_s / backoff_cap_s:
        Delay before retry ``k`` (1-based) is
        ``min(base * 2**(k-1), cap)`` seconds.
    jitter:
        Fraction of extra delay added on top, drawn deterministically
        from ``(seed, key, attempt)``: the final delay is
        ``delay * (1 + jitter * u)`` with ``u`` uniform in ``[0, 1)``.
        Zero (default) reproduces the historical fixed schedule.
    seed:
        Seeds the jitter stream; irrelevant when ``jitter == 0``.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 0.5
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """True while ``attempt`` (count of tries already made) leaves
        at least one more try within :attr:`max_attempts`."""
        return attempt < self.max_attempts

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds.

        Pure and deterministic: the same ``(policy, attempt, key)``
        always yields the same delay, in any process.
        """
        if attempt < 1:
            raise ValueError("retry attempts are 1-based")
        delay = min(
            self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_cap_s
        )
        if self.jitter:
            u = random.Random(
                f"retry:{self.seed}:{key}:{attempt}"
            ).random()
            delay *= 1.0 + self.jitter * u
        return delay

    def sleep(self, attempt: int, key: str = "") -> float:
        """Sleep the backoff for retry ``attempt``; returns the delay."""
        delay = self.delay_s(attempt, key)
        if delay > 0.0:
            time.sleep(delay)
        return delay

    def replaced(self, **changes) -> "RetryPolicy":
        """A copy with the given fields replaced (frozen-dataclass sugar)."""
        from dataclasses import replace

        return replace(self, **changes)


#: The default schedule; the fabric layers jitter on top via
#: ``DEFAULT_RETRY_POLICY.replaced(jitter=...)``.
DEFAULT_RETRY_POLICY = RetryPolicy()
