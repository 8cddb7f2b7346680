"""Periodic heartbeat events from long-running loops.

A stalled solve or sweep should be diagnosable from its trace alone: a
:class:`Heartbeat` is created outside a long loop, ``beat()`` is called
at every loop boundary, and — at most once per interval — it emits one
``heartbeat`` trace event carrying (with the loop's name as ``loop``):

* wall-clock seconds since the heartbeat was created (``elapsed_s``);
* peak RSS from :func:`resource.getrusage` (``rss_peak_kb``; on Linux
  ``ru_maxrss`` is kilobytes — macOS reports bytes, recorded verbatim);
* a snapshot of the recorder's counters (``counters``);
* the kernel-cache hit rate (``kernel_cache_hit_rate``: numpy plan
  cache hits over hits + plan builds, ``None`` before any plan activity);
* whatever loop-progress fields the caller passes to ``beat()``.

When no recorder is installed ``beat()`` is one clock read and a
comparison; the interval (default 10 s) can be tuned process-wide via
``REPRO_HEARTBEAT_SEC`` (``0`` disables emission entirely).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Optional

try:
    import resource
except ImportError:  # non-POSIX platform: heartbeats omit RSS
    resource = None  # type: ignore[assignment]

__all__ = ["Heartbeat", "DEFAULT_INTERVAL_S"]

DEFAULT_INTERVAL_S = 10.0


def _env_interval() -> float:
    raw = os.environ.get("REPRO_HEARTBEAT_SEC")
    if raw is None:
        return DEFAULT_INTERVAL_S
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_INTERVAL_S


def _rss_peak_kb() -> Optional[int]:
    if resource is None:
        return None
    try:
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (OSError, ValueError):
        return None


class Heartbeat:
    """Rate-limited liveness emitter for one long-running loop."""

    __slots__ = ("name", "interval_s", "beats", "_start", "_last")

    def __init__(self, name: str, interval_s: Optional[float] = None) -> None:
        self.name = name
        self.interval_s = (
            interval_s if interval_s is not None else _env_interval()
        )
        self.beats = 0
        self._start = perf_counter()
        self._last = self._start

    def beat(self, **fields: Any) -> bool:
        """Emit a heartbeat if the interval elapsed; returns whether it did.

        Safe to call at any frequency: the fast path is one
        ``perf_counter`` read and a comparison.
        """
        if self.interval_s <= 0:
            return False
        now = perf_counter()
        if now - self._last < self.interval_s:
            return False
        from . import count, event, get_recorder  # late: avoid cycle

        recorder = get_recorder()
        if recorder is None:
            # Still advance the clock so an eventually-installed recorder
            # does not receive a burst of queued-up beats.
            self._last = now
            return False
        counters = recorder.metrics.snapshot().get("counters", {})
        hits = counters.get("npsim.plan_cache_hits", 0.0)
        builds = counters.get("npsim.plans", 0.0)
        hit_rate = hits / (hits + builds) if (hits + builds) > 0 else None
        event(
            "heartbeat",
            loop=self.name,
            elapsed_s=round(now - self._start, 3),
            rss_peak_kb=_rss_peak_kb(),
            kernel_cache_hit_rate=hit_rate,
            counters=counters,
            **fields,
        )
        count("heartbeat.emitted")
        self._last = now
        self.beats += 1
        return True
