"""Host-speed probe: a fixed pure-Python kernel timed around every op.

The measuring host is shared with other tenants, and its CPU speed
switches between a fast and a slow state that each last tens of seconds:
the same DP op takes 0.45 s in one and 0.80 s in the next, and a fixed
interpreter loop 13 ms and 21 ms with it.  No estimator over a 20-second
run averages that out (see the README's *Noise*).  So every timed
interval is bracketed by two runs of :func:`probe`, and its wall time is
rescaled to *reference seconds*: the time it would have taken on a host
where the probe takes :data:`PROBE_REF_S`.

The probe uses only the standard library, never the code under test, so
a change to the library moves the rescaled times exactly as it moves the
wall times.  Its two kernels are the kinds of interpreter work the
workloads do: dict-keyed dynamic programming over floats, and building,
sorting and scanning records of strings, tuples and lists.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

#: Probe wall time on the reference host (the measuring host's fast state).
PROBE_REF_S = 0.025


def _knapsack() -> int:
    states = {0: 0.0}
    for i in range(200):
        weight = (i * 7) % 13 + 1
        value = ((i * 31) % 17) / 3.0
        grown = dict(states)
        for load, best in states.items():
            if load + weight <= 1000:
                candidate = best + value
                if candidate > grown.get(load + weight, -1.0):
                    grown[load + weight] = candidate
        states = grown
    return len(states)


def _records() -> int:
    table = {}
    for i in range(12000):
        table[f"n{(i * 2654435761) % 1000003:08x}"] = (i, i * 0.5, [i, i + 1])
    rows = sorted(table.items(), key=lambda kv: kv[1][1])
    return sum(row[1][0] for row in rows[::7])


def probe() -> float:
    """Wall seconds of one run of the probe kernels.

    The cyclic garbage collector is off meanwhile, so the size of the
    library's heap cannot change the probe's time; its garbage has no
    cycles and is freed by reference counting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _knapsack()
        _records()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into
    reference seconds."""
    return PROBE_REF_S / math.sqrt(before * after)


class WideProbe:
    """:func:`probe` on ``width`` CPUs at once, for ops that keep that
    many processes busy: this process runs it while ``width - 1``
    partner processes (this file run as a script) run it too, and the
    call returns the mean.  A fabric campaign's time follows this far
    better than one CPU's probe: on the measuring host the per-campaign
    spread of rescaled times fell from 21 % to 14 %.  Close it to stop
    the partners."""

    def __init__(self, width: int) -> None:
        self._partners = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(width - 1)
        ]

    def __call__(self) -> float:
        for partner in self._partners:
            partner.stdin.write("\n")
            partner.stdin.flush()
        times = [probe()] + [float(p.stdout.readline()) for p in self._partners]
        return sum(times) / len(times)

    def close(self) -> None:
        for partner in self._partners:
            partner.stdin.close()
            partner.wait()

    def __enter__(self) -> "WideProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    # Partner of a WideProbe: one probe per line read, until stdin closes.
    for _ in sys.stdin:
        print(probe(), flush=True)
