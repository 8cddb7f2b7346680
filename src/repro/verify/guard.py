"""Sampled shadow verification: the ``GuardedSession`` / ``guard=`` mode.

Every fast path in this library is a *fast path with a slower arbiter*:
the numpy engine vs the interpreted gate walk, the incremental COP
evaluator vs a full :func:`~repro.core.virtual.evaluate_placement` pass,
solver claims vs independent re-evaluation.  A :class:`Guard`
re-executes a configurable, seeded fraction of fast-path results against
the arbiter *at run time* and raises a structured
:class:`~repro.errors.DivergenceError` — carrying a self-contained,
replayable repro bundle — on the first mismatch.

Two ways to turn it on:

* explicitly: ``FaultSimulator(circuit, guard=Guard(fraction=0.05))``
  (also ``IncrementalEvaluator(..., guard=...)``);
* ambiently: ``with GuardedSession(fraction=0.05): ...`` guards every
  component in the dynamic scope that was not given an explicit guard,
  and additionally certifies every solver result produced inside it.

Sampling is seeded and deterministic: the same workload under the same
guard checks the same results.  ``fraction=1.0`` checks everything (the
property-test setting); the default 1% re-runs roughly one fast-path
result in a hundred through its arbiter.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import List, Optional, Union

from .. import obs
from ..errors import DivergenceError
from .bundle import write_bundle

__all__ = [
    "DEFAULT_FRACTION",
    "DEFAULT_BUNDLE_DIR",
    "Guard",
    "GuardedSession",
    "active_guard",
]

#: Fraction of fast-path results shadow-checked by default.
DEFAULT_FRACTION = 0.01

#: Where repro bundles land unless the guard says otherwise.
DEFAULT_BUNDLE_DIR = "repro_bundles"


class Guard:
    """Seeded sampling + divergence reporting shared by all self-checks.

    Parameters
    ----------
    fraction:
        Probability that any given fast-path result is shadow-checked
        (``1.0`` = always, ``0.0`` = never; solver certification is not
        sampled — solver outputs are few and the claim is the paper's
        headline result).
    seed:
        Seed of the sampling stream; same seed + same call sequence =
        same checks.
    bundle_dir:
        Directory divergence repro bundles are written to.
    certify:
        Whether solver outputs produced under this guard are certified
        (:func:`repro.verify.certify.certify_solution`).
    """

    def __init__(
        self,
        fraction: float = DEFAULT_FRACTION,
        seed: int = 0,
        bundle_dir: Union[str, Path, None] = None,
        certify: bool = True,
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("guard fraction must lie in [0, 1]")
        self.fraction = fraction
        self.seed = seed
        self.bundle_dir = Path(bundle_dir or DEFAULT_BUNDLE_DIR)
        self.certify = certify
        self._rng = random.Random(seed)
        #: Shadow checks performed / divergences found over the guard's
        #: lifetime (also exported as ``guard.checks`` /
        #: ``guard.divergences`` obs counters).
        self.checks = 0
        self.divergences = 0

    # ------------------------------------------------------------------
    def should_check(self) -> bool:
        """Seeded coin flip at the configured sampling fraction."""
        if self.fraction >= 1.0:
            return True
        if self.fraction <= 0.0:
            return False
        return self._rng.random() < self.fraction

    def sampled(self, n: int) -> List[int]:
        """Indices in ``range(n)`` that ``n`` :meth:`should_check` calls
        in a row would pick: the same coins, drawn in one pass, which is
        cheaper per result on long fault blocks."""
        fraction = self.fraction
        if fraction >= 1.0:
            return list(range(n))
        if fraction <= 0.0:
            return []
        draw = self._rng.random
        return [i for i in range(n) if draw() < fraction]

    def confirm(
        self,
        kind: str,
        *,
        expected,
        actual,
        circuit,
        context: Optional[dict] = None,
        message: str = "",
    ) -> None:
        """Record one shadow check; raise on mismatch.

        ``expected`` is the arbiter's result, ``actual`` the fast path's.
        Equality must be exact — every fast path in this library promises
        bit-identical results, so there is no tolerance to tune.
        """
        self.checks += 1
        obs.count("guard.checks")
        if expected == actual:
            return
        self.diverge(
            kind,
            expected=expected,
            actual=actual,
            circuit=circuit,
            context=context,
            message=message or "fast path disagrees with arbiter",
        )

    def diverge(
        self,
        kind: str,
        *,
        expected,
        actual,
        circuit,
        context: Optional[dict] = None,
        message: str = "",
    ) -> None:
        """Write the repro bundle and raise :class:`DivergenceError`."""
        self.divergences += 1
        obs.count("guard.divergences")
        bundle_path: Optional[str] = None
        try:
            bundle_path = str(
                write_bundle(
                    kind,
                    circuit=circuit,
                    context=context or {},
                    expected=expected,
                    actual=actual,
                    message=message,
                    bundle_dir=self.bundle_dir,
                )
            )
        except Exception as exc:  # the divergence still must surface
            obs.event(
                "guard.bundle_write_failed",
                kind=kind,
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )
        obs.event("guard.divergence", kind=kind, bundle=bundle_path)
        raise DivergenceError(kind, message, bundle_path)


#: Ambient guard stack managed by :class:`GuardedSession` (innermost wins).
_STACK: List[Guard] = []


def active_guard(explicit: Optional[Guard] = None) -> Optional[Guard]:
    """The guard in effect: an explicit ``guard=`` beats the ambient one."""
    if explicit is not None:
        return explicit
    return _STACK[-1] if _STACK else None


class GuardedSession:
    """Context manager installing an ambient :class:`Guard`.

    ::

        with GuardedSession(fraction=0.05, seed=0) as guard:
            solution = solve_with_fallback(problem)   # certified
            FaultSimulator(circuit).run(stim, 1024)   # shadow-sampled
        guard.checks, guard.divergences               # session totals

    Nesting is allowed; the innermost session wins for components that
    did not receive an explicit ``guard=``.
    """

    def __init__(
        self,
        fraction: float = DEFAULT_FRACTION,
        seed: int = 0,
        bundle_dir: Union[str, Path, None] = None,
        certify: bool = True,
    ) -> None:
        self.guard = Guard(
            fraction=fraction, seed=seed, bundle_dir=bundle_dir,
            certify=certify,
        )

    def __enter__(self) -> Guard:
        _STACK.append(self.guard)
        obs.event(
            "guard.session_start",
            fraction=self.guard.fraction,
            seed=self.guard.seed,
        )
        return self.guard

    def __exit__(self, exc_type, exc, tb) -> bool:
        _STACK.remove(self.guard)
        obs.event(
            "guard.session_end",
            checks=self.guard.checks,
            divergences=self.guard.divergences,
        )
        return False
