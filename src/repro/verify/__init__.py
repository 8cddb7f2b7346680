"""Self-checking execution: shadow verification and result certification.

The paper's claims are only as good as the numbers backing them, and
this library runs most of those numbers through *fast paths* — the numpy
engine, incremental evaluation, parallel fan-out — that each have a
slower, simpler arbiter.  This package closes the loop at run time:

* :class:`Guard` / :class:`GuardedSession` — shadow-re-execute a seeded,
  configurable fraction of fast-path results against the arbiter;
* :func:`certify_solution` / :func:`maybe_certify` — independently
  re-derive every claim a solver's solution makes (placement validity,
  cost, DP optimality precondition, feasibility);
* :mod:`repro.verify.bundle` — on mismatch, an atomic, content-addressed
  repro bundle with everything needed to replay the divergence;
* :func:`replay_bundle` — deterministic re-execution of a bundle
  (``repro-tpi replay``).
"""

from .bundle import (
    BUNDLE_SCHEMA,
    jsonable,
    load_bundle,
    write_bundle,
)
from .certify import certify_solution, maybe_certify
from .guard import (
    DEFAULT_BUNDLE_DIR,
    DEFAULT_FRACTION,
    Guard,
    GuardedSession,
    active_guard,
)
from .replay import ReplayResult, replay_bundle

__all__ = [
    "BUNDLE_SCHEMA",
    "DEFAULT_BUNDLE_DIR",
    "DEFAULT_FRACTION",
    "Guard",
    "GuardedSession",
    "ReplayResult",
    "active_guard",
    "certify_solution",
    "jsonable",
    "load_bundle",
    "maybe_certify",
    "replay_bundle",
    "write_bundle",
]
