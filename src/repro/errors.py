"""Structured exception taxonomy for the whole library.

Krishnamurthy's complexity result makes failure a *normal* outcome here:
general TPI is NP-complete, so any non-tree solve may legitimately run out
of time or state space, and long experiment sweeps must survive individual
circuits going wrong.  Every error the library raises on purpose derives
from :class:`ReproError`, so callers (the CLI, the experiment runner, the
solver cascade) can tell principled failures apart from genuine bugs:

* :class:`ParseError` — a netlist file is malformed; carries the source
  file and 1-based line number when known;
* :class:`SolverError` — a solver cannot run on or solve the given
  instance (precondition violations, infeasibility the caller opted to
  treat as an error);
* :class:`BudgetExceededError` — a cooperative solve budget (wall clock,
  DP table cells, PODEM backtracks, simulated patterns) ran out; the
  solver cascade catches exactly this to degrade to a cheaper method;
* :class:`SimulationError` — a simulation request is inconsistent with
  the circuit (foreign faults, empty pattern budget);
* :class:`ExperimentError` — an experiment-harness level failure
  (unknown experiment id, corrupt checkpoint file);
* :class:`DivergenceError` — a self-check caught two execution paths
  disagreeing (numpy engine vs interpreter, incremental vs full pass,
  a solver's claimed objective vs independent re-evaluation); carries
  the path of the replayable repro bundle written for the mismatch.

Most leaves also derive from the builtin the pre-taxonomy code raised
(``ValueError`` / ``RuntimeError``), so existing ``except`` clauses and
tests keep working.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "CircuitError",
    "ParseError",
    "SolverError",
    "BudgetExceededError",
    "SimulationError",
    "ExperimentError",
    "DivergenceError",
    "ArtifactWriteError",
    "SweepInterrupted",
]


class ReproError(Exception):
    """Base class of every deliberate error raised by this library."""


class CircuitError(ReproError, ValueError):
    """Raised for structurally invalid netlist operations.

    (Historically defined in :mod:`repro.circuit.netlist`, which still
    re-exports it; it lives here so the whole taxonomy shares one root.)
    """


class ParseError(CircuitError):
    """A netlist file could not be parsed.

    Parameters
    ----------
    message:
        What is wrong, without location prefix.
    path:
        Source file name (``None`` when parsing an in-memory string).
    line:
        1-based line number of the offending construct, when known.

    The rendered message is prefixed ``path:line:`` so editors and CI
    logs link straight to the problem.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        line: Optional[int] = None,
    ) -> None:
        self.path = path
        self.line = line
        if path is not None and line is not None:
            prefix = f"{path}:{line}: "
        elif path is not None:
            prefix = f"{path}: "
        elif line is not None:
            prefix = f"line {line}: "
        else:
            prefix = ""
        super().__init__(prefix + message)


class SolverError(ReproError, ValueError):
    """A solver cannot run on (or failed on) the given instance."""


class BudgetExceededError(ReproError, RuntimeError):
    """A cooperative solve budget ran out.

    Attributes
    ----------
    resource:
        Which budget dimension was exhausted (``"wall_clock"``,
        ``"dp_cells"``, ``"backtracks"``, ``"patterns"``).
    limit / spent:
        The configured limit and the amount consumed when the check fired.
    where:
        The loop boundary that noticed (e.g. ``"dp.table"``).
    """

    def __init__(
        self,
        resource: str,
        limit: float,
        spent: float,
        where: str = "",
    ) -> None:
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.where = where
        at = f" at {where}" if where else ""
        super().__init__(
            f"{resource} budget exceeded{at}: spent {spent:g} of {limit:g}"
        )


class SimulationError(ReproError, ValueError):
    """A simulation request is inconsistent with the target circuit."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment-harness level failure (bad id, corrupt checkpoint)."""


class ArtifactWriteError(ReproError, OSError):
    """A durable artifact (journal, checkpoint, bundle) failed to write.

    Raised by :mod:`repro.ioutil` when the filesystem refuses a write —
    ENOSPC, a vanished directory, a permission flip — after the helper
    has cleaned up any temporary droppings.  Dual-inherits
    :class:`OSError` so pre-taxonomy ``except OSError`` clauses keep
    working, but carries structure the bare builtin lacks:

    Attributes
    ----------
    op:
        Which write step failed (``"write"``, ``"fsync"``, ``"replace"``,
        ``"append"``).
    path:
        The destination the caller asked for (not the temp file).
    errno:
        The underlying OS errno when known (e.g. ``errno.ENOSPC``).
    """

    def __init__(
        self,
        op: str,
        path: str,
        message: str,
        errno: Optional[int] = None,
    ) -> None:
        self.op = op
        self.path = path
        # OSError.__init__ with a single arg leaves .errno unset; stash
        # and re-apply after so pattern-matching on errno keeps working.
        super().__init__(f"{op} failed for {path}: {message}")
        self.errno = errno

    def __reduce__(self):
        # OSError's default reduce re-invokes with (errno, strerror) —
        # wrong constructor shape here; pickle must round-trip workers.
        return (
            ArtifactWriteError,
            (self.op, self.path, self._raw_message(), self.errno),
        )

    def _raw_message(self) -> str:
        text = self.args[0] if self.args else ""
        prefix = f"{self.op} failed for {self.path}: "
        if isinstance(text, str) and text.startswith(prefix):
            return text[len(prefix):]
        return str(text)


class SweepInterrupted(ReproError, RuntimeError):
    """A sweep/experiment campaign stopped on SIGTERM/SIGINT, resumably.

    Raised at the next job boundary after a termination signal: the
    in-flight record has been flushed to the checkpoint/journal, so a
    rerun with the same results file resumes exactly where this run
    stopped.  The CLI maps it to its own exit code
    (:data:`repro.cli.EXIT_INTERRUPTED`) so callers can tell "killed but
    resumable" apart from a real failure.

    Attributes
    ----------
    signal_name:
        Which signal stopped the run (``"SIGTERM"`` / ``"SIGINT"``).
    completed:
        Items committed before the stop (safe to resume past).
    remaining:
        Items not yet run.
    """

    def __init__(
        self, signal_name: str, completed: int, remaining: int
    ) -> None:
        self.signal_name = signal_name
        self.completed = completed
        self.remaining = remaining
        super().__init__(
            f"interrupted by {signal_name} after {completed} item(s); "
            f"{remaining} remaining — rerun with the same results file "
            f"to resume"
        )

    def __reduce__(self):
        return (
            SweepInterrupted,
            (self.signal_name, self.completed, self.remaining),
        )


class DivergenceError(ReproError, RuntimeError):
    """Two execution paths that must agree bit-identically disagreed.

    Raised by the self-checking layer (:mod:`repro.verify`) when a
    sampled shadow re-execution or a solver certification finds a
    mismatch — the silent-corruption failure mode every fast path
    (the numpy engine, incremental evaluation, parallel fan-out, the DP)
    is guarded against.

    Attributes
    ----------
    kind:
        Which check diverged (``"fault_sim.cone"``,
        ``"incremental.evaluate"``, ``"solver.cost"``, ...).
    bundle_path:
        Directory of the self-contained repro bundle written for the
        mismatch (``None`` when bundle writing itself failed), replayable
        with ``repro-tpi replay``.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        bundle_path: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.bundle_path = bundle_path
        suffix = f" [repro bundle: {bundle_path}]" if bundle_path else ""
        super().__init__(f"{kind}: {message}{suffix}")

    def __reduce__(self):
        # Custom-constructor exceptions don't pickle by default; workers
        # may raise this across a process boundary.
        return (
            DivergenceError,
            (self.kind, self._raw_message(), self.bundle_path),
        )

    def _raw_message(self) -> str:
        text = self.args[0] if self.args else ""
        prefix = f"{self.kind}: "
        if text.startswith(prefix):
            text = text[len(prefix):]
        suffix = f" [repro bundle: {self.bundle_path}]"
        if self.bundle_path and text.endswith(suffix):
            text = text[: -len(suffix)]
        return text
