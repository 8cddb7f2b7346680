"""End-to-end evaluation: select points → insert hardware → fault simulate.

This closes the loop the paper's evaluation closes: analytical planning is
validated by *measured* fault coverage of the physically modified netlist
under a real pseudo-random pattern budget.  Coverage is reported on the
original circuit's collapsed fault list, translated through the insertion
fault map (test hardware is assumed fault-free).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.netlist import Circuit
from ..sim.faults import Fault, collapse_faults
from ..sim.parallel import run_parallel
from ..sim.patterns import PatternSource, UniformRandomSource
from .problem import TestPoint, TPIProblem, TPISolution
from .test_points import apply_test_points

__all__ = ["CoverageReport", "measure_coverage", "evaluate_solution"]


@dataclass
class CoverageReport:
    """Measured before/after coverage of a placement.

    Attributes
    ----------
    circuit_name:
        Name of the evaluated circuit.
    n_patterns:
        Pattern budget applied to both netlists.
    n_faults:
        Size of the collapsed reference fault list.
    baseline_coverage / modified_coverage:
        Measured coverage before and after insertion.
    baseline_curve / modified_curve:
        Cumulative ``(patterns, coverage)`` series (log-spaced).
    n_control / n_observation:
        Placement composition.
    solution:
        The placement that was inserted.
    """

    circuit_name: str
    n_patterns: int
    n_faults: int
    baseline_coverage: float
    modified_coverage: float
    baseline_curve: List[Tuple[int, float]] = field(default_factory=list)
    modified_curve: List[Tuple[int, float]] = field(default_factory=list)
    n_control: int = 0
    n_observation: int = 0
    solution: Optional[TPISolution] = None

    @property
    def coverage_gain(self) -> float:
        """Absolute coverage improvement delivered by the placement."""
        return self.modified_coverage - self.baseline_coverage

    def row(self) -> str:
        """One formatted table row (used by the benchmark harness)."""
        return (
            f"{self.circuit_name:14s} {self.n_faults:6d} "
            f"{self.n_control:4d} {self.n_observation:4d} "
            f"{100 * self.baseline_coverage:8.2f} "
            f"{100 * self.modified_coverage:8.2f} "
            f"{100 * self.coverage_gain:+7.2f}"
        )


def measure_coverage(
    circuit: Circuit,
    n_patterns: int,
    source: Optional[PatternSource] = None,
    faults: Optional[Sequence[Fault]] = None,
    jobs: int = 1,
    mode: str = "exact",
    kernel: Optional[str] = None,
):
    """Fault-simulate ``circuit`` under a pseudo-random budget.

    Returns the :class:`~repro.sim.fault_sim.FaultSimResult` over the
    collapsed fault list (or ``faults`` when given).  ``jobs > 1`` fans the
    fault list out over worker processes; ``mode="coverage"`` enables fault
    dropping (partial detection words, exact coverage and first-detects);
    ``kernel`` selects numpy (default) or interpreted simulation.
    All three knobs preserve bit-identical coverage numbers.
    """
    source = source or UniformRandomSource(seed=1)
    stimulus = source.generate(circuit.inputs, n_patterns)
    return run_parallel(
        circuit, stimulus, n_patterns, faults=faults, jobs=jobs, mode=mode,
        kernel=kernel,
    )


def evaluate_solution(
    problem: TPIProblem,
    solution: TPISolution,
    n_patterns: int,
    source: Optional[PatternSource] = None,
    jobs: int = 1,
    mode: str = "exact",
    kernel: Optional[str] = None,
) -> CoverageReport:
    """Insert the solution's points and measure real coverage before/after.

    The same pattern source drives both runs; the modified netlist's extra
    test-signal inputs receive stimulus from the same source family.
    ``jobs``/``mode``/``kernel`` are forwarded to :func:`measure_coverage`
    for both runs; the report's numbers are identical for every setting.
    """
    source = source or UniformRandomSource(seed=1)
    circuit = problem.circuit
    collapsed = collapse_faults(circuit)
    reference = collapsed.representatives

    baseline = measure_coverage(
        circuit, n_patterns, source, faults=reference, jobs=jobs, mode=mode,
        kernel=kernel,
    )

    with obs.span(
        "insert", circuit=circuit.name, points=len(solution.points)
    ):
        insertion = apply_test_points(circuit, solution.points)
    obs.count("insert.points", len(solution.points))
    mapped_pairs = [
        (f, insertion.fault_map[f]) for f in reference
    ]
    live = [m for _o, m in mapped_pairs if m is not None]
    stimulus = source.generate(insertion.circuit.inputs, n_patterns)
    modified = run_parallel(
        insertion.circuit, stimulus, n_patterns, faults=live, jobs=jobs,
        mode=mode, kernel=kernel,
    )

    # Coverage over the original reference list: faults whose injection
    # site vanished (random re-drives) count as undetected.
    detected = sum(
        1
        for _orig, m in mapped_pairs
        if m is not None and modified.detection_word[m]
    )
    modified_coverage = detected / len(reference) if reference else 1.0

    def mapped_curve() -> List[Tuple[int, float]]:
        # Sorted once; each checkpoint is one bisect, as in
        # FaultSimResult.coverage_at.
        firsts = sorted(
            fd
            for fd in (
                modified.first_detect[m] for _o, m in mapped_pairs
                if m is not None
            )
            if fd is not None
        )
        return [
            (n, bisect_left(firsts, n) / len(reference) if reference else 1.0)
            for n, _cov in modified.coverage_curve()
        ]

    return CoverageReport(
        circuit_name=circuit.name,
        n_patterns=n_patterns,
        n_faults=len(reference),
        baseline_coverage=baseline.coverage(),
        modified_coverage=modified_coverage,
        baseline_curve=baseline.coverage_curve(),
        modified_curve=mapped_curve(),
        n_control=len(solution.control_points()),
        n_observation=len(solution.observation_points()),
        solution=solution,
    )
