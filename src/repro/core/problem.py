"""Formalization of the test point insertion (TPI) optimization problem.

An instance bundles a circuit, a detection-probability threshold θ, the
test-point types available, and their costs.  A *solution* is a set of
:class:`TestPoint` placements; it is **feasible** when every stuck-at fault
of the (virtually) modified circuit has COP detection probability ≥ θ, and
**optimal** when its total cost is minimal among feasible solutions.

Test-point semantics (shared by the DP, the baselines, the virtual
evaluator, and the netlist rewriter — see DESIGN.md §2):

======================  =======================  ========================
type                    signal probability       observability of the
                        seen downstream          original (upstream) wire
======================  =======================  ========================
``OBSERVATION``         unchanged                1 (direct tap, pre-CP)
``CONTROL_AND``         ``p → p/2``              ``× 1/2`` (r must be 1)
``CONTROL_OR``          ``p → (1+p)/2``          ``× 1/2`` (r must be 0)
``CONTROL_RANDOM``      ``p → 1/2``              ``× 0`` (mux cuts it)
======================  =======================  ========================

where ``r`` is the pseudo-random test signal (fair bit) driving the control
point.  An observation point taps the wire *upstream* of any control point
at the same site, so the OBSERVATION+CONTROL_RANDOM combination is the
classic full "test point" (observe-and-redrive scan cell).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..testability.testlength import required_threshold

__all__ = [
    "TestPointType",
    "TestPoint",
    "TestPointCosts",
    "TPIProblem",
    "TPISolution",
    "CONTROL_TYPES",
    "control_probability_transform",
    "control_observability_factor",
]


class TestPointType(enum.Enum):
    """The four test-point flavors with their probability semantics."""

    OBSERVATION = "OP"
    CONTROL_AND = "CP-AND"
    CONTROL_OR = "CP-OR"
    CONTROL_RANDOM = "CP-RND"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_control(self) -> bool:
        """True for any control-point flavor."""
        return self is not TestPointType.OBSERVATION


#: The control-point flavors, in canonical order.
CONTROL_TYPES: Tuple[TestPointType, ...] = (
    TestPointType.CONTROL_AND,
    TestPointType.CONTROL_OR,
    TestPointType.CONTROL_RANDOM,
)


@dataclass(frozen=True)
class TestPoint:
    """One test-point placement.

    Attributes
    ----------
    node:
        The driving node whose output wire receives the point.
    kind:
        The test-point flavor.
    branch:
        ``None`` to place on the stem wire; ``(sink, pin)`` to place on a
        single fanout branch (affects only that connection).
    """

    node: str
    kind: TestPointType
    branch: Optional[Tuple[str, int]] = None

    def sort_key(self):
        """Deterministic total order for stable reporting."""
        return (self.node, self.kind.value, self.branch or ("", -1))

    def __lt__(self, other: "TestPoint") -> bool:
        if not isinstance(other, TestPoint):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def describe(self) -> str:
        """Human-readable placement, e.g. ``'OP @ n7'``."""
        site = self.node
        if self.branch is not None:
            site = f"{self.node}->{self.branch[0]}.{self.branch[1]}"
        return f"{self.kind.value} @ {site}"


def control_probability_transform(kind: TestPointType, p: float) -> float:
    """Downstream signal probability after a control point of ``kind``."""
    if kind is TestPointType.CONTROL_AND:
        return 0.5 * p
    if kind is TestPointType.CONTROL_OR:
        return 0.5 * (1.0 + p)
    if kind is TestPointType.CONTROL_RANDOM:
        return 0.5
    raise ValueError(f"{kind} is not a control point")


def control_observability_factor(kind: TestPointType) -> float:
    """Multiplier a control point applies to upstream observability."""
    if kind is TestPointType.CONTROL_AND:
        return 0.5
    if kind is TestPointType.CONTROL_OR:
        return 0.5
    if kind is TestPointType.CONTROL_RANDOM:
        return 0.0
    raise ValueError(f"{kind} is not a control point")


@dataclass(frozen=True)
class TestPointCosts:
    """Relative implementation costs of each flavor.

    Defaults follow the convention of the TPI literature: a control point
    costs one unit (scan cell + gate), an observation point half a unit
    (fanout into the compactor).
    """

    observation: float = 0.5
    control_and: float = 1.0
    control_or: float = 1.0
    control_random: float = 1.0

    def of(self, kind: TestPointType) -> float:
        """Cost of one point of ``kind``."""
        if kind is TestPointType.OBSERVATION:
            return self.observation
        if kind is TestPointType.CONTROL_AND:
            return self.control_and
        if kind is TestPointType.CONTROL_OR:
            return self.control_or
        if kind is TestPointType.CONTROL_RANDOM:
            return self.control_random
        raise KeyError(kind)

    def total(self, points: Sequence[TestPoint]) -> float:
        """Total cost of a placement set."""
        return sum(self.of(tp.kind) for tp in points)


@dataclass
class TPIProblem:
    """A complete TPI instance.

    Attributes
    ----------
    circuit:
        The circuit under test (never mutated by solvers).
    threshold:
        Detection-probability threshold θ every fault must meet.
    costs:
        Per-flavor test point costs.
    allowed_types:
        Flavors solvers may use (default: all four).
    input_probabilities:
        P[input = 1] of the pattern source per primary input (default 0.5).
    max_points:
        Optional hard budget on the number of inserted points.
    """

    circuit: Circuit
    threshold: float
    costs: TestPointCosts = field(default_factory=TestPointCosts)
    allowed_types: Tuple[TestPointType, ...] = (
        TestPointType.OBSERVATION,
        TestPointType.CONTROL_AND,
        TestPointType.CONTROL_OR,
        TestPointType.CONTROL_RANDOM,
    )
    input_probabilities: Optional[Dict[str, float]] = None
    max_points: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        if not self.allowed_types:
            raise ValueError("at least one test point type must be allowed")

    @classmethod
    def from_test_length(
        cls,
        circuit: Circuit,
        n_patterns: int,
        escape_budget: float = 0.001,
        **kwargs,
    ) -> "TPIProblem":
        """Build an instance from BIST-level parameters.

        θ is derived so any fault meeting it escapes ``n_patterns`` random
        patterns with probability at most ``escape_budget``.
        """
        theta = required_threshold(n_patterns, escape_budget)
        return cls(circuit=circuit, threshold=theta, **kwargs)

    def input_probability(self, name: str) -> float:
        """P[input = 1] for a primary input under the pattern source."""
        if self.input_probabilities is None:
            return 0.5
        return self.input_probabilities.get(name, 0.5)

    def control_types(self) -> List[TestPointType]:
        """Allowed control-point flavors, canonical order."""
        return [t for t in CONTROL_TYPES if t in self.allowed_types]

    @property
    def observation_allowed(self) -> bool:
        """True when observation points may be used."""
        return TestPointType.OBSERVATION in self.allowed_types


@dataclass
class TPISolution:
    """A solver's answer to a :class:`TPIProblem`.

    Attributes
    ----------
    points:
        The selected placements, sorted.
    cost:
        Total cost under the problem's cost model.
    feasible:
        Whether the solver claims every fault meets θ (verified
        independently by :mod:`repro.core.evaluate` in tests/benches).
    method:
        Short solver identifier (``"dp"``, ``"greedy"``, ...).
    stats:
        Free-form solver statistics (table sizes, iterations, ...).
    """

    points: List[TestPoint]
    cost: float
    feasible: bool
    method: str
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = sorted(self.points)

    def control_points(self) -> List[TestPoint]:
        """The control-point placements in the solution."""
        return [p for p in self.points if p.kind.is_control]

    def observation_points(self) -> List[TestPoint]:
        """The observation-point placements in the solution."""
        return [p for p in self.points if p.kind is TestPointType.OBSERVATION]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"method={self.method} feasible={self.feasible} cost={self.cost:g} "
            f"points={len(self.points)}"
        ]
        lines.extend("  " + p.describe() for p in self.points)
        return "\n".join(lines)
