"""Virtual (analytical) evaluation of a test-point placement.

Solvers must compare thousands of candidate placements, so placements are
evaluated *virtually*: the COP probability passes are run with the
test-point semantics of :mod:`repro.core.problem` layered in, without ever
rewriting the netlist.  The same evaluator is the single arbiter of
feasibility for the DP, every baseline, and the verification tests — all
solvers optimize exactly the objective this module measures.

Wire model per connection ``d → (s, pin)`` (see problem.py for semantics)::

    [gate d] --W_d--[stem CP?]--+--B(d,s,0)--[branch CP?]--> pin 0 of s0
              ^OP taps here     +--B(d,s,1)--[branch CP?]--> pin 1 of s1
                                   ^branch OP taps here

Stem faults live on ``W_d`` (pre stem-CP); branch faults on the branch
wires (post stem-CP, pre branch-CP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..circuit.gates import (
    output_probability,
    side_input_sensitization_probability,
)
from ..circuit.netlist import Circuit
from ..sim import npsim
from ..sim.compile import resolve_kernel
from ..sim.faults import Fault, all_stuck_at_faults
from .problem import (
    TestPoint,
    TestPointType,
    TPIProblem,
    control_observability_factor,
    control_probability_transform,
)

__all__ = [
    "WIRE_MAPS",
    "VirtualEvaluation",
    "evaluate_placement",
    "placement_site_state",
    "split_placement",
]

_BranchKey = Tuple[str, str, int]

#: The seven per-wire maps of a :class:`VirtualEvaluation`, in the order
#: an incremental delta returns its patches.
WIRE_MAPS = (
    "stem_pre", "stem_post", "branch_pre", "branch_post",
    "wire_obs", "branch_obs", "stem_post_obs",
)


def split_placement(
    points: Sequence[TestPoint],
) -> Tuple[Dict[str, List[TestPoint]], Dict[_BranchKey, List[TestPoint]]]:
    """Group placements by stem site and by branch site.

    Raises ``ValueError`` when a site carries more than one control point
    (physically a wire has at most one re-drive).
    """
    stem: Dict[str, List[TestPoint]] = {}
    branch: Dict[_BranchKey, List[TestPoint]] = {}
    for tp in points:
        if tp.branch is None:
            stem.setdefault(tp.node, []).append(tp)
        else:
            key = (tp.node, tp.branch[0], tp.branch[1])
            branch.setdefault(key, []).append(tp)
    for site, tps in list(stem.items()) + list(branch.items()):
        controls = [t for t in tps if t.kind.is_control]
        if len(controls) > 1:
            raise ValueError(f"multiple control points on one wire at {site!r}")
    return stem, branch


def _site_control(tps: Optional[List[TestPoint]]) -> Optional[TestPointType]:
    if not tps:
        return None
    for t in tps:
        if t.kind.is_control:
            return t.kind
    return None


def _site_observed(tps: Optional[List[TestPoint]]) -> bool:
    if not tps:
        return False
    return any(t.kind is TestPointType.OBSERVATION for t in tps)


def placement_site_state(
    points: Sequence[TestPoint],
) -> Tuple[
    Dict[str, TestPointType],
    Dict[_BranchKey, TestPointType],
    Set[str],
    Set[_BranchKey],
]:
    """Collapse a placement to the site-state form backend runners take.

    Returns ``(stem_controls, branch_controls, stem_observed,
    branch_observed)`` — control kind per controlled site plus observed
    site sets.  This is the calling convention of the numpy placement
    pass (:meth:`repro.sim.npsim.CircuitPlan.placement`): the placement
    travels as data, so one array plan serves every placement on the
    circuit.
    """
    stem_points, branch_points = split_placement(points)
    sctl: Dict[str, TestPointType] = {}
    sobs: Set[str] = set()
    for site, tps in stem_points.items():
        ctrl = _site_control(tps)
        if ctrl:
            sctl[site] = ctrl
        if _site_observed(tps):
            sobs.add(site)
    bctl: Dict[_BranchKey, TestPointType] = {}
    bobs: Set[_BranchKey] = set()
    for key, tps in branch_points.items():
        ctrl = _site_control(tps)
        if ctrl:
            bctl[key] = ctrl
        if _site_observed(tps):
            bobs.add(key)
    return sctl, bctl, sobs, bobs


@dataclass
class VirtualEvaluation:
    """Analytical testability of a circuit with a virtual placement applied.

    Attributes
    ----------
    problem:
        The TPI instance evaluated against.
    points:
        The placement that was applied.
    stem_pre:
        ``p`` on each node's output wire, *before* any stem control point
        (stem-fault excitation probabilities).
    stem_post:
        ``p`` downstream of the stem control point (what sinks see, prior
        to branch control points).
    wire_obs:
        Observability of each node's pre-CP output wire (stem faults).
    branch_pre:
        ``p`` on each branch wire (branch-fault excitation).
    branch_post:
        ``p`` downstream of any branch control point (what the sink pin
        actually sees; equals ``branch_pre`` on uncontrolled branches).
    branch_obs:
        Observability of each branch wire (branch faults).
    """

    problem: TPIProblem
    points: List[TestPoint]
    stem_pre: Dict[str, float] = field(default_factory=dict)
    stem_post: Dict[str, float] = field(default_factory=dict)
    wire_obs: Dict[str, float] = field(default_factory=dict)
    branch_pre: Dict[_BranchKey, float] = field(default_factory=dict)
    branch_post: Dict[_BranchKey, float] = field(default_factory=dict)
    branch_obs: Dict[_BranchKey, float] = field(default_factory=dict)
    stem_post_obs: Dict[str, float] = field(default_factory=dict)

    def fault_detection(self, fault: Fault) -> float:
        """COP detection probability of ``fault`` under the placement."""
        if fault.branch is None:
            p = self.stem_pre[fault.node]
            obs = self.wire_obs[fault.node]
        else:
            key = (fault.node, fault.branch[0], fault.branch[1])
            p = self.branch_pre[key]
            obs = self.branch_obs[key]
        excitation = p if fault.value == 0 else (1.0 - p)
        return excitation * obs

    def wire_maps(self) -> Dict[str, dict]:
        """The seven per-wire maps by name (:data:`WIRE_MAPS`): everything
        a fast placement pass must reproduce bit for bit."""
        return {name: getattr(self, name) for name in WIRE_MAPS}

    def detection_probabilities(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> Dict[Fault, float]:
        """Detection probability for each fault (default: full fault list)."""
        if faults is None:
            faults = all_stuck_at_faults(self.problem.circuit)
        return {f: self.fault_detection(f) for f in faults}

    def failing_faults(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> List[Fault]:
        """Faults whose detection probability misses the threshold θ."""
        theta = self.problem.threshold
        probs = self.detection_probabilities(faults)
        return [f for f, d in probs.items() if d < theta - 1e-12]

    def is_feasible(self, faults: Optional[Sequence[Fault]] = None) -> bool:
        """True when every fault meets θ under the COP model."""
        return not self.failing_faults(faults)


def evaluate_placement(
    problem: TPIProblem,
    points: Sequence[TestPoint],
    kernel: Optional[str] = None,
) -> VirtualEvaluation:
    """Run the COP passes with the placement's semantics layered in.

    ``kernel`` picks the simulation backend: ``"numpy"`` (the default)
    runs both passes through the word-parallel array engine, taking the
    placement's site state as data — one plan serves every placement on
    the circuit — and produces floats bit-identical to the interpreted
    evaluator (``kernel="interp"``), which remains the ground-truth
    arbiter.
    """
    circuit = problem.circuit
    stem_points, branch_points = split_placement(points)

    if resolve_kernel(kernel) == "numpy":
        sctl, bctl, sobs, bobs = placement_site_state(points)
        (
            stem_pre, stem_post, branch_pre, branch_post,
            wire_obs, branch_obs, stem_post_obs,
        ) = npsim.get_plan(circuit).placement(
            problem.input_probability,
            sctl,
            bctl,
            sobs,
            bobs,
            control_probability_transform,
            control_observability_factor,
        )
        return VirtualEvaluation(
            problem=problem,
            points=sorted(points),
            stem_pre=stem_pre,
            stem_post=stem_post,
            wire_obs=wire_obs,
            branch_pre=branch_pre,
            branch_post=branch_post,
            branch_obs=branch_obs,
            stem_post_obs=stem_post_obs,
        )

    # ------------------------------------------------------------ forward
    stem_pre: Dict[str, float] = {}
    stem_post: Dict[str, float] = {}
    branch_pre: Dict[_BranchKey, float] = {}
    branch_post: Dict[_BranchKey, float] = {}

    def pin_probability(sink: str, pin: int, driver: str) -> float:
        key = (driver, sink, pin)
        if key in branch_post:
            return branch_post[key]
        return stem_post[driver]

    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            p = problem.input_probability(name)
        else:
            fanin_probs = [
                pin_probability(name, pin, fi)
                for pin, fi in enumerate(node.fanins)
            ]
            p = output_probability(node.gate_type, fanin_probs)
        stem_pre[name] = p
        ctrl = _site_control(stem_points.get(name))
        stem_post[name] = (
            control_probability_transform(ctrl, p) if ctrl else p
        )
        for sink, pin in circuit.fanouts(name):
            key = (name, sink, pin)
            branch_pre[key] = stem_post[name]
            bctrl = _site_control(branch_points.get(key))
            branch_post[key] = (
                control_probability_transform(bctrl, branch_pre[key])
                if bctrl
                else branch_pre[key]
            )

    # ----------------------------------------------------------- backward
    out_set = set(circuit.outputs)
    wire_obs: Dict[str, float] = {}
    branch_obs: Dict[_BranchKey, float] = {}
    stem_post_obs: Dict[str, float] = {}

    def combine(contributions: Iterable[float]) -> float:
        escape = 1.0
        for c in contributions:
            escape *= 1.0 - c
        return 1.0 - escape

    for name in reversed(circuit.topological_order()):
        # Observability of the post-stem-CP line: direct PO observation
        # plus every branch wire.
        post_contribs: List[float] = []
        if name in out_set:
            post_contribs.append(1.0)
        for sink, pin in circuit.fanouts(name):
            key = (name, sink, pin)
            sink_node = circuit.node(sink)
            side_probs = [
                pin_probability(sink, p, fi)
                for p, fi in enumerate(sink_node.fanins)
                if p != pin
            ]
            sens = side_input_sensitization_probability(
                sink_node.gate_type, side_probs
            )
            pin_obs = wire_obs[sink] * sens
            # Branch wire: optional branch CP between the wire and the pin,
            # optional branch OP tapping the wire directly.
            bctrl = _site_control(branch_points.get(key))
            factor = control_observability_factor(bctrl) if bctrl else 1.0
            contribs = [factor * pin_obs]
            if _site_observed(branch_points.get(key)):
                contribs.append(1.0)
            b_obs = combine(contribs)
            branch_obs[key] = b_obs
            post_contribs.append(b_obs)
        post_obs = combine(post_contribs) if post_contribs else 0.0
        stem_post_obs[name] = post_obs
        # Pre-CP wire: optional stem CP attenuates, optional stem OP taps.
        ctrl = _site_control(stem_points.get(name))
        factor = control_observability_factor(ctrl) if ctrl else 1.0
        contribs = [factor * post_obs]
        if _site_observed(stem_points.get(name)):
            contribs.append(1.0)
        wire_obs[name] = combine(contribs)

    return VirtualEvaluation(
        problem=problem,
        points=sorted(points),
        stem_pre=stem_pre,
        stem_post=stem_post,
        wire_obs=wire_obs,
        branch_pre=branch_pre,
        branch_post=branch_post,
        branch_obs=branch_obs,
        stem_post_obs=stem_post_obs,
    )
