"""Physical insertion of test points into a netlist.

Turns an abstract placement (:class:`~repro.core.problem.TestPoint` set)
into actual DFT hardware on a copy of the circuit:

* **stem observation point** — the node is routed to the response
  compactor, i.e. simply marked as a primary output;
* **branch observation point** — a buffer is spliced into the branch and
  marked as an output (isolating the tap to that branch);
* **control point** — a fresh primary input ``*_tp_r`` models the
  pseudo-random test signal; AND/OR-type points gate the wire with it,
  and a full random re-drive (``CONTROL_RANDOM``) hands the sinks the test
  signal directly;
* points compose at one site: the observation tap always sits *upstream*
  of the control point, matching the virtual semantics.

Because coverage is always reported against the **original** fault list
(test hardware is assumed fault-free, the standard DFT convention), the
result carries a fault map translating every original fault onto its
injection site in the modified netlist (``None`` when a random re-drive
physically disconnects the faulty wire, making the fault undetectable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from ..sim.faults import Fault, all_stuck_at_faults
from .problem import TestPoint, TestPointType
from .virtual import split_placement

__all__ = ["InsertionResult", "apply_test_points"]

_BranchKey = Tuple[str, str, int]


@dataclass
class InsertionResult:
    """A modified netlist plus the original-fault translation table.

    Attributes
    ----------
    circuit:
        The rewritten netlist (the input circuit is never mutated).
    fault_map:
        Map original fault → fault to inject in the modified netlist
        (``None`` for faults made physically undetectable by a re-drive).
    test_inputs:
        Names of the added pseudo-random test-signal inputs.
    enable_of:
        Map control point → its test-signal input (used by the
        multi-phase machinery to drive per-phase constants).
    """

    circuit: Circuit
    fault_map: Dict[Fault, Optional[Fault]] = field(default_factory=dict)
    test_inputs: List[str] = field(default_factory=list)
    enable_of: Dict[TestPoint, str] = field(default_factory=dict)


def apply_test_points(
    circuit: Circuit, points: Sequence[TestPoint]
) -> InsertionResult:
    """Insert ``points`` into a copy of ``circuit``; see module docstring."""
    stem_points, branch_points = split_placement(points)
    original_faults = all_stuck_at_faults(circuit)
    original_fanouts: Dict[str, List[Tuple[str, int]]] = {
        name: circuit.fanouts(name) for name in circuit.node_names
    }

    mod = circuit.copy(circuit.name + "_tp")
    test_inputs: List[str] = []
    enable_of: Dict[TestPoint, str] = {}
    # Injection connection for each original branch, when it moved.
    branch_injection: Dict[_BranchKey, Optional[Tuple[str, int]]] = {}

    def fresh_test_input(base: str) -> str:
        name = mod.fresh_name(f"{base}_tp_r")
        mod.add_input(name)
        test_inputs.append(name)
        return name

    # ---------------------------------------------------------- stem CPs
    # Applied first so branch hardware lands on the post-CP connections.
    for node_name, tps in sorted(stem_points.items()):
        controls = [t for t in tps if t.kind.is_control]
        if not controls:
            continue
        kind = controls[0].kind
        r = fresh_test_input(node_name)
        enable_of[controls[0]] = r
        if kind is TestPointType.CONTROL_RANDOM:
            new_driver = r
        else:
            gate = (
                GateType.AND if kind is TestPointType.CONTROL_AND else GateType.OR
            )
            new_driver = mod.add_gate(
                mod.fresh_name(f"{node_name}_tp"), gate, [node_name, r]
            )
        for sink, pin in original_fanouts[node_name]:
            mod.replace_fanin(sink, pin, new_driver)
        # A primary output observes the post-CP line.
        if node_name in mod.outputs:
            mod.unmark_output(node_name)
            mod.mark_output(new_driver)

    # ---------------------------------------------------------- stem OPs
    # The tap is on the original node: upstream of any control point.
    for node_name, tps in sorted(stem_points.items()):
        if any(t.kind is TestPointType.OBSERVATION for t in tps):
            mod.mark_output(node_name)

    # -------------------------------------------------------- branch OPs
    for key in sorted(branch_points):
        driver, sink, pin = key
        tps = branch_points[key]
        has_op = any(t.kind is TestPointType.OBSERVATION for t in tps)
        if not has_op:
            continue
        current_driver = mod.node(sink).fanins[pin]
        buf = mod.add_gate(
            mod.fresh_name(f"{driver}_b{pin}_tp_op"),
            GateType.BUF,
            [current_driver],
        )
        mod.replace_fanin(sink, pin, buf)
        mod.mark_output(buf)
        branch_injection[key] = (buf, 0)

    # -------------------------------------------------------- branch CPs
    for key in sorted(branch_points):
        driver, sink, pin = key
        controls = [t for t in branch_points[key] if t.kind.is_control]
        if not controls:
            continue
        kind = controls[0].kind
        r = fresh_test_input(f"{driver}_b{pin}")
        enable_of[controls[0]] = r
        current_driver = mod.node(sink).fanins[pin]
        if kind is TestPointType.CONTROL_RANDOM:
            mod.replace_fanin(sink, pin, r)
            # Without an upstream tap the branch wire is disconnected.
            branch_injection.setdefault(key, None)
        else:
            gate = (
                GateType.AND if kind is TestPointType.CONTROL_AND else GateType.OR
            )
            cp = mod.add_gate(
                mod.fresh_name(f"{driver}_b{pin}_tp"),
                gate,
                [current_driver, r],
            )
            mod.replace_fanin(sink, pin, cp)
            # Inject upstream of the CP unless an OP buffer sits higher.
            branch_injection.setdefault(key, (cp, 0))

    mod.validate()

    # --------------------------------------------------------- fault map
    fault_map: Dict[Fault, Optional[Fault]] = {}
    for fault in original_faults:
        if fault.branch is None:
            fault_map[fault] = fault
            continue
        key = (fault.node, fault.branch[0], fault.branch[1])
        if key in branch_injection:
            conn = branch_injection[key]
            fault_map[fault] = (
                None
                if conn is None
                else Fault(fault.node, fault.value, branch=conn)
            )
        else:
            fault_map[fault] = fault
    return InsertionResult(
        circuit=mod,
        fault_map=fault_map,
        test_inputs=test_inputs,
        enable_of=enable_of,
    )
