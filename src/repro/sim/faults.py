"""Single stuck-at fault model: sites, enumeration, equivalence collapsing.

Fault sites follow the classic wire-level convention:

* a **stem fault** sits on a node's output wire (``Fault(node, v)``);
* a **branch fault** sits on one fanout branch — the wire entering pin
  ``pin`` of gate ``sink`` (``Fault(node, v, branch=(sink, pin))``).  Branch
  faults are only distinct sites when the driver has fanout > 1; for
  fanout-1 drivers the branch *is* the stem.

Structural equivalence collapsing merges faults no test can distinguish
(e.g. any input s-a-0 of an AND gate with its output s-a-0), cutting the
fault list by the usual ~40% and making coverage numbers comparable with
the literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit

__all__ = [
    "Fault",
    "all_stuck_at_faults",
    "testable_stuck_at_faults",
    "checkpoint_faults",
    "collapse_faults",
    "CollapsedFaultSet",
]


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    Attributes
    ----------
    node:
        Name of the driving node whose wire is faulty.
    value:
        The stuck value, 0 or 1.
    branch:
        ``None`` for a stem fault; ``(sink_gate, pin)`` for a fanout-branch
        fault affecting only that connection.
    """

    node: str
    value: int
    branch: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck value must be 0 or 1")

    @property
    def is_branch(self) -> bool:
        """True for a fanout-branch fault."""
        return self.branch is not None

    def sort_key(self) -> Tuple[str, int, Tuple[str, int]]:
        """Total-order key (stem faults sort before their branches)."""
        return (self.node, self.value, self.branch or ("", -1))

    def __lt__(self, other: "Fault") -> bool:
        if not isinstance(other, Fault):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def describe(self) -> str:
        """Human-readable site description, e.g. ``'n3->g7.1 s-a-0'``."""
        if self.branch is None:
            site = self.node
        else:
            site = f"{self.node}->{self.branch[0]}.{self.branch[1]}"
        return f"{site} s-a-{self.value}"


def all_stuck_at_faults(circuit: Circuit) -> List[Fault]:
    """Enumerate the full (uncollapsed) single stuck-at fault list.

    Every node contributes stem s-a-0/s-a-1; every fanout branch of a stem
    with fanout > 1 contributes branch s-a-0/s-a-1.  Constant tie cells get
    only the fault opposite their tied value (the other is undetectable by
    construction).
    """
    faults: List[Fault] = []
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.CONST0:
            faults.append(Fault(name, 1))
        elif node.gate_type is GateType.CONST1:
            faults.append(Fault(name, 0))
        else:
            faults.append(Fault(name, 0))
            faults.append(Fault(name, 1))
        sinks = circuit.fanouts(name)
        if len(sinks) > 1:
            for sink, pin in sinks:
                faults.append(Fault(name, 0, branch=(sink, pin)))
                faults.append(Fault(name, 1, branch=(sink, pin)))
    return faults


def checkpoint_faults(circuit: Circuit) -> List[Fault]:
    """The checkpoint-theorem fault list: PI stems and fanout branches.

    For fanout-free-plus-branches circuits built from the basic gate types,
    any test set detecting all stuck-at faults on the *checkpoints* —
    primary inputs and fanout branches — detects all stuck-at faults in
    the circuit (Bossen & Hong).  This is the strongest structural
    dominance reduction and typically shrinks the list well below the
    equivalence-collapsed one.

    XOR/XNOR gates are not covered by the classic theorem; when present,
    their output stem faults are added to stay conservative.
    """
    faults: List[Fault] = []
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            faults.append(Fault(name, 0))
            faults.append(Fault(name, 1))
        elif node.gate_type in (GateType.XOR, GateType.XNOR) or (
            node.gate_type in (GateType.CONST0, GateType.CONST1)
        ):
            # Outside the theorem's gate basis: keep the stem faults.
            if node.gate_type is GateType.CONST0:
                faults.append(Fault(name, 1))
            elif node.gate_type is GateType.CONST1:
                faults.append(Fault(name, 0))
            else:
                faults.append(Fault(name, 0))
                faults.append(Fault(name, 1))
        sinks = circuit.fanouts(name)
        if len(sinks) > 1:
            for sink, pin in sinks:
                faults.append(Fault(name, 0, branch=(sink, pin)))
                faults.append(Fault(name, 1, branch=(sink, pin)))
    return faults


def testable_stuck_at_faults(circuit: Circuit) -> List[Fault]:
    """The fault list restricted to wires with a structural path to a PO.

    Faults on dead wires (e.g. unused primary inputs) are untestable by
    construction — no test point can help them — so solvers use this list
    as their default objective.  Coverage *measurement* still runs on the
    full collapsed list, keeping reported numbers honest.
    """
    live = circuit.fanin_cone_union(circuit.outputs)
    return [f for f in all_stuck_at_faults(circuit) if f.node in live]


@dataclass
class CollapsedFaultSet:
    """Result of equivalence collapsing.

    Attributes
    ----------
    representatives:
        One fault per equivalence class (deterministic choice: the
        lexicographically smallest member).
    class_of:
        Map from every original fault to its representative.
    """

    representatives: List[Fault]
    class_of: Dict[Fault, Fault]

    def size(self) -> int:
        """Number of collapsed fault classes."""
        return len(self.representatives)


class _UnionFind:
    """Minimal union-find over hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[Fault, Fault] = {}

    def add(self, item: Fault) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: Fault) -> Fault:
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Fault, b: Fault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: smaller fault becomes the root.
            if rb.sort_key() < ra.sort_key():
                ra, rb = rb, ra
            self._parent[rb] = ra

    def items(self) -> List[Fault]:
        return list(self._parent)


def _input_wire_fault(circuit: Circuit, sink: str, pin: int, value: int) -> Fault:
    """The fault object sitting on pin ``pin`` of gate ``sink``.

    If the driver has fanout > 1 this is a branch fault; otherwise the
    branch coincides with the driver's stem.
    """
    driver = circuit.node(sink).fanins[pin]
    if circuit.fanout_count(driver) > 1:
        return Fault(driver, value, branch=(sink, pin))
    return Fault(driver, value)


def collapse_faults(
    circuit: Circuit, faults: Optional[List[Fault]] = None
) -> CollapsedFaultSet:
    """Structurally collapse a fault list by gate-level equivalence.

    Rules applied per gate (``o`` = output stem fault, ``i`` = each input
    wire fault):

    * AND:  ``i/0 ≡ o/0``;  NAND: ``i/0 ≡ o/1``
    * OR:   ``i/1 ≡ o/1``;  NOR:  ``i/1 ≡ o/0``
    * BUF:  ``i/v ≡ o/v``;  NOT:  ``i/v ≡ o/v̄``
    * XOR/XNOR: no structural equivalences.

    Only equivalence (not dominance) collapsing is performed, so collapsed
    coverage remains a valid coverage metric.
    """
    if faults is None:
        faults = all_stuck_at_faults(circuit)
    uf = _UnionFind()
    for f in faults:
        uf.add(f)
    fault_set = set(faults)

    def maybe_union(a: Fault, b: Fault) -> None:
        if a in fault_set and b in fault_set:
            uf.union(a, b)

    for name in circuit.topological_order():
        node = circuit.node(name)
        if not node.is_gate or not node.fanins:
            continue
        gt = node.gate_type
        out0, out1 = Fault(name, 0), Fault(name, 1)
        for pin in range(len(node.fanins)):
            in0 = _input_wire_fault(circuit, name, pin, 0)
            in1 = _input_wire_fault(circuit, name, pin, 1)
            if gt is GateType.AND:
                maybe_union(in0, out0)
            elif gt is GateType.NAND:
                maybe_union(in0, out1)
            elif gt is GateType.OR:
                maybe_union(in1, out1)
            elif gt is GateType.NOR:
                maybe_union(in1, out0)
            elif gt is GateType.BUF:
                maybe_union(in0, out0)
                maybe_union(in1, out1)
            elif gt is GateType.NOT:
                maybe_union(in0, out1)
                maybe_union(in1, out0)

    class_of: Dict[Fault, Fault] = {f: uf.find(f) for f in faults}
    representatives = sorted(set(class_of.values()), key=Fault.sort_key)
    return CollapsedFaultSet(representatives=representatives, class_of=class_of)
