"""Structural netlist transforms.

These rewrites preserve the Boolean function at every primary output while
normalizing structure for downstream algorithms:

* :func:`factorize_to_two_input` — decompose wide symmetric gates into
  balanced trees of two-input gates (the dynamic program and the
  probabilistic analyses operate on ≤2-input gates);
* :func:`sweep_dead_logic` — remove nodes that reach no primary output;
* :func:`collapse_buffers` — splice out BUF gates.
"""

from __future__ import annotations

from typing import Dict, List

from .gates import GateType
from .netlist import Circuit

__all__ = [
    "factorize_to_two_input",
    "sweep_dead_logic",
    "collapse_buffers",
]

_BASE_OF_INVERTING = {
    GateType.NAND: GateType.AND,
    GateType.NOR: GateType.OR,
    GateType.XNOR: GateType.XOR,
}


def factorize_to_two_input(circuit: Circuit) -> Circuit:
    """Return a functionally equivalent circuit with only ≤2-input gates.

    A wide symmetric gate becomes a balanced binary tree; inverting types
    (NAND/NOR/XNOR) build the tree in the non-inverting base function and
    invert only at the final stage, so intermediate nodes keep the natural
    AND/OR/XOR semantics the testability models expect.
    """
    out = Circuit(circuit.name)
    for pi in circuit.inputs:
        out.add_input(pi)
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            continue
        fanins = list(node.fanins)
        gate_type = node.gate_type
        if len(fanins) <= 2:
            out.add_gate(name, gate_type, fanins)
            continue
        base = _BASE_OF_INVERTING.get(gate_type, gate_type)
        # Balanced reduction of the fan-in list down to two operands.
        layer: List[str] = fanins
        tier = 0
        while len(layer) > 2:
            nxt: List[str] = []
            for i in range(0, len(layer) - 1, 2):
                mid = out.fresh_name(f"{name}__f{tier}_{i // 2}")
                out.add_gate(mid, base, [layer[i], layer[i + 1]])
                nxt.append(mid)
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
            tier += 1
        out.add_gate(name, gate_type, layer)
    for po in circuit.outputs:
        out.mark_output(po)
    out.validate()
    return out


def sweep_dead_logic(circuit: Circuit) -> Circuit:
    """Return a copy containing only logic in some primary output cone.

    Primary inputs are always retained (removing a PI changes the test
    interface even if the input is unused).
    """
    live = circuit.fanin_cone_union(circuit.outputs)
    out = Circuit(circuit.name)
    for pi in circuit.inputs:
        out.add_input(pi)
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_gate and name in live:
            out.add_gate(name, node.gate_type, node.fanins)
    for po in circuit.outputs:
        out.mark_output(po)
    out.validate()
    return out


def collapse_buffers(circuit: Circuit) -> Circuit:
    """Return a copy with every BUF gate spliced out.

    A BUF that is itself a primary output is kept (removing it would rename
    the output), as is a BUF fed directly by another kept BUF output.
    """
    out_set = set(circuit.outputs)
    alias: Dict[str, str] = {}

    def resolve(name: str) -> str:
        while name in alias:
            name = alias[name]
        return name

    out = Circuit(circuit.name)
    for pi in circuit.inputs:
        out.add_input(pi)
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            continue
        fanins = [resolve(fi) for fi in node.fanins]
        if node.gate_type is GateType.BUF and name not in out_set:
            alias[name] = fanins[0]
            continue
        out.add_gate(name, node.gate_type, fanins)
    for po in circuit.outputs:
        out.mark_output(po)
    out.validate()
    return out
