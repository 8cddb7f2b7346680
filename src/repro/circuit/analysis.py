"""Topological analyses: fanout-free regions, reconvergence, tree checks.

The dynamic program of the paper is exact on *fanout-free* circuits — those
in which every node drives at most one gate pin, so each primary output cone
is a tree.  General circuits are handled by decomposing them into
**fanout-free regions** (FFRs): maximal subgraphs whose internal nodes have
fanout 1, rooted at *stems* (nodes with fanout > 1) or primary outputs.
These analyses provide that decomposition plus the reconvergence statistics
reported in the evaluation tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .netlist import Circuit

__all__ = [
    "is_fanout_free",
    "has_reconvergent_fanout",
    "reconvergent_stems",
    "FanoutFreeRegion",
    "fanout_free_regions",
]


def is_fanout_free(circuit: Circuit) -> bool:
    """True when no node drives more than one pin (every PO cone is a tree).

    A node that is a primary output *and* drives one gate pin counts as
    fanout-free here; a node driving two pins, or driving a pin while also
    being observed twice, does not arise in this representation.
    """
    return all(circuit.fanout_count(name) <= 1 for name in circuit.node_names)


def has_reconvergent_fanout(circuit: Circuit) -> bool:
    """True when some stem's branches reconverge at a downstream node."""
    return bool(reconvergent_stems(circuit))


def reconvergent_stems(circuit: Circuit) -> List[str]:
    """Return stems whose fanout branches reconverge.

    A stem ``s`` is reconvergent when two *distinct* immediate fanout
    branches reach a common node downstream (a stem that drives two pins
    of one gate reconverges at that gate).  Detection walks each stem's
    fanout cone once, tagging every node with the first branch that
    reaches it, and stops at the first node a second branch reaches.
    """
    order = circuit.topological_order()
    sinks = {
        name: [sink for sink, _pin in circuit.fanouts(name)] for name in order
    }
    result: List[str] = []
    for name in order:
        if len(sinks[name]) <= 1:
            continue
        branch_of: Dict[str, int] = {}
        meets = False
        for branch, sink in enumerate(sinks[name]):
            stack = [sink]
            while stack and not meets:
                cur = stack.pop()
                seen = branch_of.get(cur)
                if seen is None:
                    branch_of[cur] = branch
                    stack.extend(sinks[cur])
                else:
                    meets = seen != branch
            if meets:
                result.append(name)
                break
    return result


@dataclass
class FanoutFreeRegion:
    """One maximal fanout-free region of a circuit.

    Attributes
    ----------
    root:
        The stem or primary output at the head of the region.
    members:
        All node names inside the region (including ``root``, excluding the
        leaf boundary).
    leaves:
        Boundary signals feeding the region from outside: primary inputs,
        or stems belonging to other regions.
    """

    root: str
    members: Set[str] = field(default_factory=set)
    leaves: Set[str] = field(default_factory=set)

    def size(self) -> int:
        """Number of gates inside the region."""
        return len(self.members)


def fanout_free_regions(circuit: Circuit) -> List[FanoutFreeRegion]:
    """Decompose the circuit into maximal fanout-free regions.

    Region roots are primary outputs and fanout stems.  Walking fan-in from
    each root, the region absorbs every gate whose fanout count is exactly 1
    and which is not itself a root; primary inputs and other roots become
    region leaves.  Every gate belongs to exactly one region.
    """
    out_set = set(circuit.outputs)
    roots: List[str] = []
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            continue
        if name in out_set or circuit.fanout_count(name) != 1:
            roots.append(name)
    root_set = set(roots)

    regions: List[FanoutFreeRegion] = []
    for root in roots:
        region = FanoutFreeRegion(root=root)
        stack = [root]
        while stack:
            cur = stack.pop()
            if cur in region.members:
                continue
            region.members.add(cur)
            for fi in circuit.node(cur).fanins:
                fi_node = circuit.node(fi)
                if fi_node.is_input or fi in root_set:
                    region.leaves.add(fi)
                else:
                    stack.append(fi)
        regions.append(region)
    return regions
