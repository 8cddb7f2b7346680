"""Gate-level netlist: a named DAG of gates with primary inputs and outputs.

The :class:`Circuit` is the central data structure of the library.  It is a
mutable directed acyclic graph whose nodes are primary inputs or gates and
whose edges are the fan-in connections.  Any node may additionally be marked
as a primary output (an *observed* node).

Design notes
------------
* Nodes are addressed by string name; insertion order is preserved, which
  keeps file round-trips and test expectations deterministic.
* Derived structures (fan-out lists, topological order, levels) are computed
  lazily and invalidated on mutation, so analysis code can call them freely.
* Multi-input symmetric gates are allowed; :mod:`repro.circuit.transforms`
  factorizes them to two-input form when an algorithm requires it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import CircuitError
from .gates import GateType, supported_fanin

__all__ = ["Node", "Circuit", "CircuitError"]


@dataclass(frozen=True)
class Node:
    """One vertex of the netlist DAG.

    A node with ``gate_type is None`` is a primary input; otherwise it is a
    gate whose inputs are the nodes named in ``fanins`` (pin order is
    significant for fault bookkeeping even on symmetric gates).
    """

    name: str
    gate_type: Optional[GateType]
    fanins: Tuple[str, ...] = field(default=())

    @property
    def is_input(self) -> bool:
        """True when this node is a primary input."""
        return self.gate_type is None

    @property
    def is_gate(self) -> bool:
        """True when this node is a logic gate (including tie cells)."""
        return self.gate_type is not None


class Circuit:
    """A combinational gate-level netlist.

    Parameters
    ----------
    name:
        Human-readable circuit identifier (used in reports and file I/O).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._outputs: List[str] = []
        self._dirty = True
        self._topo: List[str] = []
        self._levels: Dict[str, int] = {}
        self._fanouts: Dict[str, List[Tuple[str, int]]] = {}
        self._revision = 0
        self._hash_revision = -1
        self._hash = ""

    @property
    def revision(self) -> int:
        """Structural revision counter, bumped by every mutating call.

        Long-lived consumers (simulators, the numpy plan cache)
        record the revision they were built against and refuse to serve
        results for a circuit that has since been rewritten — silently
        stale answers become a :class:`~repro.errors.SimulationError`.
        """
        return self._revision

    def _mutated(self) -> None:
        self._dirty = True
        self._revision += 1

    def structural_hash(self) -> str:
        """Stable content hash of the netlist structure.

        Covers node insertion order, gate types, fan-in wiring, and the
        primary-output list — everything that determines simulation and
        testability semantics — but not the circuit ``name``.  The digest
        is cached per :attr:`revision`, is identical across processes
        (no dependence on ``PYTHONHASHSEED``), and keys the numpy plan
        registry (:func:`repro.sim.npsim.get_plan`): two structurally
        identical circuits share one plan.
        """
        if self._hash_revision == self._revision:
            return self._hash
        h = hashlib.sha256()
        for node in self._nodes.values():
            gt = node.gate_type.value if node.gate_type is not None else ""
            h.update(node.name.encode())
            h.update(b"\x00")
            h.update(gt.encode())
            for fi in node.fanins:
                h.update(b"\x01")
                h.update(fi.encode())
            h.update(b"\x02")
        for out in self._outputs:
            h.update(b"\x03")
            h.update(out.encode())
        self._hash = h.hexdigest()
        self._hash_revision = self._revision
        return self._hash

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Create a primary input node and return its name."""
        self._check_fresh_name(name)
        self._nodes[name] = Node(name, None)
        self._mutated()
        return name

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> str:
        """Create a gate node driven by existing nodes and return its name."""
        self._check_fresh_name(name)
        lo, hi = supported_fanin(gate_type)
        if len(fanins) < lo or (hi is not None and len(fanins) > hi):
            raise CircuitError(
                f"{gate_type} gate {name!r} has {len(fanins)} inputs; "
                f"expected between {lo} and {hi if hi is not None else 'inf'}"
            )
        for fi in fanins:
            if fi not in self._nodes:
                raise CircuitError(f"gate {name!r} references unknown node {fi!r}")
        self._nodes[name] = Node(name, gate_type, tuple(fanins))
        self._mutated()
        return name

    def mark_output(self, name: str) -> None:
        """Mark an existing node as a primary output (idempotent)."""
        if name not in self._nodes:
            raise CircuitError(f"cannot mark unknown node {name!r} as output")
        if name not in self._outputs:
            self._outputs.append(name)
            self._mutated()

    def unmark_output(self, name: str) -> None:
        """Remove a node from the primary output list."""
        try:
            self._outputs.remove(name)
        except ValueError:
            raise CircuitError(f"node {name!r} is not an output") from None
        self._mutated()

    def replace_fanin(self, gate_name: str, pin: int, new_driver: str) -> None:
        """Reconnect pin ``pin`` of ``gate_name`` to ``new_driver``.

        This is the primitive used by test-point insertion: the new driver
        must already exist and the rewiring must keep the graph acyclic
        (checked lazily on the next analysis call).
        """
        node = self._nodes.get(gate_name)
        if node is None or node.is_input:
            raise CircuitError(f"{gate_name!r} is not a gate")
        if not 0 <= pin < len(node.fanins):
            raise CircuitError(f"gate {gate_name!r} has no pin {pin}")
        if new_driver not in self._nodes:
            raise CircuitError(f"unknown driver node {new_driver!r}")
        fanins = list(node.fanins)
        fanins[pin] = new_driver
        self._nodes[gate_name] = Node(gate_name, node.gate_type, tuple(fanins))
        self._mutated()

    def _check_fresh_name(self, name: str) -> None:
        if not name:
            raise CircuitError("node name must be a non-empty string")
        if name in self._nodes:
            raise CircuitError(f"duplicate node name {name!r}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Return the node named ``name`` (KeyError if absent)."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in insertion order."""
        return iter(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    @property
    def inputs(self) -> List[str]:
        """Names of primary inputs, in insertion order."""
        return [n.name for n in self._nodes.values() if n.is_input]

    @property
    def outputs(self) -> List[str]:
        """Names of primary outputs, in marking order."""
        return list(self._outputs)

    @property
    def gates(self) -> List[Node]:
        """All gate nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_gate]

    def gate_count(self) -> int:
        """Number of gate nodes (tie cells included, inputs excluded)."""
        return sum(1 for n in self._nodes.values() if n.is_gate)

    # ------------------------------------------------------------------
    # Derived structure (lazily rebuilt)
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        fanouts: Dict[str, List[Tuple[str, int]]] = {name: [] for name in self._nodes}
        indegree: Dict[str, int] = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            indegree[node.name] = len(node.fanins)
            for pin, fi in enumerate(node.fanins):
                fanouts[fi].append((node.name, pin))
        # Kahn's algorithm, seeded in insertion order for determinism.
        ready = [name for name, deg in indegree.items() if deg == 0]
        topo: List[str] = []
        levels: Dict[str, int] = {}
        head = 0
        while head < len(ready):
            name = ready[head]
            head += 1
            topo.append(name)
            node = self._nodes[name]
            levels[name] = (
                0
                if not node.fanins
                else 1 + max(levels[fi] for fi in node.fanins)
            )
            for sink, _pin in fanouts[name]:
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    ready.append(sink)
        if len(topo) != len(self._nodes):
            cyclic = sorted(set(self._nodes) - set(topo))
            raise CircuitError(f"netlist contains a combinational cycle near {cyclic[:5]}")
        self._topo = topo
        self._levels = levels
        self._fanouts = fanouts
        self._dirty = False

    def topological_order(self) -> List[str]:
        """Node names sorted so every driver precedes its sinks."""
        if self._dirty:
            self._rebuild()
        return list(self._topo)

    def levels(self) -> Dict[str, int]:
        """Map node name → logic level (inputs are level 0)."""
        if self._dirty:
            self._rebuild()
        return dict(self._levels)

    def depth(self) -> int:
        """Maximum logic level in the circuit (0 for input-only netlists)."""
        if self._dirty:
            self._rebuild()
        return max(self._levels.values(), default=0)

    def fanouts(self, name: str) -> List[Tuple[str, int]]:
        """Return ``(sink_gate, pin_index)`` pairs fed by node ``name``."""
        if self._dirty:
            self._rebuild()
        return list(self._fanouts[name])

    def fanout_count(self, name: str) -> int:
        """Number of gate pins driven by node ``name``."""
        if self._dirty:
            self._rebuild()
        return len(self._fanouts[name])

    def is_stem(self, name: str) -> bool:
        """True when node ``name`` drives more than one pin (a fanout stem)."""
        return self.fanout_count(name) > 1

    # ------------------------------------------------------------------
    # Cones
    # ------------------------------------------------------------------
    def fanin_cone(self, name: str) -> Set[str]:
        """All nodes (inclusive) in the transitive fan-in of ``name``."""
        return self.fanin_cone_union((name,))

    def fanin_cone_union(self, names: Iterable[str]) -> Set[str]:
        """The union of the fan-in cones of ``names`` in one traversal.

        Equivalent to ``set().union(*(self.fanin_cone(n) for n in names))``
        but visits each node at most once, so proposing candidates against
        hundreds of overlapping failing-fault cones, or collecting every
        output's cone, stays linear in circuit size instead of quadratic.
        """
        seen: Set[str] = set()
        stack = [name for name in names]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._nodes[cur].fanins)
        return seen

    def fanout_cone(self, name: str) -> Set[str]:
        """All nodes (inclusive) in the transitive fan-out of ``name``."""
        if self._dirty:
            self._rebuild()
        seen: Set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(sink for sink, _pin in self._fanouts[cur])
        return seen

    # ------------------------------------------------------------------
    # Validation and utility
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`CircuitError` on dangling refs, cycles, or no outputs."""
        if self._dirty:
            self._rebuild()  # raises on cycles
        if not self._outputs:
            raise CircuitError(f"circuit {self.name!r} has no primary outputs")
        for out in self._outputs:
            if out not in self._nodes:
                raise CircuitError(f"output {out!r} does not name a node")

    def floating_nodes(self) -> List[str]:
        """Nodes that drive nothing and are not outputs (dead logic)."""
        if self._dirty:
            self._rebuild()
        out_set = set(self._outputs)
        return [
            name
            for name in self._nodes
            if not self._fanouts[name] and name not in out_set
        ]

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-copy the netlist (nodes are immutable so sharing is safe)."""
        dup = Circuit(name or self.name)
        dup._nodes = dict(self._nodes)
        dup._outputs = list(self._outputs)
        dup._dirty = True
        return dup

    def fresh_name(self, prefix: str) -> str:
        """Return a node name starting with ``prefix`` not yet in use."""
        if prefix not in self._nodes:
            return prefix
        i = 1
        while f"{prefix}_{i}" in self._nodes:
            i += 1
        return f"{prefix}_{i}"

    def stats(self) -> Dict[str, int]:
        """Summary statistics used by reports and Table 1 of the evaluation."""
        if self._dirty:
            self._rebuild()
        n_stems = sum(1 for n in self._nodes if len(self._fanouts[n]) > 1)
        return {
            "inputs": len(self.inputs),
            "outputs": len(self._outputs),
            "gates": self.gate_count(),
            "nodes": len(self._nodes),
            "depth": self.depth(),
            "stems": n_stems,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"gates={self.gate_count()}, outputs={len(self._outputs)})"
        )
