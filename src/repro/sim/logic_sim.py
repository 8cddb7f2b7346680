"""Pattern-parallel logic simulation of combinational netlists.

:class:`LogicSimulator` levelizes a circuit once and then evaluates any
number of stimulus sets; each signal's values under every pattern live in a
single packed integer word (see :mod:`repro.sim.bitops`).  The simulator
also supports *forced values* — overriding a node or a specific fan-in
connection with an arbitrary word — which is the primitive both fault
injection and control-point what-if analysis are built on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..circuit.gates import evaluate_gate
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from . import npsim
from .bitops import ones_mask
from .compile import resolve_kernel

__all__ = ["LogicSimulator", "simulate", "signal_probabilities_by_simulation"]

#: A connection override key: (sink_gate, pin_index).
Connection = Tuple[str, int]


class LogicSimulator:
    """Levelized pattern-parallel simulator bound to one circuit.

    The circuit must not be structurally modified while the simulator is in
    use (create a new simulator after netlist rewrites); any mutation bumps
    the circuit's structural revision and subsequent :meth:`run` calls raise
    :class:`~repro.errors.SimulationError` instead of returning stale
    values.

    ``kernel`` picks the simulation backend for force-free runs:
    ``"numpy"`` (the default) uses the word-parallel array engine of
    :mod:`repro.sim.npsim`, ``"interp"`` the interpreted gate walk, which
    remains the ground-truth arbiter.  Forced-value runs always interpret.
    """

    def __init__(self, circuit: Circuit, kernel: Optional[str] = None) -> None:
        circuit.validate()
        self.circuit = circuit
        self.kernel = resolve_kernel(kernel)
        self._revision = circuit.revision
        self._order: List[str] = [
            name for name in circuit.topological_order() if circuit.node(name).is_gate
        ]
        self._inputs = circuit.inputs
        self._plan: Optional[npsim.CircuitPlan] = None

    def _check_revision(self) -> None:
        if self.circuit.revision != self._revision:
            raise SimulationError(
                f"circuit {self.circuit.name!r} was structurally modified "
                f"after this simulator was built (revision "
                f"{self._revision} -> {self.circuit.revision}); "
                "create a new simulator"
            )

    def run(
        self,
        stimulus: Mapping[str, int],
        n_patterns: int,
        node_forces: Optional[Mapping[str, int]] = None,
        connection_forces: Optional[Mapping[Connection, int]] = None,
    ) -> Mapping[str, int]:
        """Simulate and return the packed value word of every node.

        The result maps node name → packed word.  The numpy backend
        returns a :class:`~repro.sim.npsim.PackedState` — a mapping that
        compares equal to the plain dict of the interpreted walk while
        keeping the packed arrays available to the fault simulator.

        Parameters
        ----------
        stimulus:
            Map primary-input name → packed word.  Missing inputs default
            to constant 0.
        n_patterns:
            Number of valid pattern bits.
        node_forces:
            Map node name → packed word; the node's computed value is
            replaced by the word (stuck-at faults use a constant word).
        connection_forces:
            Map ``(sink, pin)`` → packed word; only that fan-in connection
            sees the forced word (fanout-branch faults).
        """
        self._check_revision()
        if not node_forces and not connection_forces and self.kernel == "numpy":
            if self._plan is None:
                self._plan = npsim.get_plan(self.circuit)
            return self._plan.run_state(stimulus, n_patterns)
        mask = ones_mask(n_patterns)
        values: Dict[str, int] = {}
        node_forces = node_forces or {}
        connection_forces = connection_forces or {}
        for pi in self._inputs:
            word = stimulus.get(pi, 0) & mask
            if pi in node_forces:
                word = node_forces[pi] & mask
            values[pi] = word
        for name in self._order:
            node = self.circuit.node(name)
            if connection_forces:
                fanin_words = [
                    connection_forces.get((name, pin), values[fi]) & mask
                    for pin, fi in enumerate(node.fanins)
                ]
            else:
                fanin_words = [values[fi] for fi in node.fanins]
            word = evaluate_gate(node.gate_type, fanin_words, mask)
            if name in node_forces:
                word = node_forces[name] & mask
            values[name] = word
        return values

    def run_outputs(
        self,
        stimulus: Mapping[str, int],
        n_patterns: int,
        **kwargs,
    ) -> Dict[str, int]:
        """Like :meth:`run` but return only the primary-output words."""
        values = self.run(stimulus, n_patterns, **kwargs)
        return {po: values[po] for po in self.circuit.outputs}


def simulate(
    circuit: Circuit, stimulus: Mapping[str, int], n_patterns: int
) -> Dict[str, int]:
    """One-shot convenience wrapper around :class:`LogicSimulator`."""
    return LogicSimulator(circuit).run(stimulus, n_patterns)


def signal_probabilities_by_simulation(
    circuit: Circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
) -> Dict[str, float]:
    """Estimate ``P[node = 1]`` for every node by explicit simulation.

    This is the Monte-Carlo ground truth the analytical COP measures are
    validated against in the test suite.
    """
    values = simulate(circuit, stimulus, n_patterns)
    return {name: word.bit_count() / n_patterns for name, word in values.items()}
