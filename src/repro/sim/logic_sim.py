"""Pattern-parallel logic simulation of combinational netlists.

:class:`LogicSimulator` levelizes a circuit once and then evaluates any
number of stimulus sets; each signal's values under every pattern live in a
single packed integer word (see :mod:`repro.sim.bitops`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..circuit.gates import evaluate_gate
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from .bitops import ones_mask

__all__ = ["LogicSimulator", "simulate", "signal_probabilities_by_simulation"]


class LogicSimulator:
    """Levelized pattern-parallel simulator bound to one circuit.

    The circuit must not be structurally modified while the simulator is in
    use (create a new simulator after netlist rewrites); any mutation bumps
    the circuit's structural revision and subsequent :meth:`run` calls raise
    :class:`~repro.errors.SimulationError` instead of returning stale
    values.

    The walk is the only good-machine engine: fault simulation starts
    from its words on every kernel (a numpy fault batch packs them into
    its matrix, see :class:`repro.sim.npsim.PackedState`).
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self._revision = circuit.revision
        self._order: List[str] = [
            name for name in circuit.topological_order() if circuit.node(name).is_gate
        ]
        self._inputs = circuit.inputs

    def _check_revision(self) -> None:
        if self.circuit.revision != self._revision:
            raise SimulationError(
                f"circuit {self.circuit.name!r} was structurally modified "
                f"after this simulator was built (revision "
                f"{self._revision} -> {self.circuit.revision}); "
                "create a new simulator"
            )

    def run(
        self, stimulus: Mapping[str, int], n_patterns: int
    ) -> Dict[str, int]:
        """Simulate and return the packed value word of every node.

        The result maps node name → packed word, inputs first, then the
        gates in topological order.

        Parameters
        ----------
        stimulus:
            Map primary-input name → packed word.  Missing inputs default
            to constant 0.
        n_patterns:
            Number of valid pattern bits.
        """
        self._check_revision()
        mask = ones_mask(n_patterns)
        values: Dict[str, int] = {}
        for pi in self._inputs:
            values[pi] = stimulus.get(pi, 0) & mask
        for name in self._order:
            node = self.circuit.node(name)
            values[name] = evaluate_gate(
                node.gate_type, [values[fi] for fi in node.fanins], mask
            )
        return values


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
