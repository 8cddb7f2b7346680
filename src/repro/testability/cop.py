"""COP testability measures: signal probabilities and observabilities.

COP (Controllability/Observability Program, Brglez 1984) propagates
probabilities through the netlist under an independence assumption:

* **1-controllability** ``p(n) = P[n = 1]`` moves forward from the inputs
  (exact on fanout-free circuits, approximate across reconvergence);
* **observability** ``obs(n) = P[a value change on n reaches an observed
  output]`` moves backward from the outputs, multiplying per-gate
  sensitization probabilities.

These are the probability semantics the paper's dynamic program optimizes
over, and the guidance signal for the greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..circuit.gates import (
    output_probability,
    side_input_sensitization_probability,
)
from ..circuit.netlist import Circuit

__all__ = ["COPResult", "signal_probabilities", "observabilities", "cop_measures"]


@dataclass
class COPResult:
    """Complete COP analysis of one circuit.

    Attributes
    ----------
    probability:
        Map node → P[node = 1].
    observability:
        Map node → stem observability.
    branch_observability:
        Map ``(driver, sink, pin)`` → observability of that fanout branch.
    """

    probability: Dict[str, float] = field(default_factory=dict)
    observability: Dict[str, float] = field(default_factory=dict)
    branch_observability: Dict[Tuple[str, str, int], float] = field(
        default_factory=dict
    )

    def as_dict(self) -> Dict[str, dict]:
        """The three maps by field name."""
        return {
            "probability": self.probability,
            "observability": self.observability,
            "branch_observability": self.branch_observability,
        }

    def zero_controllability(self, node: str) -> float:
        """P[node = 0] (complement of the stored 1-probability)."""
        return 1.0 - self.probability[node]

    def one_controllability(self, node: str) -> float:
        """P[node = 1]."""
        return self.probability[node]


def signal_probabilities(
    circuit: Circuit,
    input_probabilities: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Forward COP pass: P[node = 1] for every node.

    ``input_probabilities`` gives P[input = 1] per primary input (default
    0.5 — the fair pseudo-random source).
    """
    input_probabilities = input_probabilities or {}
    probs: Dict[str, float] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            probs[name] = float(input_probabilities.get(name, 0.5))
        else:
            probs[name] = output_probability(
                node.gate_type, [probs[fi] for fi in node.fanins]
            )
    return probs


def observabilities(
    circuit: Circuit,
    probability: Mapping[str, float],
) -> Tuple[Dict[str, float], Dict[Tuple[str, str, int], float]]:
    """Backward COP pass: node and branch observabilities.

    ``probability`` holds the forward probabilities from
    :func:`signal_probabilities`.  Primary outputs are fully observable;
    a stem combines its branch observabilities as independent events
    (``1 - Π(1 - o_i)``, the classic COP rule).

    Returns
    -------
    (node_obs, branch_obs):
        ``node_obs[n]`` is the stem observability; ``branch_obs[(d, s, p)]``
        the observability of the branch from driver ``d`` into pin ``p`` of
        sink ``s``.
    """
    out_set = set(circuit.outputs)
    node_obs: Dict[str, float] = {}
    branch_obs: Dict[Tuple[str, str, int], float] = {}

    for name in reversed(circuit.topological_order()):
        contributions = [1.0] if name in out_set else []
        for sink, pin in circuit.fanouts(name):
            sink_node = circuit.node(sink)
            side_probs = [
                probability[fi]
                for p, fi in enumerate(sink_node.fanins)
                if p != pin
            ]
            transfer = side_input_sensitization_probability(
                sink_node.gate_type, side_probs
            )
            b_obs = node_obs[sink] * transfer
            branch_obs[(name, sink, pin)] = b_obs
            contributions.append(b_obs)
        escape = 1.0
        for c in contributions:
            escape *= 1.0 - c
        node_obs[name] = 1.0 - escape
    return node_obs, branch_obs


def cop_measures(
    circuit: Circuit,
    input_probabilities: Optional[Mapping[str, float]] = None,
) -> COPResult:
    """Run both COP passes and return a :class:`COPResult`."""
    probs = signal_probabilities(circuit, input_probabilities)
    node_obs, branch_obs = observabilities(circuit, probs)
    return COPResult(
        probability=probs,
        observability=node_obs,
        branch_observability=branch_obs,
    )
