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
    GateType,
    output_probability,
    side_input_sensitization_probability,
)
from ..circuit.netlist import Circuit
from ..sim import npsim
from ..sim.compile import resolve_kernel

__all__ = ["COPResult", "signal_probabilities", "observabilities", "cop_measures"]

#: How multiple fanout-branch observabilities combine at a stem.
_STEM_COMBINE_MODES = ("or", "max")


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
        """The three maps by field name: what a fast COP pass must
        reproduce bit for bit."""
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
    overrides: Optional[Mapping[str, float]] = None,
    kernel: Optional[str] = None,
) -> Dict[str, float]:
    """Forward COP pass: P[node = 1] for every node.

    Parameters
    ----------
    input_probabilities:
        P[input = 1] per primary input (default 0.5 — the fair
        pseudo-random source).
    overrides:
        Nodes whose probability is *forced* (used to model control points:
        a scan-driven CP forces 0.5, an AND-type CP in test mode forces 0).
        Overrides win over computed values and are propagated downstream.
    kernel:
        Simulation backend for the override-free pass — ``"numpy"``
        (default) or ``"interp"``, which forces the interpreted walk.
        Runs with ``overrides`` always interpret.  Both backends produce
        bit-identical floats.
    """
    input_probabilities = input_probabilities or {}
    overrides = overrides or {}
    if not overrides and resolve_kernel(kernel) == "numpy":
        return npsim.get_plan(circuit).cop_forward(input_probabilities.get)
    probs: Dict[str, float] = {}
    for name in circuit.topological_order():
        if name in overrides:
            probs[name] = float(overrides[name])
            continue
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
    observed: Optional[Mapping[str, float]] = None,
    stem_combine: str = "or",
    kernel: Optional[str] = None,
) -> Tuple[Dict[str, float], Dict[Tuple[str, str, int], float]]:
    """Backward COP pass: node and branch observabilities.

    Parameters
    ----------
    probability:
        Forward probabilities from :func:`signal_probabilities`.
    observed:
        Map node → direct observability injected at that node.  Primary
        outputs implicitly get 1.0; observation points are modeled by
        passing ``{op_node: 1.0}``.
    stem_combine:
        ``"or"`` combines branch observabilities as independent events
        (``1 - Π(1 - o_i)``, the classic COP rule); ``"max"`` uses the
        most observable branch (a safe lower bound under reconvergence).

    Returns
    -------
    (node_obs, branch_obs):
        ``node_obs[n]`` is the stem observability; ``branch_obs[(d, s, p)]``
        the observability of the branch from driver ``d`` into pin ``p`` of
        sink ``s``.

    ``kernel`` selects the numpy sweep (default) or the interpreted walk
    for the backward pass; runs with ``observed`` injections always
    interpret.
    """
    if stem_combine not in _STEM_COMBINE_MODES:
        raise ValueError(f"stem_combine must be one of {_STEM_COMBINE_MODES}")
    observed = observed or {}
    if not observed and resolve_kernel(kernel) == "numpy":
        return npsim.get_plan(circuit).cop_backward(probability, stem_combine)
    out_set = set(circuit.outputs)
    node_obs: Dict[str, float] = {}
    branch_obs: Dict[Tuple[str, str, int], float] = {}

    for name in reversed(circuit.topological_order()):
        direct = float(observed.get(name, 0.0))
        if name in out_set:
            direct = 1.0
        contributions = [direct] if direct > 0.0 else []
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
        if not contributions:
            node_obs[name] = 0.0
        elif stem_combine == "max":
            node_obs[name] = max(contributions)
        else:
            escape = 1.0
            for c in contributions:
                escape *= 1.0 - c
            node_obs[name] = 1.0 - escape
    return node_obs, branch_obs


def cop_measures(
    circuit: Circuit,
    input_probabilities: Optional[Mapping[str, float]] = None,
    probability_overrides: Optional[Mapping[str, float]] = None,
    observed: Optional[Mapping[str, float]] = None,
    stem_combine: str = "or",
    kernel: Optional[str] = None,
    guard=None,
) -> COPResult:
    """Run both COP passes and return a :class:`COPResult`.

    ``guard`` (or an ambient :class:`repro.verify.GuardedSession`)
    shadow-re-runs a sampled fraction of numpy-backend results through
    the interpreted passes and raises
    :class:`~repro.errors.DivergenceError` on mismatch.
    """
    probs = signal_probabilities(
        circuit, input_probabilities, overrides=probability_overrides,
        kernel=kernel,
    )
    node_obs, branch_obs = observabilities(
        circuit, probs, observed=observed, stem_combine=stem_combine,
        kernel=kernel,
    )
    result = COPResult(
        probability=probs,
        observability=node_obs,
        branch_observability=branch_obs,
    )
    # Overrides / pre-observed maps force the interpreted passes anyway;
    # only shadow-check when at least one pass actually ran the numpy
    # sweep.  Falsiness, not None: an *empty* override map still takes
    # the fast path.
    if resolve_kernel(kernel) != "interp" and (
        not probability_overrides or not observed
    ):
        _shadow_check_cop(
            circuit, input_probabilities, probability_overrides, observed,
            stem_combine, result, guard, resolve_kernel(kernel),
        )
    return result


def _shadow_check_cop(
    circuit: Circuit,
    input_probabilities,
    probability_overrides,
    observed,
    stem_combine: str,
    result: COPResult,
    guard,
    kernel: str = "numpy",
) -> None:
    """Sampled shadow re-run of a fast-backend COP result via the interpreter."""
    # Runtime-lazy: repro.verify imports this module's package siblings.
    from ..verify.guard import active_guard

    g = active_guard(guard)
    if g is None or not g.should_check():
        return
    arbiter = cop_measures(
        circuit,
        input_probabilities,
        probability_overrides=probability_overrides,
        observed=observed,
        stem_combine=stem_combine,
        kernel="interp",
    )
    g.confirm(
        "cop.measures",
        expected=arbiter.as_dict(),
        actual=result.as_dict(),
        circuit=circuit,
        context={
            "input_probabilities": (
                dict(input_probabilities) if input_probabilities else None
            ),
            "stem_combine": stem_combine,
            "has_overrides": probability_overrides is not None,
            "has_observed": observed is not None,
            "kernel": kernel,
        },
        message=f"{kernel} COP passes disagree with the interpreted passes",
    )
