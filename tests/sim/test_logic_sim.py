"""Unit and property tests for pattern-parallel logic simulation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, GateType, generators
from repro.circuit.gates import gate_function
from repro.sim import (
    ExhaustiveSource,
    UniformRandomSource,
    signal_probabilities_by_simulation,
    simulate,
)


class TestBasicSimulation:
    def test_and_gate(self, and2):
        values = simulate(and2, {"a": 0b1100, "b": 0b1010}, 4)
        assert values["y"] == 0b1000

    def test_chain(self, chain3):
        # y = NOT(a AND (b OR c))
        stim = {"a": 0b1111, "b": 0b1100, "c": 0b1010}
        values = simulate(chain3, stim, 4)
        assert values["o1"] == 0b1110
        assert values["a1"] == 0b1110
        assert values["y"] == 0b0001

    def test_missing_inputs_default_zero(self, and2):
        values = simulate(and2, {"a": 0b11}, 2)
        assert values["y"] == 0


class TestAgainstScalarEvaluation:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_dag_matches_per_pattern_eval(self, seed):
        """Packed simulation equals naive per-pattern evaluation."""
        circuit = generators.random_dag(6, 25, seed=seed)
        n_patterns = 32
        stim = UniformRandomSource(seed=seed).generate(circuit.inputs, n_patterns)
        values = simulate(circuit, stim, n_patterns)
        for p in range(0, n_patterns, 7):
            scalar = {
                pi: (stim[pi] >> p) & 1 for pi in circuit.inputs
            }
            for name in circuit.topological_order():
                node = circuit.node(name)
                if node.is_gate:
                    fn = gate_function(node.gate_type)
                    scalar[name] = fn([scalar[fi] for fi in node.fanins])
                assert (values[name] >> p) & 1 == scalar[name], name


class TestSignalProbabilityEstimation:
    def test_independent_inputs(self, and2):
        stim = UniformRandomSource(seed=2).generate(and2.inputs, 1 << 14)
        probs = signal_probabilities_by_simulation(and2, stim, 1 << 14)
        assert probs["y"] == pytest.approx(0.25, abs=0.02)

    def test_exhaustive_exact(self, wand8):
        n = 1 << 8
        stim = ExhaustiveSource().generate(wand8.inputs, n)
        probs = signal_probabilities_by_simulation(wand8, stim, n)
        assert probs[wand8.outputs[0]] == pytest.approx(1 / 256)
