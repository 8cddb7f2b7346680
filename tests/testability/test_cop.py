"""Unit and property tests for COP probabilities and observabilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, generators
from repro.sim import ExhaustiveSource, FaultSimulator, UniformRandomSource, simulate
from repro.testability import cop_measures, signal_probabilities


class TestSignalProbabilities:
    def test_and_chain(self, chain3):
        probs = signal_probabilities(chain3)
        assert probs["o1"] == pytest.approx(0.75)
        assert probs["a1"] == pytest.approx(0.375)
        assert probs["y"] == pytest.approx(0.625)

    def test_custom_input_probabilities(self, and2):
        probs = signal_probabilities(and2, {"a": 1.0, "b": 0.25})
        assert probs["y"] == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_exact_on_trees(self, seed):
        """On fanout-free circuits COP equals the exhaustive-simulation truth."""
        circuit = generators.random_tree(8, seed=seed)
        n_inputs = len(circuit.inputs)
        if n_inputs > 12:
            return
        n = 1 << n_inputs
        stim = ExhaustiveSource().generate(circuit.inputs, n)
        values = simulate(circuit, stim, n)
        probs = signal_probabilities(circuit)
        for name, word in values.items():
            assert probs[name] == pytest.approx(word.bit_count() / n, abs=1e-9)

    def test_approximate_under_reconvergence(self, diamond):
        """The diamond's output is constant 0 but COP reports > 0 — the
        classic independence-assumption error that motivates exact-on-trees."""
        probs = signal_probabilities(diamond)
        n = 4
        stim = ExhaustiveSource().generate(diamond.inputs, n)
        true_p = simulate(diamond, stim, n)["y"].bit_count() / n
        assert true_p == 0.0
        assert probs["y"] > 0.0


class TestObservabilities:
    def test_output_fully_observable(self, chain3):
        cop = cop_measures(chain3)
        assert cop.observability["y"] == 1.0

    def test_and_side_input_attenuates(self, and2):
        cop = cop_measures(and2)
        # a observable iff b == 1 (prob 0.5).
        assert cop.observability["a"] == pytest.approx(0.5)
        assert cop.branch_observability[("a", "y", 0)] == pytest.approx(0.5)

    def test_chain_observability(self, chain3):
        cop = cop_measures(chain3)
        # b propagates through OR (c must be 0: 0.5) then AND (a must be 1: 0.5).
        assert cop.observability["b"] == pytest.approx(0.25)

    def test_xor_propagates_always(self):
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        b.output(b.xor(a, c, name="y"))
        cop = cop_measures(b.build())
        assert cop.observability["a"] == 1.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_exact_detection_on_trees(self, seed):
        """excitation × observability = true detection prob on trees."""
        circuit = generators.random_tree(7, seed=seed)
        if len(circuit.inputs) > 11:
            return
        n = 1 << len(circuit.inputs)
        stim = ExhaustiveSource().generate(circuit.inputs, n)
        result = FaultSimulator(circuit).run(stim, n, collapse=False)
        cop = cop_measures(circuit)
        for fault, word in result.detection_word.items():
            true_d = word.bit_count() / n
            p1 = cop.probability[fault.node]
            excite = p1 if fault.value == 0 else 1.0 - p1
            model_d = excite * cop.observability[fault.node]
            assert model_d == pytest.approx(true_d, abs=1e-9), fault.describe()


class TestCOPResultHelpers:
    def test_controllability_accessors(self, and2):
        cop = cop_measures(and2)
        assert cop.one_controllability("y") == pytest.approx(0.25)
        assert cop.zero_controllability("y") == pytest.approx(0.75)
