"""Unit and property tests for the pattern-parallel fault simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, generators
from repro.circuit.gates import gate_function
from repro.sim import (
    ExhaustiveSource,
    Fault,
    FaultSimulator,
    UniformRandomSource,
    all_stuck_at_faults,
    collapse_faults,
    fault_coverage,
)


def brute_force_detection(circuit, fault, stimulus, n_patterns):
    """Reference: per-pattern scalar simulation of good and faulty circuits."""
    detected = 0
    for p in range(n_patterns):
        scalar_in = {pi: (stimulus.get(pi, 0) >> p) & 1 for pi in circuit.inputs}

        def run(faulty):
            values = dict(scalar_in)
            for name in circuit.topological_order():
                node = circuit.node(name)
                if node.is_gate:
                    fanins = []
                    for pin, fi in enumerate(node.fanins):
                        v = values[fi]
                        if (
                            faulty
                            and fault.branch is not None
                            and fault.branch == (name, pin)
                        ):
                            v = fault.value
                        fanins.append(v)
                    values[name] = gate_function(node.gate_type)(fanins)
                if faulty and fault.branch is None and name == fault.node:
                    values[name] = fault.value
            return [values[po] for po in circuit.outputs]

        if run(False) != run(True):
            detected |= 1 << p
    return detected


class TestAgainstBruteForce:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_random_dag_all_faults(self, seed):
        circuit = generators.random_dag(5, 12, seed=seed)
        n_patterns = 16
        stim = UniformRandomSource(seed=seed).generate(circuit.inputs, n_patterns)
        sim = FaultSimulator(circuit)
        result = sim.run(stim, n_patterns, collapse=False)
        for fault, word in result.detection_word.items():
            expected = brute_force_detection(circuit, fault, stim, n_patterns)
            assert word == expected, fault.describe()

    def test_c17_known_full_coverage(self, c17):
        n = 1 << 5
        stim = ExhaustiveSource().generate(c17.inputs, n)
        result = FaultSimulator(c17).run(stim, n)
        assert result.coverage() == 1.0  # c17 has no redundant faults


class TestEquivalenceInvariant:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_equivalent_faults_same_detection_word(self, seed):
        """Structural equivalence implies identical detection behaviour."""
        circuit = generators.random_dag(6, 20, seed=seed)
        n_patterns = 32
        stim = UniformRandomSource(seed=seed).generate(circuit.inputs, n_patterns)
        sim = FaultSimulator(circuit)
        result = sim.run(stim, n_patterns, collapse=False)
        collapsed = collapse_faults(circuit)
        for fault, rep in collapsed.class_of.items():
            assert result.detection_word[fault] == result.detection_word[rep], (
                fault.describe(),
                rep.describe(),
            )


class TestResultAccounting:
    def test_first_detect_and_curve(self, wand8):
        n = 1 << 8
        stim = ExhaustiveSource().generate(wand8.inputs, n)
        result = FaultSimulator(wand8).run(stim, n, collapse=False)
        # Output s-a-0 is detected only by the all-ones (last) pattern.
        out = wand8.outputs[0]
        assert result.first_detect[Fault(out, 0)] == n - 1
        curve = result.coverage_curve()
        assert curve[-1][1] == result.coverage()
        # Monotone non-decreasing.
        values = [cov for _n, cov in curve]
        assert values == sorted(values)

    def test_coverage_at(self, wand8):
        n = 1 << 8
        stim = ExhaustiveSource().generate(wand8.inputs, n)
        result = FaultSimulator(wand8).run(stim, n)
        assert result.coverage_at(n) == result.coverage()
        assert result.coverage_at(1) <= result.coverage_at(n // 2)

    def test_undetected_fault_listed(self):
        # AND output observed only: input s-a-1 needs the other input at 1.
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        b.output(b.and_(a, c, name="y"))
        circuit = b.build()
        stim = {"a": 0b01, "b": 0b00}  # b never 1 → a faults unobservable
        result = FaultSimulator(circuit).run(stim, 2, collapse=False)
        assert Fault("a", 0) in set(result.undetected_faults())

    def test_detection_probability(self, wand8):
        n = 1 << 8
        stim = ExhaustiveSource().generate(wand8.inputs, n)
        result = FaultSimulator(wand8).run(stim, n, collapse=False)
        out = wand8.outputs[0]
        assert result.detection_probability(Fault(out, 0)) == pytest.approx(1 / n)
        assert result.detection_probability(Fault(out, 1)) == pytest.approx(1 - 1 / n)

    def test_empty_fault_list(self, and2):
        result = FaultSimulator(and2).run({"a": 1, "b": 1}, 1, faults=[])
        assert result.coverage() == 1.0


class TestConvenience:
    def test_fault_coverage_wrapper(self, c17):
        stim = UniformRandomSource(seed=1).generate(c17.inputs, 256)
        cov = fault_coverage(c17, stim, 256)
        assert 0.9 <= cov <= 1.0

    def test_unexcitable_fault_zero_word(self, and2):
        sim = FaultSimulator(and2)
        good = {"a": 0b11, "b": 0b11, "y": 0b11}
        # y stuck at 1 while y is already 1 everywhere → never excited.
        assert sim.simulate_fault(Fault("y", 1), good, 2) == 0


class TestCoverageBlocks:
    @pytest.mark.parametrize("block", [64, 7])
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 100, 65537])
    def test_blocks_match_the_shift_split(self, block, n_patterns):
        # Each block's input words equal the old split, which peeled
        # blocks off the low end with ``&`` and ``>>``; a bit above
        # n_patterns in the stimulus never reaches a block.
        circuit = generators.random_dag(6, 20, seed=1)
        stim = UniformRandomSource(seed=2).generate(circuit.inputs, n_patterns)
        stim[circuit.inputs[0]] |= 1 << (n_patterns + 3)
        remaining = {pi: stim[pi] for pi in circuit.inputs}
        sizes = []
        for blk_n, good in FaultSimulator(circuit).coverage_blocks(
            stim, n_patterns, block
        ):
            sizes.append(blk_n)
            lo_mask = (1 << blk_n) - 1
            assert {pi: good[pi] for pi in circuit.inputs} == {
                pi: word & lo_mask for pi, word in remaining.items()
            }
            remaining = {pi: word >> blk_n for pi, word in remaining.items()}
        assert sum(sizes) == n_patterns
        assert sizes[0] == min(block, n_patterns)
