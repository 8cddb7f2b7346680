"""Unit tests for structural transforms: function preservation is the law."""

import random

import pytest

from repro.circuit import (
    CircuitBuilder,
    GateType,
    collapse_buffers,
    factorize_to_two_input,
    generators,
    sweep_dead_logic,
)
from repro.sim import LogicSimulator, UniformRandomSource


def outputs_equal(c1, c2, n_patterns=256, seed=7):
    """Simulate both circuits on shared random stimulus; compare POs."""
    assert c1.inputs == c2.inputs
    stim = UniformRandomSource(seed=seed).generate(c1.inputs, n_patterns)
    v1 = LogicSimulator(c1).run(stim, n_patterns)
    v2 = LogicSimulator(c2).run(stim, n_patterns)
    assert c1.outputs == c2.outputs
    return all(v1[po] == v2[po] for po in c1.outputs)


def wide_gate_circuit(gate_type, width):
    b = CircuitBuilder(f"wide_{gate_type.value}")
    ins = b.inputs(*[f"x{i}" for i in range(width)])
    b.output(b.gate(gate_type, ins, name="y"))
    return b.build()


class TestFactorize:
    @pytest.mark.parametrize(
        "gate_type",
        [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR],
    )
    @pytest.mark.parametrize("width", [3, 4, 5, 8])
    def test_wide_gate_preserved(self, gate_type, width):
        original = wide_gate_circuit(gate_type, width)
        flat = factorize_to_two_input(original)
        assert all(len(g.fanins) <= 2 for g in flat.gates)
        assert outputs_equal(original, flat)

    def test_two_input_circuit_unchanged(self):
        c = generators.c17()
        flat = factorize_to_two_input(c)
        assert flat.stats() == c.stats()

    def test_mixed_circuit(self):
        original = generators.equality_comparator(9)
        flat = factorize_to_two_input(original)
        assert all(len(g.fanins) <= 2 for g in flat.gates)
        assert outputs_equal(original, flat)

    def test_output_names_preserved(self):
        original = wide_gate_circuit(GateType.NAND, 6)
        flat = factorize_to_two_input(original)
        assert flat.outputs == original.outputs


class TestSweep:
    def test_removes_dead_gates(self):
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        y = b.and_(a, c, name="y")
        b.gate(GateType.NOT, [a], name="dead")
        b.output(y)
        circuit = b.build(validate=False)
        swept = sweep_dead_logic(circuit)
        assert "dead" not in swept
        assert "y" in swept
        assert swept.inputs == circuit.inputs  # PIs always kept

    def test_keeps_live_logic_intact(self):
        c = generators.ripple_carry_adder(4)
        swept = sweep_dead_logic(c)
        assert swept.stats() == c.stats()
        assert outputs_equal(c, swept)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_live_set_is_the_union_of_output_cones(self, seed):
        circuit = generators.random_dag(8, 60, seed=seed, n_outputs=12)
        rng = random.Random(seed)
        drivers = list(circuit.node_names)
        for i in range(10):  # floating logic, partly chained
            circuit.add_gate(f"float{i}", GateType.AND, rng.sample(drivers, 2))
            drivers.append(f"float{i}")
        cones = set().union(*(circuit.fanin_cone(po) for po in circuit.outputs))
        assert len(circuit.outputs) >= 12 and "float9" not in cones
        swept = sweep_dead_logic(circuit)
        assert set(swept.node_names) == cones | set(circuit.inputs)
        assert swept.outputs == circuit.outputs


class TestCollapseBuffers:
    def test_splices_out_buffers(self):
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        f1 = b.buf(a, name="f1")
        y = b.and_(f1, c, name="y")
        b.output(y)
        circuit = b.build()
        out = collapse_buffers(circuit)
        assert "f1" not in out
        assert out.node("y").fanins == ("a", "b")
        assert outputs_equal(circuit, out)

    def test_output_buffer_kept(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        y = b.buf(a, name="y")
        b.output(y)
        circuit = b.build()
        out = collapse_buffers(circuit)
        assert "y" in out
        assert out.outputs == ["y"]

    def test_buffer_chains(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        f1 = b.buf(a)
        f2 = b.buf(f1)
        y = b.not_(f2, name="y")
        b.output(y)
        out = collapse_buffers(b.build())
        assert out.node("y").fanins == ("a",)
        assert out.gate_count() == 1
