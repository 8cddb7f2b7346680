"""Unit tests for the Circuit netlist DAG."""

import pytest

from repro.circuit import Circuit, CircuitError, GateType


def build_simple():
    c = Circuit("t")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.NOT, ["g1"])
    c.mark_output("g2")
    return c


class TestConstruction:
    def test_inputs_and_gates(self):
        c = build_simple()
        assert c.inputs == ["a", "b"]
        assert [g.name for g in c.gates] == ["g1", "g2"]
        assert c.outputs == ["g2"]
        assert len(c) == 4
        assert c.gate_count() == 2

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError, match="duplicate"):
            c.add_input("a")
        with pytest.raises(CircuitError, match="duplicate"):
            c.add_gate("a", GateType.NOT, ["a"])

    def test_empty_name_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().add_input("")

    def test_unknown_fanin_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError, match="unknown node"):
            c.add_gate("g", GateType.AND, ["a", "zz"])

    def test_arity_enforced(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("g", GateType.AND, ["a"])  # AND needs ≥ 2
        with pytest.raises(CircuitError):
            c.add_gate("g", GateType.NOT, ["a", "a"])  # NOT needs exactly 1

    def test_mark_output_unknown(self):
        with pytest.raises(CircuitError):
            Circuit().mark_output("x")

    def test_mark_output_idempotent(self):
        c = build_simple()
        c.mark_output("g2")
        assert c.outputs == ["g2"]

    def test_unmark_output(self):
        c = build_simple()
        c.unmark_output("g2")
        assert c.outputs == []
        with pytest.raises(CircuitError):
            c.unmark_output("g2")


class TestDerivedStructure:
    def test_topological_order(self):
        c = build_simple()
        order = c.topological_order()
        assert order.index("a") < order.index("g1") < order.index("g2")
        assert order.index("b") < order.index("g1")

    def test_levels_and_depth(self):
        c = build_simple()
        levels = c.levels()
        assert levels["a"] == 0 and levels["b"] == 0
        assert levels["g1"] == 1 and levels["g2"] == 2
        assert c.depth() == 2

    def test_fanouts(self):
        c = build_simple()
        assert c.fanouts("a") == [("g1", 0)]
        assert c.fanouts("g1") == [("g2", 0)]
        assert c.fanouts("g2") == []
        assert c.fanout_count("a") == 1
        assert not c.is_stem("a")

    def test_stem_detection(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g1", GateType.NOT, ["a"])
        c.add_gate("g2", GateType.NOT, ["a"])
        c.mark_output("g1")
        c.mark_output("g2")
        assert c.is_stem("a")
        assert sorted(c.fanouts("a")) == [("g1", 0), ("g2", 0)]

    def test_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g1", GateType.AND, ["a", "a"])
        c.add_gate("g2", GateType.AND, ["g1", "a"])
        c.replace_fanin("g1", 1, "g2")  # creates g1 -> g2 -> g1
        c.mark_output("g2")
        with pytest.raises(CircuitError, match="cycle"):
            c.topological_order()

    def test_replace_fanin_errors(self):
        c = build_simple()
        with pytest.raises(CircuitError):
            c.replace_fanin("a", 0, "b")  # not a gate
        with pytest.raises(CircuitError):
            c.replace_fanin("g1", 5, "b")  # no such pin
        with pytest.raises(CircuitError):
            c.replace_fanin("g1", 0, "zz")  # unknown driver


class TestCones:
    def test_fanin_cone(self):
        c = build_simple()
        assert c.fanin_cone("g2") == {"a", "b", "g1", "g2"}
        assert c.fanin_cone("a") == {"a"}

    def test_fanout_cone(self):
        c = build_simple()
        assert c.fanout_cone("a") == {"a", "g1", "g2"}
        assert c.fanout_cone("g2") == {"g2"}


class TestUtility:
    def test_validate_requires_outputs(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError, match="no primary outputs"):
            c.validate()

    def test_floating_nodes(self):
        c = build_simple()
        c.add_gate("dead", GateType.NOT, ["a"])
        assert c.floating_nodes() == ["dead"]

    def test_copy_is_independent(self):
        c = build_simple()
        d = c.copy("t2")
        d.add_gate("extra", GateType.NOT, ["a"])
        assert "extra" in d and "extra" not in c
        assert d.name == "t2"

    def test_fresh_name(self):
        c = build_simple()
        assert c.fresh_name("new") == "new"
        assert c.fresh_name("g1") == "g1_1"

    def test_stats(self):
        c = build_simple()
        s = c.stats()
        assert s == {
            "inputs": 2,
            "outputs": 1,
            "gates": 2,
            "nodes": 4,
            "depth": 2,
            "stems": 0,
        }

    def test_mutation_invalidates_caches(self):
        c = build_simple()
        assert c.depth() == 2
        c.add_gate("g3", GateType.NOT, ["g2"])
        c.mark_output("g3")
        assert c.depth() == 3
        assert ("g3", 0) in c.fanouts("g2")


class TestStructuralIdentity:
    """Revision counter and structural hash: what simulator caches key on."""

    def test_circuit_revision_bumps_on_every_mutation(self):
        circuit = Circuit("rev")
        r0 = circuit.revision
        circuit.add_input("a")
        circuit.add_input("b")
        assert circuit.revision > r0
        r1 = circuit.revision
        circuit.add_gate("g", GateType.AND, ["a", "b"])
        assert circuit.revision > r1
        r2 = circuit.revision
        circuit.mark_output("g")
        assert circuit.revision > r2

    def test_structural_hash_is_structure_keyed(self):
        from repro.circuit.generators import random_dag

        a = random_dag(6, 20, seed=21)
        b = random_dag(6, 20, seed=21)
        c = random_dag(6, 20, seed=22)
        assert a.structural_hash() == b.structural_hash()
        assert a.structural_hash() != c.structural_hash()
        before = a.structural_hash()
        out = a.outputs[0]
        a.unmark_output(out)
        assert a.structural_hash() != before
