"""Unit tests for the stuck-at fault model and equivalence collapsing."""

import pytest

from repro.circuit import CircuitBuilder, GateType, generators
from repro.sim import Fault, all_stuck_at_faults, collapse_faults
from repro.sim.faults import testable_stuck_at_faults


class TestFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("n", 2)

    def test_describe(self):
        assert Fault("n1", 0).describe() == "n1 s-a-0"
        assert Fault("n1", 1, branch=("g2", 1)).describe() == "n1->g2.1 s-a-1"

    def test_ordering_stems_before_branches(self):
        stem = Fault("n", 0)
        branch = Fault("n", 0, branch=("g", 0))
        assert sorted([branch, stem]) == [stem, branch]

    def test_is_branch(self):
        assert not Fault("n", 0).is_branch
        assert Fault("n", 0, branch=("g", 0)).is_branch


class TestEnumeration:
    def test_fanout_free_counts(self):
        # A fanout-free circuit has 2 faults per node, no branch faults.
        c = generators.parity_tree(8)
        faults = all_stuck_at_faults(c)
        assert len(faults) == 2 * len(c.node_names)
        assert not any(f.is_branch for f in faults)

    def test_stem_adds_branch_faults(self, diamond):
        faults = all_stuck_at_faults(diamond)
        branch_faults = [f for f in faults if f.is_branch]
        # s drives p and q: 2 branches × 2 polarities.
        assert len(branch_faults) == 4
        assert all(f.node == "s" for f in branch_faults)

    def test_const_cells_single_fault(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        z = b.const0(name="z")
        b.output(b.or_(a, z, name="y"))
        faults = all_stuck_at_faults(b.build())
        z_faults = [f for f in faults if f.node == "z"]
        assert z_faults == [Fault("z", 1)]


def _dead_input_circuit():
    """Two outputs and a primary input that reaches neither."""
    b = CircuitBuilder("dead_input")
    a, c, d, _unused = b.inputs("a", "b", "c", "unused")
    s = b.and_(a, c, name="s")
    b.output(b.or_(s, d, name="y1"))
    b.output(b.not_(s, name="y2"))
    return b.build()


class TestTestableFaults:
    @pytest.mark.parametrize(
        "build",
        [
            generators.c17,
            _dead_input_circuit,
            lambda: generators.random_dag(6, 40, seed=3),
            lambda: generators.random_dag(12, 200, seed=7, fanin_span=20),
        ],
        ids=["c17", "dead_input", "rdag40", "rdag200"],
    )
    def test_equals_the_per_output_cone_union(self, build):
        circuit = build()
        assert len(circuit.outputs) > 1
        live = set()
        for po in circuit.outputs:  # reference: one DFS per output
            stack = [po]
            while stack:
                name = stack.pop()
                if name not in live:
                    live.add(name)
                    stack.extend(circuit.node(name).fanins)
        expected = [f for f in all_stuck_at_faults(circuit) if f.node in live]
        assert testable_stuck_at_faults(circuit) == expected

    def test_dead_wires_are_dropped(self):
        faults = testable_stuck_at_faults(_dead_input_circuit())
        assert faults and not any(f.node == "unused" for f in faults)


class TestCollapsing:
    def test_and_gate_rule(self, and2):
        collapsed = collapse_faults(and2)
        cls = collapsed.class_of
        # a/0, b/0, y/0 all equivalent.
        assert cls[Fault("a", 0)] == cls[Fault("b", 0)] == cls[Fault("y", 0)]
        # a/1, b/1, y/1 all distinct.
        reps = {cls[Fault("a", 1)], cls[Fault("b", 1)], cls[Fault("y", 1)]}
        assert len(reps) == 3
        assert collapsed.size() == 4  # 6 faults → 4 classes

    def test_or_gate_rule(self, or2):
        cls = collapse_faults(or2).class_of
        assert cls[Fault("a", 1)] == cls[Fault("b", 1)] == cls[Fault("y", 1)]
        assert cls[Fault("a", 0)] != cls[Fault("b", 0)]

    def test_inverter_chain_collapses_fully(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        n1 = b.not_(a, name="n1")
        n2 = b.not_(n1, name="n2")
        b.output(n2)
        collapsed = collapse_faults(b.build())
        # 6 faults on the chain collapse to 2 classes.
        assert collapsed.size() == 2
        cls = collapsed.class_of
        assert cls[Fault("a", 0)] == cls[Fault("n1", 1)] == cls[Fault("n2", 0)]

    def test_nand_inverts_polarity(self):
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        y = b.nand(a, c, name="y")
        b.output(y)
        cls = collapse_faults(b.build()).class_of
        assert cls[Fault("a", 0)] == cls[Fault("y", 1)]

    def test_xor_no_collapse(self):
        b = CircuitBuilder("t")
        a, c = b.inputs("a", "b")
        b.output(b.xor(a, c, name="y"))
        collapsed = collapse_faults(b.build())
        assert collapsed.size() == 6  # nothing merges

    def test_fanout_blocks_collapse_through_stem(self, diamond):
        """Stem faults do not merge with branch faults structurally."""
        collapsed = collapse_faults(diamond)
        cls = collapsed.class_of
        # s stem s-a-0 is NOT merged with y/0 through q automatically;
        # the q branch fault is the one equivalent through the BUF.
        q_branch0 = Fault("s", 0, branch=("q", 0))
        assert cls[q_branch0] == cls[Fault("q", 0)]
        assert cls[Fault("s", 0)] != cls[Fault("q", 0)]

    def test_representative_is_member(self, c17):
        collapsed = collapse_faults(c17)
        for fault, rep in collapsed.class_of.items():
            assert collapsed.class_of[rep] == rep
        assert set(collapsed.representatives) == set(collapsed.class_of.values())

    def test_c17_collapse_ratio(self, c17):
        faults = all_stuck_at_faults(c17)
        collapsed = collapse_faults(c17)
        assert collapsed.size() < len(faults)
        assert collapsed.size() == 22  # classic published figure for c17


class TestCheckpointFaults:
    def test_checkpoint_theorem_holds_empirically(self):
        """A pattern set detecting all checkpoint faults detects all faults.

        Verified exhaustively on irredundant structured circuits (the
        theorem's premise — every checkpoint fault detectable — fails on
        random DAGs): a pattern subset covering the checkpoint list must
        also cover the full fault list.
        """
        from repro.circuit import generators
        from repro.sim import ExhaustiveSource, FaultSimulator, checkpoint_faults

        for circuit in (
            generators.c17(),
            generators.ripple_carry_adder(3),
            generators.mux_tree(2),
            generators.decoder(3),
            generators.equality_comparator(4),
        ):
            n = 1 << len(circuit.inputs)
            stim = ExhaustiveSource().generate(circuit.inputs, n)
            sim = FaultSimulator(circuit)
            cps = checkpoint_faults(circuit)
            cp_result = sim.run(stim, n, faults=cps)
            assert all(
                w for w in cp_result.detection_word.values()
            ), f"{circuit.name}: premise violated (redundant checkpoint)"
            full_result = sim.run(stim, n, collapse=False)
            # Build a minimal pattern set greedily covering checkpoints.
            chosen = []
            covered = set()
            for fault in cps:
                word = cp_result.detection_word[fault]
                if not word or fault in covered:
                    continue
                p = (word & -word).bit_length() - 1
                chosen.append(p)
                for other in cps:
                    if (cp_result.detection_word[other] >> p) & 1:
                        covered.add(other)
            detectable_cps = [f for f in cps if cp_result.detection_word[f]]
            assert set(detectable_cps) <= covered
            pattern_mask = 0
            for p in chosen:
                pattern_mask |= 1 << p
            # Every detectable fault in the FULL list must be hit by the
            # chosen checkpoint-covering patterns.
            for fault, word in full_result.detection_word.items():
                if word:
                    assert word & pattern_mask, fault.describe()

    def test_smaller_than_collapsed_on_fanout_free(self):
        from repro.circuit import generators
        from repro.sim import checkpoint_faults, collapse_faults

        circuit = generators.wide_and_cone(16)
        cps = checkpoint_faults(circuit)
        collapsed = collapse_faults(circuit)
        # Fanout-free AND tree: checkpoints are exactly the PI faults.
        assert len(cps) == 2 * len(circuit.inputs)
        assert len(cps) <= collapsed.size() + 2

    def test_xor_outputs_kept(self):
        from repro.circuit import generators
        from repro.sim import Fault, checkpoint_faults

        circuit = generators.parity_tree(4)
        cps = checkpoint_faults(circuit)
        gate_names = {g.name for g in circuit.gates}
        assert any(f.node in gate_names for f in cps)
