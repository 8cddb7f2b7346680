"""Unit tests for topology analysis: FFRs, reconvergence, tree checks."""

import pytest

from repro.circuit import (
    CircuitBuilder,
    fanout_free_regions,
    generators,
    has_reconvergent_fanout,
    is_fanout_free,
    reconvergent_stems,
)


class TestFanoutFree:
    def test_tree_is_fanout_free(self):
        assert is_fanout_free(generators.random_tree(20, seed=1))

    def test_parity_tree_is_fanout_free(self):
        assert is_fanout_free(generators.parity_tree(16))

    def test_c17_is_not(self, c17):
        assert not is_fanout_free(c17)

    def test_diamond_is_not(self, diamond):
        assert not is_fanout_free(diamond)


class TestReconvergence:
    def test_diamond_reconverges(self, diamond):
        assert has_reconvergent_fanout(diamond)
        assert "s" in reconvergent_stems(diamond)

    def test_tree_does_not(self):
        c = generators.random_tree(30, seed=5)
        assert reconvergent_stems(c) == []

    def test_non_reconvergent_fanout(self):
        # A stem whose branches never meet again is fanout, not reconvergence.
        b = CircuitBuilder("t")
        a, c, d = b.inputs("a", "b", "c")
        s = b.and_(a, c, name="s")
        y1 = b.not_(s, name="y1")
        y2 = b.and_(s, d, name="y2")
        b.output(y1, y2)
        circuit = b.build()
        assert not is_fanout_free(circuit)
        assert not has_reconvergent_fanout(circuit)

    def test_c17_reconverges(self, c17):
        stems = reconvergent_stems(c17)
        assert "G11" in stems or "G16" in stems  # known c17 structure


def _per_branch_reconvergent_stems(circuit):
    """The definition: some node lies in the fanout cones of two
    distinct branches of the stem."""
    stems = []
    for name in circuit.topological_order():
        cones = [circuit.fanout_cone(sink) for sink, _ in circuit.fanouts(name)]
        if any(
            cones[i] & cones[j]
            for i in range(len(cones))
            for j in range(i + 1, len(cones))
        ):
            stems.append(name)
    return stems


class TestReconvergenceMatchesDefinition:
    def test_c17(self, c17):
        assert reconvergent_stems(c17) == _per_branch_reconvergent_stems(c17)

    def test_stem_driving_two_pins_of_one_gate(self):
        b = CircuitBuilder("pins")
        a, c = b.inputs("a", "b")
        s = b.not_(a, name="s")
        y = b.and_(s, s, name="y")
        z = b.or_(c, y, name="z")
        b.output(z)
        circuit = b.build()
        assert reconvergent_stems(circuit) == ["s"]
        assert reconvergent_stems(circuit) == (
            _per_branch_reconvergent_stems(circuit)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_dags(self, seed):
        circuit = generators.random_dag(8, 120, seed=seed, fanin_span=20)
        assert reconvergent_stems(circuit) == (
            _per_branch_reconvergent_stems(circuit)
        )


class TestFFRDecomposition:
    def test_partition_property(self):
        """Every gate belongs to exactly one region."""
        for make in (generators.c17, lambda: generators.random_dag(10, 80, seed=3)):
            circuit = make()
            regions = fanout_free_regions(circuit)
            seen = {}
            for idx, region in enumerate(regions):
                for m in region.members:
                    assert m not in seen, f"{m} in two regions"
                    seen[m] = idx
            gate_names = {g.name for g in circuit.gates}
            assert set(seen) == gate_names

    def test_roots_are_stems_or_outputs(self):
        circuit = generators.random_dag(10, 80, seed=3)
        out_set = set(circuit.outputs)
        for region in fanout_free_regions(circuit):
            assert (
                region.root in out_set
                or circuit.fanout_count(region.root) != 1
            )

    def test_internal_members_have_single_fanout(self):
        circuit = generators.c17()
        for region in fanout_free_regions(circuit):
            for m in region.members:
                if m != region.root:
                    assert circuit.fanout_count(m) == 1

    def test_leaves_are_boundary(self):
        circuit = generators.c17()
        for region in fanout_free_regions(circuit):
            for leaf in region.leaves:
                node = circuit.node(leaf)
                assert node.is_input or leaf not in region.members

    def test_tree_gives_one_region_per_output(self):
        circuit = generators.parity_tree(8)
        regions = fanout_free_regions(circuit)
        assert len(regions) == 1
        assert regions[0].root == circuit.outputs[0]
        assert regions[0].size() == circuit.gate_count()

    def test_region_size_helper(self):
        region = fanout_free_regions(generators.parity_tree(4))[0]
        assert region.size() == len(region.members)
