"""Region-factored fault simulation against the per-fault walk.

On the numpy kernel a fault's effect is folded up to its fanout-free
region's root from good values alone, and one flip machine per live root
(batched or walked) observes the rest of the circuit; the interpreted
kernel walks every fault's cone.  These tests hold the two to identical
detection words and first-detect indices, exact and dropping, unforced
and forced onto the batch, on circuits built to hit each corner of that
identity.
"""

from contextlib import nullcontext

import pytest

from repro.circuit import generators
from repro.circuit.analysis import fanout_free_regions
from repro.circuit.builder import CircuitBuilder
from repro.sim import FaultSimulator, all_stuck_at_faults, npsim
from repro.sim.patterns import UniformRandomSource


def _assert_matches_walk(circuit, n_patterns, seed=0, block=16):
    stim = UniformRandomSource(seed).generate(circuit.inputs, n_patterns)
    faults = all_stuck_at_faults(circuit)
    walk = FaultSimulator(circuit, kernel="interp")
    exact_ref = walk.run(stim, n_patterns, faults=faults)
    cov_ref = walk.run_coverage(stim, n_patterns, faults=faults, block=block)
    for forcing in (nullcontext, npsim.forced):
        with forcing():
            sim = FaultSimulator(circuit, kernel="numpy")
            exact = sim.run(stim, n_patterns, faults=faults)
            cov = sim.run_coverage(
                stim, n_patterns, faults=faults, block=block
            )
        assert exact.detection_word == exact_ref.detection_word
        assert exact.first_detect == exact_ref.first_detect
        assert cov.detection_word == cov_ref.detection_word
        assert cov.first_detect == cov_ref.first_detect


def _stem_on_two_pins():
    # s drives both pins 0 and 1 of g: a root, whose branch faults each
    # re-evaluate g with the other pin still good.
    b = CircuitBuilder("two_pins")
    a, c, d = b.inputs("a", "c", "d")
    s = b.nand(a, c, name="s")
    g = b.and_(s, s, d, name="g")
    b.output(b.or_(g, a, name="y"))
    return b.build()


def _input_is_output():
    # a is a primary input and a primary output, and feeds a gate.
    b = CircuitBuilder("pi_po")
    a, c = b.inputs("a", "c")
    b.output(a, b.and_(a, c, name="y"))
    return b.build()


def _fanout_one_input():
    # c and d drive one pin each: they fold into their sink's region.
    b = CircuitBuilder("fanout1_pi")
    a, c, d = b.inputs("a", "c", "d")
    g = b.nor(c, d, name="g")
    b.output(b.xor(g, a, name="y"), a)
    return b.build()


def _dead_gate():
    # A gate that drives nothing and is no output: a root whose flip is
    # never observed.
    b = CircuitBuilder("dead")
    a, c = b.inputs("a", "c")
    b.and_(a, c, name="dead")
    b.output(b.or_(a, c, name="y"))
    return b.build()


def _pass_gates():
    # NOT, BUF, XOR, XNOR and tie cells on one in-region path.
    b = CircuitBuilder("pass_gates")
    a, c, d, e = b.inputs("a", "c", "d", "e")
    n1 = b.not_(a, name="n1")
    b1 = b.buf(n1, name="b1")
    x1 = b.xor(b1, c, name="x1")
    x2 = b.xnor(x1, d, name="x2")
    k0 = b.const0(name="k0")
    k1 = b.const1(name="k1")
    o1 = b.or_(x2, k0, name="o1")
    a1 = b.and_(o1, k1, name="a1")
    b.output(b.nand(a1, e, name="y"))
    return b.build()


def _sibling_side_input():
    # Branch fault s->g.0: g folds into h, whose side input is s's other
    # branch, which the fault leaves good.
    b = CircuitBuilder("sibling")
    a, c, d, e = b.inputs("a", "c", "d", "e")
    s = b.xor(a, c, name="s")
    g = b.or_(s, d, name="g")
    h = b.and_(g, s, e, name="h")
    b.output(b.nor(h, a, name="y"))
    return b.build()


HAND_BUILT = [
    _stem_on_two_pins,
    _input_is_output,
    _fanout_one_input,
    _dead_gate,
    _pass_gates,
    _sibling_side_input,
]


@pytest.mark.parametrize("build", HAND_BUILT, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("n_patterns", [64, 200])
def test_hand_built_corners(build, n_patterns):
    _assert_matches_walk(build(), n_patterns)


@pytest.mark.parametrize("seed", range(4))
def test_random_dags(seed):
    circuit = generators.random_dag(6, 80, seed=seed)
    _assert_matches_walk(circuit, 130, seed=seed, block=32)


@pytest.mark.parametrize(
    "circuit",
    [generators.and_or_chain(300), generators.gray_to_binary(64)],
    ids=lambda c: c.name,
)
def test_single_region_chains(circuit):
    _assert_matches_walk(circuit, 192, block=64)


def test_roots_are_the_ffr_roots():
    # A gate is a root exactly when fanout_free_regions makes it one, and
    # every region member folds into its region's root; primary inputs
    # are roots unless they drive exactly one gate pin.
    circuit = generators.random_dag(6, 80, seed=5)
    up, root_of, _sinks = FaultSimulator(
        circuit, kernel="numpy"
    )._region_links()
    regions = fanout_free_regions(circuit)
    assert {r.root for r in regions} == {
        g.name for g in circuit.gates if g.name not in up
    }
    for region in regions:
        for member in region.members:
            assert root_of[member] == region.root
    outputs = set(circuit.outputs)
    for pi in circuit.inputs:
        one_pin = pi not in outputs and circuit.fanout_count(pi) == 1
        assert (pi in up) == one_pin


def test_output_roots_need_no_machine():
    # Every region root of the gray-code decoder but its top input (a
    # stem) is a primary output, whose flip is observed at every pattern:
    # its whole collapsed fault list needs one machine.
    gray = generators.gray_to_binary(64)
    stim = UniformRandomSource(1).generate(gray.inputs, 64)
    sim = FaultSimulator(gray, kernel="numpy")
    result = sim.run(stim, 64)
    assert len(result.detection_word) > 200
    assert sim.machines == 1
    # A machine per live non-output root, never more.
    dag = generators.random_dag(6, 80, seed=1)
    sim = FaultSimulator(dag, kernel="numpy")
    sim.run(UniformRandomSource(1).generate(dag.inputs, 64), 64)
    _up, root_of, _sinks = sim._region_links()
    assert 0 < sim.machines <= len(set(root_of.values()) - set(dag.outputs))
