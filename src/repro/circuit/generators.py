"""Parameterized benchmark circuit generators.

The original 1987 evaluation ran on early benchmark netlists that are not
redistributable here, so this module provides the substituted workload suite
(see DESIGN.md §4): classic textbook structures (adders, multipliers, parity
trees, multiplexers, decoders, comparators, a small ALU), seeded random
trees/DAGs with controlled shape, and deliberately **random-pattern
resistant** stress circuits (wide AND/OR cones and deep corridors) whose
faults have vanishing detection probabilities — exactly the inputs test
point insertion exists to fix.

All generators are deterministic: identical arguments (including ``seed``)
produce identical netlists.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .builder import CircuitBuilder
from .gates import GateType
from .netlist import Circuit

__all__ = [
    "c17",
    "parity_tree",
    "ripple_carry_adder",
    "array_multiplier",
    "equality_comparator",
    "magnitude_comparator",
    "mux_tree",
    "decoder",
    "alu_slice",
    "random_tree",
    "random_dag",
    "wide_and_cone",
    "wide_or_cone",
    "rpr_corridor",
    "and_or_chain",
    "rpr_mixed",
    "barrel_shifter",
    "priority_encoder",
    "popcount_tree",
    "gray_to_binary",
]

_TREE_GATE_TYPES = (
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def c17() -> Circuit:
    """The ISCAS-85 c17 circuit: 6 NAND gates, 5 inputs, 2 outputs."""
    b = CircuitBuilder("c17")
    g1, g2, g3, g6, g7 = b.inputs("G1", "G2", "G3", "G6", "G7")
    g10 = b.nand(g1, g3, name="G10")
    g11 = b.nand(g3, g6, name="G11")
    g16 = b.nand(g2, g11, name="G16")
    g19 = b.nand(g11, g7, name="G19")
    g22 = b.nand(g10, g16, name="G22")
    g23 = b.nand(g16, g19, name="G23")
    b.output(g22, g23)
    return b.build()


def parity_tree(width: int, name: Optional[str] = None) -> Circuit:
    """Balanced XOR tree computing the parity of ``width`` inputs."""
    if width < 2:
        raise ValueError("parity tree needs at least 2 inputs")
    b = CircuitBuilder(name or f"parity{width}")
    layer = b.inputs(*[f"x{i}" for i in range(width)])
    while len(layer) > 1:
        nxt: List[str] = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(b.xor(layer[i], layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    b.output(layer[0])
    return b.build()


def ripple_carry_adder(width: int, name: Optional[str] = None) -> Circuit:
    """``width``-bit ripple-carry adder (full adders from 2-input gates)."""
    if width < 1:
        raise ValueError("adder width must be positive")
    b = CircuitBuilder(name or f"rca{width}")
    a = b.inputs(*[f"a{i}" for i in range(width)])
    c = b.inputs(*[f"b{i}" for i in range(width)])
    carry = b.input("cin")
    for i in range(width):
        axb = b.xor(a[i], c[i], name=f"axb{i}")
        s = b.xor(axb, carry, name=f"sum{i}")
        t1 = b.and_(a[i], c[i], name=f"gen{i}")
        t2 = b.and_(axb, carry, name=f"prop{i}")
        carry = b.or_(t1, t2, name=f"carry{i}")
        b.output(s)
    b.output(carry)
    return b.build()


def array_multiplier(width: int, name: Optional[str] = None) -> Circuit:
    """``width``×``width`` unsigned array multiplier (AND matrix + adders)."""
    if width < 2:
        raise ValueError("multiplier width must be ≥ 2")
    b = CircuitBuilder(name or f"mult{width}")
    a = b.inputs(*[f"a{i}" for i in range(width)])
    x = b.inputs(*[f"b{i}" for i in range(width)])
    # Partial product matrix.
    pp = [[b.and_(a[i], x[j], name=f"pp{i}_{j}") for j in range(width)] for i in range(width)]
    # Column-wise carry-save reduction.
    columns: List[List[str]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(pp[i][j])
    adder_idx = 0
    for col in range(2 * width - 1):
        while len(columns[col]) > 1:
            if len(columns[col]) >= 3:
                p, q, r = columns[col][:3]
                del columns[col][:3]
                pxq = b.xor(p, q, name=f"fa{adder_idx}_x")
                s = b.xor(pxq, r, name=f"fa{adder_idx}_s")
                m1 = b.and_(p, q, name=f"fa{adder_idx}_m1")
                m2 = b.and_(pxq, r, name=f"fa{adder_idx}_m2")
                co = b.or_(m1, m2, name=f"fa{adder_idx}_c")
            else:
                p, q = columns[col][:2]
                del columns[col][:2]
                s = b.xor(p, q, name=f"ha{adder_idx}_s")
                co = b.and_(p, q, name=f"ha{adder_idx}_c")
            adder_idx += 1
            columns[col].append(s)
            columns[col + 1].append(co)
    for col in range(2 * width):
        if columns[col]:
            b.output(columns[col][0])
    return b.build()


def equality_comparator(width: int, name: Optional[str] = None) -> Circuit:
    """``width``-bit equality comparator: output 1 iff a == b.

    The wide final AND makes the output stuck-at-0 fault random-pattern
    resistant (detection probability 2^-width), a canonical TPI target.
    """
    if width < 1:
        raise ValueError("comparator width must be positive")
    b = CircuitBuilder(name or f"eqcmp{width}")
    a = b.inputs(*[f"a{i}" for i in range(width)])
    c = b.inputs(*[f"b{i}" for i in range(width)])
    eqs = [b.xnor(a[i], c[i], name=f"eq{i}") for i in range(width)]
    out = eqs[0] if width == 1 else b.and_(*eqs, name="all_eq")
    b.output(out)
    return b.build()


def magnitude_comparator(width: int, name: Optional[str] = None) -> Circuit:
    """``width``-bit magnitude comparator producing a ``gt`` output (a > b)."""
    if width < 1:
        raise ValueError("comparator width must be positive")
    b = CircuitBuilder(name or f"magcmp{width}")
    a = b.inputs(*[f"a{i}" for i in range(width)])
    c = b.inputs(*[f"b{i}" for i in range(width)])
    gt: Optional[str] = None
    # MSB-first prefix structure: gt = a_i > b_i AND all higher bits equal.
    eq_prefix: Optional[str] = None
    for i in reversed(range(width)):
        nb = b.not_(c[i], name=f"nb{i}")
        here_gt = b.and_(a[i], nb, name=f"gtbit{i}")
        if eq_prefix is not None:
            here_gt = b.and_(here_gt, eq_prefix, name=f"gtmask{i}")
        gt = here_gt if gt is None else b.or_(gt, here_gt, name=f"gtacc{i}")
        here_eq = b.xnor(a[i], c[i], name=f"eqbit{i}")
        eq_prefix = (
            here_eq if eq_prefix is None else b.and_(eq_prefix, here_eq, name=f"eqpre{i}")
        )
    b.output(gt)
    return b.build()


def mux_tree(select_bits: int, name: Optional[str] = None) -> Circuit:
    """A ``2**select_bits``-to-1 multiplexer built as a tree of 2:1 muxes."""
    if select_bits < 1:
        raise ValueError("need at least one select bit")
    b = CircuitBuilder(name or f"mux{2 ** select_bits}")
    data = b.inputs(*[f"d{i}" for i in range(2**select_bits)])
    sels = b.inputs(*[f"s{i}" for i in range(select_bits)])
    layer = data
    for lvl, sel in enumerate(sels):
        nsel = b.not_(sel, name=f"ns{lvl}")
        nxt: List[str] = []
        for i in range(0, len(layer), 2):
            lo = b.and_(layer[i], nsel, name=f"m{lvl}_{i}_lo")
            hi = b.and_(layer[i + 1], sel, name=f"m{lvl}_{i}_hi")
            nxt.append(b.or_(lo, hi, name=f"m{lvl}_{i}"))
        layer = nxt
    b.output(layer[0])
    return b.build()


def decoder(select_bits: int, name: Optional[str] = None) -> Circuit:
    """``select_bits``-to-``2**select_bits`` one-hot decoder with enable."""
    if select_bits < 1:
        raise ValueError("need at least one select bit")
    b = CircuitBuilder(name or f"dec{select_bits}")
    sels = b.inputs(*[f"s{i}" for i in range(select_bits)])
    en = b.input("en")
    nsels = [b.not_(s, name=f"ns{i}") for i, s in enumerate(sels)]
    for code in range(2**select_bits):
        terms = [sels[i] if (code >> i) & 1 else nsels[i] for i in range(select_bits)]
        b.output(b.and_(*terms, en, name=f"y{code}"))
    return b.build()


def alu_slice(width: int, name: Optional[str] = None) -> Circuit:
    """Small ALU: op-select between AND / OR / XOR / ADD of two operands.

    The shared operand fanout and the output muxes create heavy reconvergence
    — a stress input for the general-circuit (NP-hard) side of TPI.
    """
    if width < 1:
        raise ValueError("ALU width must be positive")
    b = CircuitBuilder(name or f"alu{width}")
    a = b.inputs(*[f"a{i}" for i in range(width)])
    c = b.inputs(*[f"b{i}" for i in range(width)])
    s0, s1 = b.inputs("op0", "op1")
    ns0 = b.not_(s0, name="nop0")
    ns1 = b.not_(s1, name="nop1")
    sel_and = b.and_(ns1, ns0, name="sel_and")  # op=00
    sel_or = b.and_(ns1, s0, name="sel_or")  # op=01
    sel_xor = b.and_(s1, ns0, name="sel_xor")  # op=10
    sel_add = b.and_(s1, s0, name="sel_add")  # op=11
    carry = b.const0(name="c_in")
    for i in range(width):
        f_and = b.and_(a[i], c[i], name=f"f_and{i}")
        f_or = b.or_(a[i], c[i], name=f"f_or{i}")
        f_xor = b.xor(a[i], c[i], name=f"f_xor{i}")
        f_sum = b.xor(f_xor, carry, name=f"f_sum{i}")
        m1 = b.and_(a[i], c[i], name=f"cg{i}")
        m2 = b.and_(f_xor, carry, name=f"cp{i}")
        carry = b.or_(m1, m2, name=f"cout{i}")
        t_and = b.and_(f_and, sel_and, name=f"t_and{i}")
        t_or = b.and_(f_or, sel_or, name=f"t_or{i}")
        t_xor = b.and_(f_xor, sel_xor, name=f"t_xor{i}")
        t_add = b.and_(f_sum, sel_add, name=f"t_add{i}")
        y = b.or_(t_and, t_or, t_xor, t_add, name=f"y{i}")
        b.output(y)
    b.output(carry)
    return b.build()


def random_tree(
    n_gates: int,
    seed: int = 0,
    gate_types: Sequence[GateType] = _TREE_GATE_TYPES,
    include_inverters: bool = True,
    name: Optional[str] = None,
) -> Circuit:
    """Seeded random fanout-free circuit with ``n_gates`` 2-input gates.

    Construction grows a single tree from the output downward: maintain a
    frontier of unfilled leaf slots; each step either expands a slot into a
    gate (two fresh slots) or terminates it as a primary input.  Every node
    drives exactly one pin, so the result is fanout-free by construction —
    the regime in which the paper's DP is exact.
    """
    if n_gates < 1:
        raise ValueError("need at least one gate")
    rng = random.Random(seed)
    b = CircuitBuilder(name or f"rtree{n_gates}_s{seed}")

    # Decide the tree shape first: a full binary tree with n_gates internal
    # nodes has n_gates + 1 leaves.
    gate_kinds = [rng.choice(list(gate_types)) for _ in range(n_gates)]

    leaf_idx = 0

    def grow(remaining: int) -> str:
        """Build a subtree containing exactly ``remaining`` gates."""
        nonlocal leaf_idx
        if remaining == 0:
            nm = f"x{leaf_idx}"
            leaf_idx += 1
            b.input(nm)
            if include_inverters and rng.random() < 0.2:
                return b.not_(nm)
            return nm
        left = rng.randint(0, remaining - 1)
        lhs = grow(left)
        rhs = grow(remaining - 1 - left)
        return b.gate(gate_kinds[remaining - 1], [lhs, rhs])

    root = grow(n_gates)
    b.output(root)
    return b.build()


def random_dag(
    n_inputs: int,
    n_gates: int,
    seed: int = 0,
    fanin_span: int = 12,
    n_outputs: Optional[int] = None,
    gate_types: Sequence[GateType] = _TREE_GATE_TYPES,
    name: Optional[str] = None,
) -> Circuit:
    """Seeded random DAG with reconvergent fanout.

    Gates pick two distinct drivers uniformly from the most recent
    ``fanin_span`` already-created nodes, which yields realistic locality
    and plenty of shared fanout.  Nodes left driving nothing become primary
    outputs (plus ``n_outputs`` random internal taps when requested).
    """
    if n_inputs < 2 or n_gates < 1:
        raise ValueError("need ≥2 inputs and ≥1 gate")
    rng = random.Random(seed)
    b = CircuitBuilder(name or f"rdag{n_gates}_s{seed}")
    pool = b.inputs(*[f"x{i}" for i in range(n_inputs)])
    for _ in range(n_gates):
        gt = rng.choice(list(gate_types))
        window = pool[-fanin_span:]
        lhs = rng.choice(window)
        rhs = rng.choice(window)
        if rhs == lhs and len(window) > 1:
            while rhs == lhs:
                rhs = rng.choice(window)
        pool.append(b.gate(gt, [lhs, rhs]))
    circuit = b.circuit  # inspect fanouts before validation
    sinks = [n for n in circuit.node_names if circuit.fanout_count(n) == 0]
    for s in sinks:
        circuit.mark_output(s)
    if n_outputs is not None and n_outputs > len(sinks):
        extra = [n for n in pool if n not in sinks]
        rng.shuffle(extra)
        for s in extra[: n_outputs - len(sinks)]:
            circuit.mark_output(s)
    circuit.validate()
    return circuit


def wide_and_cone(width: int, name: Optional[str] = None) -> Circuit:
    """Balanced AND tree over ``width`` inputs: 1-controllability 2^-width.

    Output stuck-at-0 and every "all the rest at 1" excitation make this the
    canonical random-pattern-resistant structure for control points.
    """
    if width < 2:
        raise ValueError("cone width must be ≥ 2")
    b = CircuitBuilder(name or f"wand{width}")
    layer = b.inputs(*[f"x{i}" for i in range(width)])
    tier = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(b.and_(layer[i], layer[i + 1], name=f"a{tier}_{i // 2}"))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        tier += 1
    b.output(layer[0])
    return b.build()


def wide_or_cone(width: int, name: Optional[str] = None) -> Circuit:
    """Balanced OR tree over ``width`` inputs: 0-controllability 2^-width."""
    if width < 2:
        raise ValueError("cone width must be ≥ 2")
    b = CircuitBuilder(name or f"wor{width}")
    layer = b.inputs(*[f"x{i}" for i in range(width)])
    tier = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(b.or_(layer[i], layer[i + 1], name=f"o{tier}_{i // 2}"))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        tier += 1
    b.output(layer[0])
    return b.build()


def rpr_corridor(length: int, name: Optional[str] = None) -> Circuit:
    """A low-observability corridor: a chain of ANDs gated by side inputs.

    A fault entering the head of the chain only propagates when *every*
    side input is 1 (probability 2^-length) — the canonical observation
    point target.
    """
    if length < 1:
        raise ValueError("corridor length must be positive")
    b = CircuitBuilder(name or f"corridor{length}")
    head = b.input("head")
    cur = head
    for i in range(length):
        side = b.input(f"g{i}")
        cur = b.and_(cur, side, name=f"c{i}")
    b.output(cur)
    return b.build()


def and_or_chain(gates: int, name: Optional[str] = None) -> Circuit:
    """Alternating AND/OR chain: each gate takes the chain and a fresh input.

    One gate per level, ``gates`` levels deep — the deep, narrow extreme
    of circuit shape (deeper than Python's recursion limit at 1500 gates).
    """
    if gates < 1:
        raise ValueError("chain length must be positive")
    b = CircuitBuilder(name or f"chain{gates}")
    acc = b.input("x0")
    for i in range(gates):
        kind = GateType.AND if i % 2 == 0 else GateType.OR
        acc = b.gate(kind, [acc, b.input(f"x{i + 1}")], name=f"g{i}")
    b.output(acc)
    return b.build()


def rpr_mixed(
    cone_width: int = 8,
    corridor_length: int = 6,
    n_blocks: int = 2,
    seed: int = 0,
    name: Optional[str] = None,
) -> Circuit:
    """Composite random-pattern-resistant benchmark.

    Each block ANDs a wide cone into a low-observability corridor and the
    blocks are XOR-combined, so both controllability *and* observability
    deficiencies are present, distributed across the netlist.  This is the
    headline workload for the coverage experiments (T4/F1/F3).
    """
    rng = random.Random(seed)
    b = CircuitBuilder(name or f"rprmix_w{cone_width}_l{corridor_length}_n{n_blocks}")
    block_outs: List[str] = []
    for blk in range(n_blocks):
        layer = b.inputs(*[f"p{blk}_{i}" for i in range(cone_width)])
        tier = 0
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                gt = GateType.AND if rng.random() < 0.8 else GateType.NAND
                nxt.append(b.gate(gt, [layer[i], layer[i + 1]], name=f"b{blk}_t{tier}_{i // 2}"))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
            tier += 1
        cur = layer[0]
        for i in range(corridor_length):
            side = b.input(f"q{blk}_{i}")
            cur = b.and_(cur, side, name=f"b{blk}_c{i}")
        block_outs.append(cur)
    out = block_outs[0]
    for i, nxt_block in enumerate(block_outs[1:]):
        out = b.xor(out, nxt_block, name=f"mix{i}")
    b.output(out)
    # A couple of directly observable escapes keep baseline coverage nonzero.
    easy = b.or_(f"p0_0", f"p0_1", name="easy_or")
    b.output(easy)
    return b.build()


def barrel_shifter(width_log2: int, name: Optional[str] = None) -> Circuit:
    """Logarithmic barrel shifter: ``2**width_log2`` data bits, left-rotate.

    Each stage conditionally rotates by ``2**stage`` under one select bit;
    the layered mux structure creates long reconvergent select fanout —
    a classic controllability stress for TPI.
    """
    if width_log2 < 1:
        raise ValueError("need at least one shift stage")
    width = 1 << width_log2
    b = CircuitBuilder(name or f"bshift{width}")
    data = b.inputs(*[f"d{i}" for i in range(width)])
    sels = b.inputs(*[f"s{i}" for i in range(width_log2)])
    layer = data
    for stage, sel in enumerate(sels):
        nsel = b.not_(sel, name=f"ns{stage}")
        shift = 1 << stage
        nxt: List[str] = []
        for i in range(width):
            keep = b.and_(layer[i], nsel, name=f"k{stage}_{i}")
            take = b.and_(layer[(i - shift) % width], sel, name=f"t{stage}_{i}")
            nxt.append(b.or_(keep, take, name=f"m{stage}_{i}"))
        layer = nxt
    for i, sig in enumerate(layer):
        b.output(sig)
    return b.build()


def priority_encoder(width: int, name: Optional[str] = None) -> Circuit:
    """``width``-input priority encoder: one-hot grant to the lowest index.

    ``grant_i = req_i AND NOT(req_0 OR … OR req_{i-1})``; the request
    prefix chain gives low-observability deep requests — observation-point
    bait in the TPI experiments.
    """
    if width < 2:
        raise ValueError("need at least two request lines")
    b = CircuitBuilder(name or f"prio{width}")
    reqs = b.inputs(*[f"r{i}" for i in range(width)])
    b.output(b.buf(reqs[0], name="g0"))
    blocked = reqs[0]
    for i in range(1, width):
        nb = b.not_(blocked, name=f"nb{i}")
        b.output(b.and_(reqs[i], nb, name=f"g{i}"))
        if i < width - 1:
            blocked = b.or_(blocked, reqs[i], name=f"pre{i}")
    return b.build()


def popcount_tree(width: int, name: Optional[str] = None) -> Circuit:
    """Population counter: sum of ``width`` input bits as a binary number.

    Built from full/half adders in a carry-save tree — an arithmetic
    workload with heavy XOR content (no controlling values to exploit).
    """
    if width < 2:
        raise ValueError("need at least two bits to count")
    b = CircuitBuilder(name or f"popcnt{width}")
    ins = b.inputs(*[f"x{i}" for i in range(width)])
    columns: List[List[str]] = [list(ins)]
    idx = 0
    col = 0
    while col < len(columns):
        while len(columns[col]) > 1:
            if len(columns) == col + 1:
                columns.append([])
            if len(columns[col]) >= 3:
                p, q, r = columns[col][:3]
                del columns[col][:3]
                pxq = b.xor(p, q, name=f"pc{idx}_x")
                s = b.xor(pxq, r, name=f"pc{idx}_s")
                m1 = b.and_(p, q, name=f"pc{idx}_m1")
                m2 = b.and_(pxq, r, name=f"pc{idx}_m2")
                carry = b.or_(m1, m2, name=f"pc{idx}_c")
            else:
                p, q = columns[col][:2]
                del columns[col][:2]
                s = b.xor(p, q, name=f"pc{idx}_s")
                carry = b.and_(p, q, name=f"pc{idx}_c")
            idx += 1
            columns[col].append(s)
            columns[col + 1].append(carry)
        col += 1
    for col_bits in columns:
        if col_bits:
            b.output(col_bits[0])
    return b.build()


def gray_to_binary(width: int, name: Optional[str] = None) -> Circuit:
    """Gray-code to binary converter: ``b_i = g_i XOR b_{i+1}``.

    A pure XOR chain — every fault is random-pattern easy, making it the
    control group for the RPR experiments.
    """
    if width < 2:
        raise ValueError("need at least two bits")
    b = CircuitBuilder(name or f"gray{width}")
    grays = b.inputs(*[f"g{i}" for i in range(width)])
    prev = grays[width - 1]
    b.output(b.buf(prev, name=f"b{width - 1}"))
    for i in reversed(range(width - 1)):
        prev = b.xor(grays[i], prev, name=f"b{i}")
        b.output(prev)
    return b.build()
