"""Word-parallel numpy simulation engine (the ``numpy`` backend).

The interpreted simulator packs all patterns of one signal into a Python
bignum, whose limbs are 30-bit CPython digits, and dispatches on the gate
type at every visited gate.  This module packs each signal into a
little-endian ``(n_words,)`` ``uint64`` ndarray instead (see
:func:`words_to_rows` for the layout) and evaluates each *group* of
same-shaped gates as a handful of vectorized ufunc calls — 64-bit
limbs, SIMD inner loops, no per-gate allocation.

Plans
-----
For each circuit the backend builds a :class:`CircuitPlan`: index arrays
that group the gates of each logic level by ``(gate_type, fan-in arity)``
so one group becomes one gather / fold / scatter sequence.  Node rows are
assigned group-major, so every group's outputs are a contiguous slice of
the value matrix.  Plans live in a process-wide LRU registry keyed by
:meth:`~repro.circuit.netlist.Circuit.structural_hash` (a netlist rewrite
can never be served stale index arrays), and are cheap enough to rebuild
in parallel workers (no pickled payload needed).

Two passes share the plan:

* **fault** — the batched sweep of flip machines
  (:func:`propagate_batch`): one machine per live fanout-free region
  root of a fault block, for blocks whose machines
  :func:`fault_batch_declined` accepts; every other block walks its
  root machines on the interpreter.  Its good machine is the
  interpreted :class:`~repro.sim.logic_sim.LogicSimulator`'s int words,
  packed into a :class:`PackedState` in one bulk conversion;
* **placement** — the placement-aware forward+backward pass of
  :func:`repro.core.virtual.evaluate_placement`, with the (few) control/
  observe-site fixups applied as scalar patches between level sweeps.

Bit-identity
------------
The uint64 folds keep every row invariantly masked (every primary input
and every folded gate yields a value within the pattern mask), so
AND/OR/XOR need no re-masking and an inversion is one xor with the mask
— exactly the integers :func:`repro.circuit.gates.evaluate_gate`
produces.

The float folds mirror :func:`~repro.circuit.gates.output_probability`,
:func:`~repro.circuit.gates.side_input_sensitization_probability` and the
COP stem escape fold *operation for operation, in the same order*.  The only
algebraic simplifications are dropping a leading ``1.0 *`` factor
(IEEE-exact for every float) and the first XOR fold from ``0.0`` (exact up
to the sign of zero, which compares equal and cannot change any
downstream magnitude).  numpy's float64 ufuncs apply IEEE-754 arithmetic
per element, so elementwise op-order equality implies bit-identical
results, and the property/fuzz suites pin this backend to the
interpreted ground truth.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from .bitops import ones_mask, word_count

__all__ = [
    "BATCH_CHUNK_BYTES",
    "BATCH_MAX_WORDS",
    "BATCH_MIN_FAULTS",
    "DELTA_MIN_MEAN_WIDTH",
    "GAIN_BATCH_BYTES",
    "CircuitPlan",
    "PackedState",
    "PlacementBatch",
    "batch_capacity",
    "batch_staging_rows",
    "fault_batch_declined",
    "forced",
    "gain_batch_columns",
    "get_plan",
    "clear_plans",
    "placement_batch_declined",
    "plan_registry_size",
    "mask_array",
    "propagate_batch",
    "rows_to_words",
    "words_to_rows",
]


_AND_TYPES = (GateType.AND, GateType.NAND)
_OR_TYPES = (GateType.OR, GateType.NOR)
_XOR_TYPES = (GateType.XOR, GateType.XNOR)
_INVERT_TYPES = (GateType.NAND, GateType.NOR, GateType.XNOR)

_ALL_ONES = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Pattern masks
# ---------------------------------------------------------------------------

#: n_patterns -> read-only uint64 mask array (full words + partial last).
_MASKS: Dict[int, "np.ndarray"] = {}
_MASKS_CAP = 256


def mask_array(n_patterns: int):
    """Read-only uint64 mask with the low ``n_patterns`` bits set."""
    arr = _MASKS.get(n_patterns)
    if arr is None:
        n_words = word_count(n_patterns)
        arr = np.full(n_words, _ALL_ONES, dtype=np.uint64)
        rem = n_patterns & 63
        if rem:
            arr[-1] = np.uint64((1 << rem) - 1)
        arr.setflags(write=False)
        if len(_MASKS) >= _MASKS_CAP:
            _MASKS.clear()
        _MASKS[n_patterns] = arr
    return arr


# ---------------------------------------------------------------------------
# Word-level group evaluation (uint64)
# ---------------------------------------------------------------------------


def _eval_word_group(gate_type, arity, fanin_rows, V, out, mask) -> None:
    """Evaluate one (gate_type, arity) group of gates into ``out``.

    ``fanin_rows`` is an ``(n_gates, arity)`` index matrix into ``V``;
    ``out`` is the group's contiguous output slice of ``V``.  Folds mirror
    :func:`~repro.circuit.gates.evaluate_gate` (all rows invariantly
    masked, inversions are one xor with the mask array).

    Single-gate groups skip the gather: a chain-shaped circuit (one gate
    per level) otherwise pays an advanced-indexing copy of every fan-in
    row per level, which dominates deep-circuit sweeps.
    """
    if len(fanin_rows) == 1 and gate_type is not GateType.CONST0 \
            and gate_type is not GateType.CONST1:
        _eval_word_rows(
            gate_type, [V[int(r)] for r in fanin_rows[0]], out[0], mask
        )
        return
    if gate_type is GateType.CONST0:
        out[:] = 0
        return
    if gate_type is GateType.CONST1:
        out[:] = mask
        return
    out[:] = V[fanin_rows[:, 0]]
    if gate_type is GateType.BUF:
        return
    if gate_type is GateType.NOT:
        np.bitwise_xor(out, mask, out=out)
        return
    if gate_type in _AND_TYPES:
        op = np.bitwise_and
    elif gate_type in _OR_TYPES:
        op = np.bitwise_or
    else:
        op = np.bitwise_xor
    for k in range(1, arity):
        op(out, V[fanin_rows[:, k]], out=out)
    if gate_type in _INVERT_TYPES:
        np.bitwise_xor(out, mask, out=out)


def _eval_word_rows(gate_type, rows, out, mask) -> None:
    """Evaluate one gate on explicit fan-in row vectors into ``out``."""
    if gate_type is GateType.CONST0:
        out[:] = 0
        return
    if gate_type is GateType.CONST1:
        out[:] = mask
        return
    if gate_type is GateType.BUF:
        out[:] = rows[0]
        return
    if gate_type is GateType.NOT:
        np.bitwise_xor(rows[0], mask, out=out)
        return
    if gate_type in _AND_TYPES:
        op = np.bitwise_and
    elif gate_type in _OR_TYPES:
        op = np.bitwise_or
    else:
        op = np.bitwise_xor
    if len(rows) == 1:
        out[:] = rows[0]
    else:
        op(rows[0], rows[1], out=out)
        for r in rows[2:]:
            op(out, r, out=out)
    if gate_type in _INVERT_TYPES:
        np.bitwise_xor(out, mask, out=out)


# ---------------------------------------------------------------------------
# Probability group evaluation (float64)
# ---------------------------------------------------------------------------
# Fold orders replay output_probability exactly; the only simplification
# is dropping the leading ``1.0 *`` / first-XOR-from-``0.0`` identities
# (IEEE-exact — see the module docstring).


def _eval_prob_group(gate_type, arity, cols, out) -> None:
    """``out[g]`` = P[gate g = 1] from the gathered fan-in columns.

    ``cols`` is ``(n_gates, arity)`` float64, gathered from the branch-post
    values of the gates' in-edges.
    """
    if gate_type is GateType.CONST0:
        out[:] = 0.0
        return
    if gate_type is GateType.CONST1:
        out[:] = 1.0
        return
    if gate_type is GateType.BUF:
        out[:] = cols[:, 0]
        return
    if gate_type is GateType.NOT:
        np.subtract(1.0, cols[:, 0], out=out)
        return
    if gate_type in _AND_TYPES:
        out[:] = cols[:, 0]
        for k in range(1, arity):
            np.multiply(out, cols[:, k], out=out)
        if gate_type is GateType.NAND:
            np.subtract(1.0, out, out=out)
        return
    if gate_type in _OR_TYPES:
        np.subtract(1.0, cols[:, 0], out=out)
        for k in range(1, arity):
            out *= 1.0 - cols[:, k]
        if gate_type is GateType.OR:
            np.subtract(1.0, out, out=out)
        return
    # XOR / XNOR: pairwise p ⊕ q = p(1-q) + q(1-p), in fan-in order.
    out[:] = cols[:, 0]
    for k in range(1, arity):
        q = cols[:, k]
        np.add(out * (1.0 - q), q * (1.0 - out), out=out)
    if gate_type is GateType.XNOR:
        np.subtract(1.0, out, out=out)


def _sens_fold(kind: str, side_cols) -> "np.ndarray":
    """Side-input sensitization product per edge (complete before use).

    ``side_cols`` is ``(n_edges, n_side)``; mirrors
    :func:`~repro.circuit.gates.side_input_sensitization_probability`.
    """
    if kind == "one":
        raise AssertionError("'one' edges have no sensitization fold")
    if kind == "and":
        sens = side_cols[:, 0].copy()
        for k in range(1, side_cols.shape[1]):
            np.multiply(sens, side_cols[:, k], out=sens)
        return sens
    sens = 1.0 - side_cols[:, 0]
    for k in range(1, side_cols.shape[1]):
        sens *= 1.0 - side_cols[:, k]
    return sens


# ---------------------------------------------------------------------------
# Placement level sweeps (shared by the full pass and the delta batch)
# ---------------------------------------------------------------------------
# The arrays are ``(n,)`` for one placement or ``(n, C)`` for a column
# batch of C placements; every formula is elementwise, so a column holds
# exactly the floats a one-placement sweep would.  Control sites are
# ``(position, index, kind)`` fixes: ``position`` is the row or edge id,
# ``index`` what to write (the same id for a site every column shares, a
# ``(row, column)`` pair for one column's own site).  A branch fix
# transforms ``T`` in place, so fixes of one site never stack: a column
# that lifts or changes a shared control sweeps with its own fix list.


def _forward_level(plan, entry, Q, S, T, s_fix, e_fix, cpt) -> None:
    """Recompute one level of the placement forward pass in place.

    ``Q`` / ``S`` hold node probabilities before / after stem control
    points, ``T`` the branch-post values; ``s_fix`` / ``e_fix`` are the
    stem / branch control fixes (those outside the level are skipped).
    """
    for gi in entry.fwd_groups:
        gate_type, arity, lo, hi, _f = plan.logic_groups[gi]
        in_edges = plan.place_in_edges[gi]
        cols = (
            T[in_edges]
            if in_edges is not None
            else np.empty((hi - lo, 0) + T.shape[1:], dtype=np.float64)
        )
        _eval_prob_group(gate_type, arity, cols, Q[lo:hi])
    nlo, nhi = entry.node_lo, entry.node_hi
    S[nlo:nhi] = Q[nlo:nhi]
    for r, idx, ctl in s_fix:
        if nlo <= r < nhi:
            S[idx] = cpt(ctl, Q[idx])
    elo, ehi = entry.edge_lo, entry.edge_hi
    if ehi > elo:
        T[elo:ehi] = S[plan.edge_driver_rows[elo:ehi]]
        for e, idx, ctl in e_fix:
            if elo <= e < ehi:
                T[idx] = cpt(ctl, T[idx])


def _backward_level(
    entry, fold, T, WO, PO, OB, Fs, Zms, Fe, Zme, s_fix=(), e_fix=()
) -> None:
    """Recompute one level of the placement backward pass in place.

    ``fold`` is the level's stem escape fold
    (:meth:`CircuitPlan.stem_folds`).
    ``Fs``/``Zms``/``Fe``/``Zme`` are the stem and edge control factors
    and observation zero-multipliers (1.0 where no point sits, so the
    sweeps stay branch-free yet reproduce the interpreter's ``f * x`` and
    ``z * (1.0 - 1.0)``); batches pass them as ``(n, 1)`` columns.
    ``s_fix`` / ``e_fix`` are ``(row or edge, column, factor,
    zero_multiplier)`` overrides for a batch column's own sites.
    """
    for grp in entry.edge_groups:
        lo, hi = grp.lo, grp.hi
        if grp.kind == "one":
            x = WO[grp.sink_rows] * 1.0
        else:
            x = WO[grp.sink_rows] * _sens_fold(grp.kind, T[grp.side_edges])
        z = 1.0 - Fe[lo:hi] * x
        z *= Zme[lo:hi]
        np.subtract(1.0, z, out=OB[lo:hi])
        for e, k, f, zm in e_fix:
            if lo <= e < hi:
                OB[e, k] = 1.0 - (1.0 - f * float(x[e - lo, k])) * zm
    # Stem escape folds, one reduceat segment per stem: each segment is
    # multiplied left to right, the interpreter's order (its leading
    # ``1.0 *`` is exact).  An output's escape starts at 1.0 - 1.0, and
    # zero times finite non-negative factors is 0.0, so its observability
    # is exactly 1.0; a stem with no branches that is no output gets 0.0.
    edges, starts, rows, out_rows, dead_rows = fold
    if len(rows):
        esc = np.multiply.reduceat(1.0 - OB[edges], starts, axis=0)
        PO[rows] = 1.0 - esc
    PO[out_rows] = 1.0
    PO[dead_rows] = 0.0
    nlo, nhi = entry.node_lo, entry.node_hi
    z2 = 1.0 - Fs[nlo:nhi] * PO[nlo:nhi]
    z2 *= Zms[nlo:nhi]
    np.subtract(1.0, z2, out=WO[nlo:nhi])
    for r, k, f, zm in s_fix:
        if nlo <= r < nhi:
            WO[r, k] = 1.0 - (1.0 - f * float(PO[r, k])) * zm


# ---------------------------------------------------------------------------
# Packed good-machine state
# ---------------------------------------------------------------------------


class PackedState:
    """The fault batch's good machine as a ``(n_rows, n_words)`` matrix.

    Packs the interpreted walk's node → int-word mapping into plan row
    order in one bulk conversion (:func:`words_to_rows`); the matrix is
    read-only, and :func:`propagate_batch` reads its rows directly.
    """

    def __init__(
        self, plan: "CircuitPlan", good_values: Mapping[str, int],
        n_patterns: int,
    ) -> None:
        self.plan = plan
        self.values = words_to_rows(
            [good_values[name] for name in plan._row_names], n_patterns
        )
        self.mask = mask_array(n_patterns)


# ---------------------------------------------------------------------------
# Batched fault-parallel propagation
# ---------------------------------------------------------------------------

#: Memory budget (bytes) for one batched value cube; chunks are sized so a
#: chunk's ``n_rows × B × n_words`` uint64 matrix — plus its staging
#: rows, see :func:`batch_staging_rows` — stays inside it.  Larger budgets
#: buy little throughput: past a few MiB each ufunc call already spans
#: enough fault machines, while the cube's pages count fully toward the
#: process's peak RSS.
BATCH_CHUNK_BYTES = 6 << 20

#: Fewest root machines a block needs for the batch: below it the
#: sweep's fixed cost (one grouped full-circuit pass) is not worth
#: amortizing.
BATCH_MIN_FAULTS = 16

#: Widest block (64-pattern words) the batch takes.  The sweep
#: re-evaluates every gate below a chunk's first flipped row for every
#: machine and every word, so its edge over the interpreted walk shrinks
#: as words grow (DESIGN.md §14 has the measured regimes).
BATCH_MAX_WORDS = 64


def batch_staging_rows(plan: "CircuitPlan") -> int:
    """Row-equivalents of per-chunk scratch beyond the value cube itself.

    Besides the ``(n_rows, B, n_words)`` cube, a batched chunk holds
    the primary-output staging block used to diff faulty outputs against
    the good matrix (``n_po`` row-equivalents — the diff is computed in
    place on the staged copy, so the block is charged once) plus O(1)
    rows for the stacked forced values, the tiled pattern mask, and the
    per-chunk detection reduction.  :func:`batch_capacity` charges these
    against the memory budget so a chunk's true footprint stays inside
    ``chunk_bytes``; counting only the faulty cube (as earlier revisions
    did) let wide-output circuits overshoot the budget by up to 2x.
    """
    return len(plan.outputs) + 3


def batch_capacity(
    plan: "CircuitPlan",
    n_patterns: int,
    chunk_bytes: int = BATCH_CHUNK_BYTES,
) -> int:
    """Fault machines one batched chunk can hold under the memory budget.

    Charges the full chunk footprint — value cube plus staging rows (see
    :func:`batch_staging_rows`) — at the block's full word width.
    """
    rows = plan.n_rows + batch_staging_rows(plan)
    return chunk_bytes // (8 * rows * word_count(n_patterns))


def rows_to_words(matrix) -> List[int]:
    """Packed int word of every row of a 2D uint64 matrix (bulk bridge)."""
    n_rows, n_words = matrix.shape
    raw = matrix.tobytes()
    stride = 8 * n_words
    return [
        int.from_bytes(raw[i * stride : (i + 1) * stride], "little")
        for i in range(n_rows)
    ]


def words_to_rows(words: Sequence[int], n_patterns: int):
    """Read-only ``(len(words), n_words)`` uint64 matrix of int words.

    The inverse of :func:`rows_to_words`: one ``to_bytes`` per word
    (masked to ``n_patterns`` bits), one join, one ``frombuffer``.  Row
    ``i`` holds pattern ``p`` of ``words[i]`` in bit ``p % 64`` of
    element ``p // 64``; ints and ``uint64`` arrays are both
    little-endian over bytes, so the conversion is a byte copy.
    """
    mask = ones_mask(n_patterns)
    n_words = word_count(n_patterns)
    raw = b"".join((w & mask).to_bytes(8 * n_words, "little") for w in words)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(words), n_words)


def propagate_batch(
    state: PackedState,
    roots: Sequence[int],
    chunk_bytes: int = BATCH_CHUNK_BYTES,
) -> Tuple["np.ndarray", int]:
    """Flip many nodes through the whole circuit at once.

    ``roots`` lists the plan rows of the flip machines: machine ``i``
    pins row ``roots[i]`` to its good value complemented at every
    pattern, which is how :class:`~repro.sim.fault_sim.FaultSimulator`
    observes a fanout-free region's root (a fault inside the region
    reaches the rest of the circuit only by flipping that root).

    Where the interpreted walk visits one machine's cone gate by gate,
    this pass stacks ``B`` machines into a ``(n_rows, B, n_words)`` cube
    and re-runs the *grouped* full-circuit sweep on it, so each ufunc
    call covers ``group × B`` gate evaluations.  Every gate outside a
    machine's cone recomputes its good value from good fan-ins, and the
    flipped row is re-pinned after its group evaluates, so each column
    reproduces exactly the machine the walk would build.  The win is
    dispatch amortization: per-machine work inflates by roughly
    ``n_gates / mean(|cone|)``, but thousands of Python-level gate steps
    collapse into one sweep of a few hundred array calls.

    Chunks are capped by ``chunk_bytes`` (cube plus staging rows — see
    :func:`batch_capacity`; at least one machine per chunk) and machines
    are processed in ascending row order: every row below a chunk's first
    flipped row is provably unchanged, so it is block-copied from the
    good matrix instead of re-evaluated.  One cube buffer and one staging
    buffer are allocated per call, sized for the first (widest) chunk;
    every chunk runs on a contiguous prefix view of them, so no two cubes
    are ever resident at once.

    Returns ``(detect, gate_evals)`` — a ``(len(roots), n_words)`` uint64
    detection matrix in input order (row ``i`` packs, per pattern,
    whether flipping ``roots[i]`` flips any primary output), and the
    number of gate-machine evaluations performed.
    """
    plan = state.plan
    V = state.values
    n_words = V.shape[1]
    mask = state.mask
    n_rows = plan.n_rows
    n_in = len(plan.inputs)
    n_sites = len(roots)
    rows = np.asarray(roots, dtype=np.intp).reshape(n_sites)
    order = np.argsort(rows, kind="stable")
    po_rows = np.fromiter(
        (r for _, r in plan.output_rows),
        dtype=np.intp,
        count=len(plan.output_rows),
    )
    n_po = len(po_rows)
    # When the output rows form one contiguous band (common: a levelized
    # plan puts late-level gates last), the staged diff can read the cube
    # through a slice view instead of a fancy-index gather.
    po_lo = int(po_rows.min()) if n_po else 0
    po_contiguous = bool(
        n_po and np.array_equal(po_rows, np.arange(po_lo, po_lo + n_po))
    )
    good_po = np.ascontiguousarray(V[po_rows])
    detect = np.zeros((n_sites, n_words), dtype=np.uint64)
    capacity = max(
        1, chunk_bytes // (8 * (n_rows + batch_staging_rows(plan)) * n_words)
    )
    gate_evals = 0
    widest = min(capacity, n_sites)
    cube_buf = np.empty(n_rows * widest * n_words, dtype=np.uint64)
    staged_buf = np.empty(n_po * widest * n_words, dtype=np.uint64)
    for c0 in range(0, n_sites, capacity):
        chunk = order[c0 : c0 + capacity]
        B = len(chunk)
        site_rows = rows[chunk]
        forced = V[site_rows] ^ mask
        # Rows below the chunk's first site carry no fault effect; copy.
        copy_to = max(n_in, int(site_rows[0]))
        bidx = np.arange(B)
        n_pre = int(np.searchsorted(site_rows, copy_to, side="left"))
        # Chunk sites are sorted by row, so the machines a logic group
        # must re-pin form a contiguous slice: two binary searches per
        # group here replace two full boolean passes per group.
        group_lo = np.fromiter(
            (max(g[2], copy_to) for g in plan.logic_groups),
            dtype=np.intp,
            count=len(plan.logic_groups),
        )
        group_hi = np.fromiter(
            (g[3] for g in plan.logic_groups),
            dtype=np.intp,
            count=len(plan.logic_groups),
        )
        bounds_lo = np.searchsorted(site_rows, group_lo, side="left")
        bounds_hi = np.searchsorted(site_rows, group_hi, side="left")
        flat = cube_buf[: n_rows * B * n_words].reshape(n_rows, B * n_words)
        cube = flat.reshape(n_rows, B, n_words)
        cube[:copy_to] = V[:copy_to, None]
        if n_pre:
            cube[site_rows[:n_pre], bidx[:n_pre]] = forced[:n_pre]
        # The flat 2D view evaluates with simple strides; the pattern
        # mask tiles across fault machines (the cube's inner axis is the
        # block's words).
        flat_mask = mask if n_words == 1 else np.tile(mask, B)
        for group, (gate_type, arity, lo, hi, fanin_rows) in enumerate(
            plan.logic_groups
        ):
            if hi <= copy_to:
                continue
            lo_eff = max(lo, copy_to)
            _eval_word_group(
                gate_type,
                arity,
                fanin_rows[lo_eff - lo :],
                flat,
                flat[lo_eff:hi],
                flat_mask,
            )
            p0, p1 = int(bounds_lo[group]), int(bounds_hi[group])
            if p1 > p0:
                cube[site_rows[p0:p1], bidx[p0:p1]] = forced[p0:p1]
        # Diff faulty outputs against the good matrix in place on one
        # staged copy (charged in batch_staging_rows), then OR-reduce
        # into the detection matrix.
        st = staged_buf[: n_po * B * n_words].reshape(n_po, B, n_words)
        if po_contiguous:
            np.bitwise_xor(
                cube[po_lo : po_lo + n_po], good_po[:, None], out=st
            )
        else:
            np.take(cube, po_rows, axis=0, out=st)
            np.bitwise_xor(st, good_po[:, None], out=st)
        detect[chunk] = np.bitwise_or.reduce(st, axis=0)
        gate_evals += (n_rows - copy_to) * B
    return detect, gate_evals


# ---------------------------------------------------------------------------
# The circuit plan
# ---------------------------------------------------------------------------


class _EdgeGroup:
    """One (sens-kind, side-arity) batch of fanout edges at a level."""

    __slots__ = ("kind", "lo", "hi", "sink_rows", "side_edges")

    def __init__(self, kind, lo, hi, sink_rows, side_edges):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.sink_rows = sink_rows
        self.side_edges = side_edges  # in-edge ids of the sink's other pins


class _StemGroup:
    """One (is_output, branch-count) batch of stems at a level."""

    __slots__ = ("is_out", "node_rows", "contribs")

    def __init__(self, is_out, node_rows, contribs):
        self.is_out = is_out
        self.node_rows = node_rows
        self.contribs = contribs  # (n_stems, n_branches) edge ids


class _Level:
    """Per-level slices for the placement and delta sweeps."""

    __slots__ = (
        "level", "node_lo", "node_hi", "edge_lo", "edge_hi",
        "edge_groups", "stem_groups", "fwd_groups",
    )

    def __init__(self, level, node_lo, node_hi):
        self.level = level
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.edge_lo = 0
        self.edge_hi = 0
        self.edge_groups: List[_EdgeGroup] = []
        self.stem_groups: List[_StemGroup] = []
        self.fwd_groups: List[int] = []  # indexes into plan.logic_groups


def _stem_fold(entry: _Level) -> tuple:
    """One level's stem escape fold (see :meth:`CircuitPlan.stem_folds`)."""
    empty = np.empty(0, dtype=np.intp)
    folded = [g for g in entry.stem_groups if g.contribs.shape[1]]
    sizes = np.concatenate(
        [np.full(len(g.node_rows), g.contribs.shape[1]) for g in folded]
        or [empty]
    )

    def rows(groups):
        return np.concatenate([g.node_rows for g in groups] or [empty])

    return (
        np.concatenate([g.contribs.ravel() for g in folded] or [empty]),
        (np.cumsum(sizes) - sizes).astype(np.intp),
        rows(folded),
        rows([g for g in entry.stem_groups if g.is_out]),
        rows([
            g for g in entry.stem_groups
            if not g.is_out and not g.contribs.shape[1]
        ]),
    )


class CircuitPlan:
    """All index arrays needed to simulate one circuit structure.

    Built once per structural hash (see :func:`get_plan`); immutable
    afterwards except for the lazily built placement helpers
    (:meth:`stem_folds`, :meth:`delta_aux`).
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        with obs.span("npsim.plan", circuit=circuit.name):
            self._build(circuit)
        obs.count("npsim.plans")

    def _build(self, circuit: Circuit) -> None:
        self.structural_hash = circuit.structural_hash()
        self.name = circuit.name
        topo = circuit.topological_order()
        level = circuit.levels()
        self.topo = topo
        self.inputs = list(circuit.inputs)
        self.outputs = list(circuit.outputs)
        self.out_set = frozenset(self.outputs)
        self.fanins: Dict[str, Tuple[str, ...]] = {}
        self.gate_types: Dict[str, GateType] = {}
        fanouts: Dict[str, List[Tuple[str, int]]] = {}
        gate_names: List[str] = []
        for name in topo:
            node = circuit.node(name)
            fanouts[name] = list(circuit.fanouts(name))
            if node.is_gate:
                gate_names.append(name)
                self.fanins[name] = tuple(node.fanins)
                self.gate_types[name] = node.gate_type

        # -- row assignment: inputs first, then gates grouped by
        # (level, gate_type, arity).  Levels strictly separate driver from
        # sink (level = 1 + max fan-in level), so group-major evaluation
        # in level order respects every dependency and each group's
        # outputs are one contiguous slice.
        groups_map: "OrderedDict[Tuple[int, str, int], List[str]]" = (
            OrderedDict()
        )
        for name in gate_names:
            key = (level[name], self.gate_types[name].value,
                   len(self.fanins[name]))
            groups_map.setdefault(key, []).append(name)
        row: Dict[str, int] = {}
        for i, name in enumerate(self.inputs):
            row[name] = i
        pos = len(self.inputs)
        group_specs: List[Tuple[GateType, int, int, int, List[str]]] = []
        for key in sorted(groups_map):
            members = groups_map[key]
            lo = pos
            for name in members:
                row[name] = pos
                pos += 1
            group_specs.append(
                (GateType(key[1]), key[2], lo, pos, members)
            )
        self.row = row
        self.n_rows = pos
        self.levels_of_row = [0] * pos
        for name, r in row.items():
            self.levels_of_row[r] = level[name]

        # -- logic groups with fan-in index matrices
        self.logic_groups: List[
            Tuple[GateType, int, int, int, "np.ndarray"]
        ] = []
        for gate_type, arity, lo, hi, members in group_specs:
            fanin_rows = np.empty((hi - lo, arity), dtype=np.intp)
            for g, name in enumerate(members):
                for k, fi in enumerate(self.fanins[name]):
                    fanin_rows[g, k] = row[fi]
            self.logic_groups.append((gate_type, arity, lo, hi, fanin_rows))

        self.output_rows: List[Tuple[str, int]] = [
            (name, row[name]) for name in self.outputs
        ]

        # -- per-level skeleton (node row ranges; rows are level-major,
        # so level L spans [bounds[L], bounds[L+1]))
        max_level = max(level.values(), default=0)
        counts = [0] * (max_level + 1)
        for lv in self.levels_of_row:
            counts[lv] += 1
        bounds = [0] * (max_level + 2)
        for lv in range(max_level + 1):
            bounds[lv + 1] = bounds[lv] + counts[lv]
        self.levels: List[_Level] = []
        for lv in range(max_level, -1, -1):
            self.levels.append(_Level(lv, bounds[lv], bounds[lv + 1]))
        self._level_entry = {
            entry.level: entry for entry in self.levels
        }
        for gi, (_gt, _ar, lo, _hi, _f) in enumerate(self.logic_groups):
            self._level_entry[self.levels_of_row[lo]].fwd_groups.append(gi)

        # -- edge enumeration, grouped (driver level, sens kind, side
        # arity) so the backward passes touch contiguous id ranges.  The
        # per-stem contribution matrices keep the interpreter's fanout
        # order, which is what the escape folds are sensitive to.
        def edge_kind(sink: str) -> Tuple[str, int]:
            gt = self.gate_types[sink]
            n_side = len(self.fanins[sink]) - 1
            # a single-input AND/OR sensitizes unconditionally, same as
            # the "one" kinds (the empty fold is exactly 1.0)
            if n_side > 0 and gt in _AND_TYPES:
                return "and", n_side
            if n_side > 0 and gt in _OR_TYPES:
                return "or", n_side
            return "one", 0

        by_level: Dict[int, "OrderedDict[Tuple[str, int], List[tuple]]"] = {}
        stem_edges: Dict[str, List[Tuple[str, str, int]]] = {}
        for name in topo:
            stem_edges[name] = []
            for sink, pin in fanouts[name]:
                key = (name, sink, pin)
                stem_edges[name].append(key)
                kind, n_side = edge_kind(sink)
                by_level.setdefault(level[name], OrderedDict()).setdefault(
                    (kind, n_side), []
                ).append(key)
        self.edge_keys: List[Tuple[str, str, int]] = []
        self.edge_id: Dict[Tuple[str, str, int], int] = {}
        edge_driver_rows: List[int] = []
        pending_groups: Dict[int, List[Tuple[str, int, int, int, List[tuple]]]] = {}
        for entry in self.levels:  # descending level
            entry.edge_lo = len(self.edge_keys)
            groups = by_level.get(entry.level)
            if groups:
                for (kind, n_side) in sorted(groups):
                    members = groups[(kind, n_side)]
                    lo = len(self.edge_keys)
                    for key in members:
                        self.edge_id[key] = len(self.edge_keys)
                        self.edge_keys.append(key)
                        edge_driver_rows.append(row[key[0]])
                    pending_groups.setdefault(entry.level, []).append(
                        (kind, n_side, lo, len(self.edge_keys), members)
                    )
            entry.edge_hi = len(self.edge_keys)
        self.n_edges = len(self.edge_keys)
        self.edge_driver_rows = np.asarray(edge_driver_rows, dtype=np.intp)

        # side matrices need every edge id assigned first
        for entry in self.levels:
            for kind, n_side, lo, hi, members in pending_groups.get(
                entry.level, ()
            ):
                n_e = hi - lo
                sink_rows = np.empty(n_e, dtype=np.intp)
                side_edges = np.empty((n_e, n_side), dtype=np.intp)
                for e, (driver, sink, pin) in enumerate(members):
                    sink_rows[e] = row[sink]
                    j = 0
                    for p, fi in enumerate(self.fanins[sink]):
                        if p == pin:
                            continue
                        if j < n_side:
                            side_edges[e, j] = self.edge_id[(fi, sink, p)]
                        j += 1
                entry.edge_groups.append(
                    _EdgeGroup(kind, lo, hi, sink_rows, side_edges)
                )
            # stem groups: (is_output, n_branches) batches of this level
            stems: "OrderedDict[Tuple[bool, int], List[str]]" = OrderedDict()
            for name in self._names_of_level(entry):
                key = (name in self.out_set, len(stem_edges[name]))
                stems.setdefault(key, []).append(name)
            for (is_out, n_br) in sorted(stems):
                members = stems[(is_out, n_br)]
                node_rows = np.asarray(
                    [row[m] for m in members], dtype=np.intp
                )
                contribs = np.empty((len(members), n_br), dtype=np.intp)
                for s, m in enumerate(members):
                    for j, key in enumerate(stem_edges[m]):
                        contribs[s, j] = self.edge_id[key]
                entry.stem_groups.append(
                    _StemGroup(is_out, node_rows, contribs)
                )

        # in-edge ids per logic group (placement forward gathers T, the
        # branch-post values, instead of node probabilities)
        self.place_in_edges: List[Optional["np.ndarray"]] = []
        for gate_type, arity, lo, hi, _f in self.logic_groups:
            if arity == 0:
                self.place_in_edges.append(None)
                continue
            mat = np.empty((hi - lo, arity), dtype=np.intp)
            base = lo
            for g in range(hi - lo):
                name = self._row_names[base + g]
                for k in range(arity):
                    mat[g, k] = self.edge_id[
                        (self.fanins[name][k], name, k)
                    ]
            self.place_in_edges.append(mat)

        # guards the lazily built placement helpers
        self._lock = threading.Lock()

    # -- construction helpers -------------------------------------------
    @property
    def _row_names(self) -> List[str]:
        names = getattr(self, "_row_names_cache", None)
        if names is None:
            names = [""] * self.n_rows
            for name, r in self.row.items():
                names[r] = name
            self._row_names_cache = names
        return names

    def _names_of_level(self, entry: _Level) -> List[str]:
        return self._row_names[entry.node_lo : entry.node_hi]

    def stem_folds(self) -> List[tuple]:
        """Per level entry, the stem escape fold of the placement sweeps.

        ``(edges, starts, rows, out_rows, dead_rows)``: the branch edges
        of the level's stems, stem by stem in fanout order, with one
        ``reduceat`` segment per stem that has branches (``starts``,
        ``rows``), then the output rows and the rows that have no
        branches and are no output.  Derived from the stem groups on
        first use and cached: only the placement passes read it.
        """
        folds = getattr(self, "_stem_folds", None)
        if folds is None:
            with self._lock:
                folds = getattr(self, "_stem_folds", None)
                if folds is None:
                    folds = [_stem_fold(entry) for entry in self.levels]
                    self._stem_folds = folds
        return folds

    def delta_aux(self) -> "_DeltaAux":
        """The (cached) dirty-subset index structures for placement deltas."""
        aux = getattr(self, "_delta_aux", None)
        if aux is None:
            with self._lock:
                aux = getattr(self, "_delta_aux", None)
                if aux is None:
                    aux = _DeltaAux(self)
                    self._delta_aux = aux
        return aux

    # ------------------------------------------------------------------
    # Placement-aware pass (evaluate_placement)
    # ------------------------------------------------------------------
    def placement(self, pin_get, sctl, bctl, sobs, bobs, cpt, cof):
        """Forward+backward placement pass of ``evaluate_placement``.

        ``pin_get`` is ``problem.input_probability``, ``sctl``/``bctl``
        map stem site / branch key → control-point type, ``sobs``/``bobs``
        are the observed site sets, and ``cpt``/``cof`` are
        ``control_probability_transform`` /
        ``control_observability_factor``.  Returns the seven dicts of a
        :class:`~repro.core.virtual.VirtualEvaluation` in the
        interpreter's insertion orders.  Control and observation sites
        are data: array sweeps cover the uncontrolled
        common case and the few controlled/observed sites are patched as
        scalars between level sweeps, preserving the interpreter's exact
        float sequences.
        """
        row = self.row
        edge_id = self.edge_id
        Q = np.empty(self.n_rows, dtype=np.float64)
        S = np.empty(self.n_rows, dtype=np.float64)
        T = np.empty(self.n_edges, dtype=np.float64)
        sctl_rows = [(row[name], c) for name, c in sctl.items()]
        bctl_ids = [(edge_id[key], c) for key, c in bctl.items()]
        s_fix = [(r, r, c) for r, c in sctl_rows]
        e_fix = [(e, e, c) for e, c in bctl_ids]

        # ------------------------------------------------------ forward
        for entry in reversed(self.levels):  # ascending level
            if entry.level == 0:
                for i, name in enumerate(self.inputs):
                    Q[i] = pin_get(name)
            _forward_level(self, entry, Q, S, T, s_fix, e_fix, cpt)

        # ----------------------------------------------------- backward
        # Factors/zero-multipliers are precomputed full-length: an
        # uncontrolled edge multiplies by exactly 1.0 (IEEE-identity) and
        # an unobserved one by 1.0, so the sweeps stay branch-free while
        # reproducing the interpreter's ``f * x`` / ``z * (1.0 - 1.0)``.
        F_edge = np.ones(self.n_edges, dtype=np.float64)
        Zm_edge = np.ones(self.n_edges, dtype=np.float64)
        for e, ctl in bctl_ids:
            F_edge[e] = cof(ctl)
        for key in bobs:
            Zm_edge[edge_id[key]] = 1.0 - 1.0
        F_stem = np.ones(self.n_rows, dtype=np.float64)
        Zm_stem = np.ones(self.n_rows, dtype=np.float64)
        for r, ctl in sctl_rows:
            F_stem[r] = cof(ctl)
        for name in sobs:
            Zm_stem[row[name]] = 1.0 - 1.0
        WO = np.empty(self.n_rows, dtype=np.float64)
        OB = np.empty(self.n_edges, dtype=np.float64)
        PO = np.empty(self.n_rows, dtype=np.float64)
        for entry, fold in zip(self.levels, self.stem_folds()):
            _backward_level(
                entry, fold, T, WO, PO, OB, F_stem, Zm_stem, F_edge, Zm_edge
            )

        # ------------------------------------------------------ returns
        stem_pre = {name: float(Q[row[name]]) for name in self.topo}
        stem_post = {name: float(S[row[name]]) for name in self.topo}
        branch_pre = {
            key: float(S[row[key[0]]]) for key in self.edge_keys
        }
        branch_post = {
            key: float(T[edge_id[key]]) for key in self.edge_keys
        }
        wire_obs = {
            name: float(WO[row[name]]) for name in reversed(self.topo)
        }
        branch_obs = {
            key: float(OB[i]) for i, key in enumerate(self.edge_keys)
        }
        stem_post_obs = {
            name: float(PO[row[name]]) for name in reversed(self.topo)
        }
        return (
            stem_pre, stem_post, branch_pre, branch_post,
            wire_obs, branch_obs, stem_post_obs,
        )


# ---------------------------------------------------------------------------
# Vectorized placement deltas (IncrementalEvaluator's numpy fast path)
# ---------------------------------------------------------------------------

#: Effective rows per level below which :class:`PlacementBatch` loses to
#: the interpreted heap walk.  Each recomputed level costs the array
#: engine a fixed ~20µs of slice bookkeeping regardless of width, while
#: the interpreter pays ~1µs per actually-dirty node; measured break-even
#: sits near 26 rows/level, and narrow-level circuits (deep multipliers,
#: RPR corridors) regress well below 1x.  A level swept for C columns
#: serves all of them, so the width that counts is rows per level × C
#: (:func:`placement_batch_declined`).  :func:`forced` pins the batch on
#: regardless (the equivalence suites use it on tiny circuits).
DELTA_MIN_MEAN_WIDTH = 32.0

#: Byte budget of :class:`PlacementBatch`'s six float64 work matrices
#: (rows or edges × candidate columns); it fixes the candidates scored
#: per level sweep (:func:`gain_batch_columns`).  Wider chunks amortize
#: each level's ufunc dispatch over more candidates, but their pages
#: count fully toward peak RSS.
GAIN_BATCH_BYTES = 512 << 10


#: Set by :func:`forced`: every dispatch rule below takes its fast path.
_FORCED = False


def _mean_width(plan: "CircuitPlan") -> float:
    return plan.n_rows / max(len(plan.levels), 1)


def gain_batch_columns(plan: "CircuitPlan") -> int:
    """Candidate columns per :class:`PlacementBatch` chunk (at least 1)."""
    per_column = 8 * 3 * (plan.n_rows + plan.n_edges)
    return max(1, GAIN_BATCH_BYTES // per_column)


def placement_batch_declined(
    plan: Optional["CircuitPlan"], placements: int
) -> Optional[str]:
    """Why :class:`PlacementBatch` should not sweep ``placements``
    placements against its base.

    ``None`` means batch them: ``evaluate()`` asks for one placement,
    ``candidate_gains()`` for one per live candidate.  Otherwise they walk
    on the interpreter, and the reason is ``"interp"`` (no plan: the
    interpreted kernel) or ``"narrow"``: rows per level times the columns
    of one chunk (``min(gain_batch_columns(plan), placements)``) stays
    below :data:`DELTA_MIN_MEAN_WIDTH`.  :func:`forced` overrides
    ``"narrow"``.
    """
    if plan is None:
        return "interp"
    if _FORCED:
        return None
    columns = min(gain_batch_columns(plan), placements)
    if _mean_width(plan) * columns < DELTA_MIN_MEAN_WIDTH:
        return "narrow"
    return None


def fault_batch_declined(
    plan: Optional["CircuitPlan"], n_machines: int, n_patterns: int
) -> Optional[str]:
    """Why :func:`propagate_batch` should not take a block's flip machines.

    ``n_machines`` counts the block's region-root machines (one per
    distinct root that a live fault of the block reaches).  ``None``
    means batch them.  Otherwise they walk on the interpreter, and the
    reason is one of ``"interp"`` (no plan: the interpreted kernel),
    ``"few_faults"`` (fewer than :data:`BATCH_MIN_FAULTS` machines),
    ``"too_wide"`` (more than :data:`BATCH_MAX_WORDS` words) or
    ``"over_budget"`` (one machine alone exceeds
    :data:`BATCH_CHUNK_BYTES`).  :func:`forced` overrides every reason
    but ``"interp"``.
    """
    if plan is None:
        return "interp"
    if _FORCED:
        return None
    if n_machines < BATCH_MIN_FAULTS:
        return "few_faults"
    if word_count(n_patterns) > BATCH_MAX_WORDS:
        return "too_wide"
    # The budget is read here, not bound as a default argument, so a
    # test can shrink it to provoke this reason.
    if batch_capacity(plan, n_patterns, BATCH_CHUNK_BYTES) < 1:
        return "over_budget"
    return None


@contextmanager
def forced():
    """Pin every numpy fast path on regardless of its dispatch rule.

    For the duration, :func:`placement_batch_declined` and
    :func:`fault_batch_declined` decline only the interpreted kernel, so
    the fuzzer, ``replay`` and the equivalence suites attack
    :class:`PlacementBatch` and :func:`propagate_batch` on circuits the
    rules would hand to the interpreted walk.  The rules run on every
    call, so an evaluator or simulator built outside the block is forced
    inside it too.  The flag is process-global, not thread-local.
    """
    global _FORCED
    prior = _FORCED
    _FORCED = True
    try:
        yield
    finally:
        _FORCED = prior


def _take_ranges(data, starts, counts):
    """Concatenated ``data[starts[i] : starts[i] + counts[i]]`` slices."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    offsets = np.arange(total) - np.repeat(counts.cumsum() - counts, counts)
    return data[np.repeat(starts, counts) + offsets]


class _DeltaAux:
    """Plan-level index structures for dirty-level re-propagation.

    Built once per plan (see :meth:`CircuitPlan.delta_aux`) and shared by
    every :class:`PlacementBatch`: the level-entry index of every row,
    CSR sink/fan-in adjacency in row space, and the row names and edge
    keys as object arrays, so a delta labels its changed values with one
    fancy index instead of one lookup each.  That is all the delta
    sweeps need on top of the plan's own level tables.
    """

    def __init__(self, plan: "CircuitPlan") -> None:
        n_rows, n_edges = plan.n_rows, plan.n_edges
        row = plan.row
        # index into plan.levels (descending order) of every row
        entry_of_row = np.empty(n_rows, dtype=np.intp)
        for j, entry in enumerate(plan.levels):
            entry_of_row[entry.node_lo : entry.node_hi] = j
        self.entry_of_row = entry_of_row
        self.edge_sink_rows = np.fromiter(
            (row[key[1]] for key in plan.edge_keys),
            dtype=np.intp,
            count=n_edges,
        )
        # CSR fan-in rows per gate row (inputs have none)
        fcounts = np.zeros(n_rows + 1, dtype=np.intp)
        for name, fins in plan.fanins.items():
            fcounts[row[name] + 1] = len(fins)
        self.fanin_indptr = fcounts.cumsum()
        fanin_rows = np.empty(int(self.fanin_indptr[-1]), dtype=np.intp)
        for name, fins in plan.fanins.items():
            base = self.fanin_indptr[row[name]]
            for k, fi in enumerate(fins):
                fanin_rows[base + k] = row[fi]
        self.fanin_rows = fanin_rows
        self.row_names = np.array(plan._row_names, dtype=object)
        # element by element: numpy would unpack the key tuples
        self.edge_keys = np.empty(n_edges, dtype=object)
        for e, key in enumerate(plan.edge_keys):
            self.edge_keys[e] = key

    def fanin_entries(self, rows):
        """Level entries of every fan-in of ``rows``."""
        starts = self.fanin_indptr[rows]
        counts = self.fanin_indptr[rows + 1] - starts
        return self.entry_of_row[_take_ranges(self.fanin_rows, starts, counts)]

    def sink_fanin_entries(self, edges):
        """Level entries of every fan-in of the sinks of ``edges``.

        Repeats are harmless (callers mark a boolean per entry); no
        ``np.unique``, whose first call imports ``numpy.ma`` (about 1 MB
        of peak RSS).
        """
        return self.fanin_entries(self.edge_sink_rows[edges])


def _changed(work, base, labels) -> dict:
    """``{label: value}`` wherever ``work`` differs from ``base``."""
    idx = np.flatnonzero(work != base)
    return dict(zip(labels[idx].tolist(), work[idx].tolist()))


class PlacementBatch:
    """Level-granular placement deltas against one cached base.

    The incremental evaluator re-propagates the placement passes from a
    few changed sites, and a greedy round scores many one-site candidates
    against the same base.  This class runs both.  Six ``(rows or edges)
    × columns`` float64 work matrices (Q, S, T, WO, PO, OB) hold one
    placement per column, each differing from the base at a few sites
    (points added, removed or changed).  The sweep runs at *level
    granularity*: a level some column dirties is recomputed for every
    column with the exact slice code of :meth:`CircuitPlan.placement`
    (:func:`_forward_level` / :func:`_backward_level`), and a level no
    dirt reaches is skipped — its slices still hold the base.  A level
    joins the forward sweep when one of its in-edges moved, and the
    backward sweep when a wire observability it feeds moved.

    Bit-identity: recomputing a *clean* row, or a column the level is
    clean for, reads the same finalized inputs as the base pass and
    applies the same grouped formulas in the same fold order, so it
    reproduces the base value to the last ulp (evaluation is
    elementwise; columns never interact).  The values that differ from
    the base are therefore exactly the ones the interpreter's
    event-driven walk patches.  The property and fuzz suites pin this.

    The factor arrays stay the base's, shared by every column as ``(n,
    1)`` columns.  A column's own sites are fixes inside the level
    sweeps: forward, the control transforms of a level (the base's, or a
    replacement list where the column changes them); backward, a factor
    and zero-multiplier override per site.

    :meth:`delta` sweeps one placement and returns the evaluator's patch
    dicts; :meth:`gains` scores one-site candidates in chunks of columns
    without building any.  Each call restores the touched slices from the
    base, so between calls every column holds the base again.
    """

    def __init__(self, plan, columns: int, stem_weights, edge_weights):
        self.plan = plan
        self.aux = plan.delta_aux()
        self.columns = columns
        #: ``(2, n_rows)`` / ``(2, n_edges)`` fault counts per wire: row
        #: 0 stuck-at-0, row 1 stuck-at-1.
        self.w_stem = stem_weights
        self.w_edge = edge_weights
        #: The six work matrices Q, S, T, WO, PO, OB, as wide as the
        #: widest call so far (at most ``columns``).
        self.work: Optional[Tuple["np.ndarray", ...]] = None

    def rebase(
        self, base, stems, branches, cof, failing_rows, failing_edges
    ) -> None:
        """Capture one placement evaluation as the new base.

        ``base`` carries the seven dicts of a
        :class:`~repro.core.virtual.VirtualEvaluation`; ``stems`` /
        ``branches`` map the base placement's sites to (control-kind,
        observed) summaries; ``cof`` is the control observability factor
        function; ``failing_rows`` / ``failing_edges`` count the base's
        failing faults per row and per edge.  Every work column is reset
        to the base.
        """
        plan = self.plan
        row, edge_id = plan.row, plan.edge_id
        names, keys = plan._row_names, plan.edge_keys

        def column(values, labels):
            return np.fromiter(
                map(values.__getitem__, labels), np.float64, len(labels)
            )[:, None]

        self._base = (
            column(base.stem_pre, names),
            column(base.stem_post, names),
            column(base.branch_post, keys),
            column(base.wire_obs, names),
            column(base.stem_post_obs, names),
            column(base.branch_obs, keys),
        )
        # factor / zero-multiplier arrays of the base placement (same
        # IEEE-identity convention as the full placement pass)
        Fs = np.ones((plan.n_rows, 1), dtype=np.float64)
        Zms = np.ones((plan.n_rows, 1), dtype=np.float64)
        Fe = np.ones((plan.n_edges, 1), dtype=np.float64)
        Zme = np.ones((plan.n_edges, 1), dtype=np.float64)
        #: The base's control kind per row / per edge id, and its control
        #: fixes per level entry, stems then edges.
        self._controls: Tuple[Dict[int, object], Dict[int, object]] = ({}, {})
        self._fixes: Tuple[Dict[int, list], Dict[int, list]] = ({}, {})
        for is_branch, sites, F, Zm in (
            (False, stems, Fs, Zms), (True, branches, Fe, Zme)
        ):
            for site, (ctrl, observed) in sites.items():
                i = edge_id[site] if is_branch else row[site]
                if ctrl is not None:
                    F[i] = cof(ctrl)
                    self._controls[is_branch][i] = ctrl
                    self._fixes[is_branch].setdefault(
                        self._entry(is_branch, i), []
                    ).append((i, i, ctrl))
                if observed:
                    Zm[i] = 1.0 - 1.0
        self._factors = (Fs, Zms, Fe, Zme)
        self._fail_rows = np.concatenate(([0.0], np.cumsum(failing_rows)))
        self._fail_edges = np.concatenate(([0.0], np.cumsum(failing_edges)))
        if self.work is not None:
            for w, a in zip(self.work, self._base):
                w[...] = a

    def _reserve(self, width: int) -> None:
        """Widen the work matrices to at least ``width`` base columns."""
        if self.work is None or self.work[0].shape[1] < width:
            self.work = tuple(
                np.empty((len(a), width), dtype=np.float64) for a in self._base
            )
            for w, a in zip(self.work, self._base):
                w[...] = a

    def _entry(self, is_branch: bool, i: int) -> int:
        """Level entry of a row, or of an edge's driver."""
        plan = self.plan
        return int(
            self.aux.entry_of_row[plan.edge_driver_rows[i] if is_branch else i]
        )

    def _sweep(self, m, fwd, bwd, fixes, own_fixes, cpt) -> int:
        """Recompute the dirty levels of the first ``m`` work columns.

        ``fwd`` / ``bwd`` flag the seed levels of the forward and backward
        sweeps and end up flagging every level each recomputed.
        ``fixes`` holds, for stems and for edges, the control fixes of a
        level that replace the base's there; ``own_fixes`` the
        ``(site, column, factor, zero_multiplier)`` backward fixes of each
        column's own sites per level.
        Returns the rows of the recomputed levels.
        """
        plan, aux = self.plan, self.aux
        levels = plan.levels
        Qw, Sw, Tw, WOw, POw, OBw = (w[:, :m] for w in self.work)
        Tb, WOb = self._base[2], self._base[3]
        (s_fix, e_fix), (s_base, e_base) = fixes, self._fixes
        nodes = 0
        changed: List["np.ndarray"] = []
        for j in range(len(levels) - 1, -1, -1):  # ascending level
            if not fwd[j]:
                continue
            entry = levels[j]
            nodes += entry.node_hi - entry.node_lo
            _forward_level(
                plan, entry, Qw, Sw, Tw,
                s_fix[j] if j in s_fix else s_base.get(j, ()),
                e_fix[j] if j in e_fix else e_base.get(j, ()),
                cpt,
            )
            elo, ehi = entry.edge_lo, entry.edge_hi
            if ehi > elo:
                moved = (Tw[elo:ehi] != Tb[elo:ehi]).any(axis=1)
                if moved.any():
                    ch = np.flatnonzero(moved) + elo
                    changed.append(ch)
                    fwd[aux.entry_of_row[aux.edge_sink_rows[ch]]] = True
        if changed:
            bwd[aux.sink_fanin_entries(np.concatenate(changed))] = True
        folds = plan.stem_folds()
        s_ovr, e_ovr = own_fixes
        for j in range(len(levels)):  # descending level
            if not bwd[j]:
                continue
            entry = levels[j]
            nodes += entry.node_hi - entry.node_lo
            _backward_level(
                entry, folds[j], Tw, WOw, POw, OBw, *self._factors,
                s_ovr.get(j, ()), e_ovr.get(j, ()),
            )
            nlo, nhi = entry.node_lo, entry.node_hi
            moved = (WOw[nlo:nhi] != WOb[nlo:nhi]).any(axis=1)
            if moved.any():
                bwd[aux.fanin_entries(np.flatnonzero(moved) + nlo)] = True
        return nodes

    def _runs(self, touched) -> List[Tuple[int, int, int, int]]:
        """``(row lo, row hi, edge lo, edge hi)`` of each run of
        consecutive touched level entries (a run's rows and edges are
        contiguous)."""
        levels = self.plan.levels
        idx = np.flatnonzero(touched)
        if not len(idx):
            return []
        spans = []
        for run in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
            top, bottom = levels[run[0]], levels[run[-1]]
            spans.append(
                (bottom.node_lo, top.node_hi, top.edge_lo, bottom.edge_hi)
            )
        return spans

    def _restore(self, spans, m: int) -> None:
        """Reset the first ``m`` work columns to the base on ``spans``."""
        Qw, Sw, Tw, WOw, POw, OBw = self.work
        Qb, Sb, Tb, WOb, POb, OBb = self._base
        for rlo, rhi, elo, ehi in spans:
            for w, a in ((Qw, Qb), (Sw, Sb), (WOw, WOb), (POw, POb)):
                w[rlo:rhi, :m] = a[rlo:rhi]
            for w, a in ((Tw, Tb), (OBw, OBb)):
                w[elo:ehi, :m] = a[elo:ehi]

    def delta(self, stem_diff, branch_diff, cpt, cof):
        """Patch dicts and recompute count of one placement near the base.

        ``stem_diff`` / ``branch_diff`` map the sites where the placement
        differs from the base (keyed like the evaluator's site summaries)
        to their new (control-kind, observed) summaries; ``cpt`` /
        ``cof`` are the control probability transform and observability
        factor.  Returns ``(patches, recomputed)``: the seven patch dicts
        the interpreted delta produces (missing key = base value
        unchanged), built from whole-column comparisons, and the rows of
        recomputed levels.
        """
        plan = self.plan
        self._reserve(1)
        fwd = np.zeros(len(plan.levels), dtype=bool)
        bwd = np.zeros(len(plan.levels), dtype=bool)
        own_fixes: Tuple[Dict[int, list], Dict[int, list]] = ({}, {})
        changes: Tuple[Dict[int, dict], Dict[int, dict]] = ({}, {})
        for is_branch, diff, ids in (
            (False, stem_diff, plan.row), (True, branch_diff, plan.edge_id)
        ):
            for site, (ctrl, observed) in diff.items():
                i = ids[site]
                j = self._entry(is_branch, i)
                bwd[j] = True
                own_fixes[is_branch].setdefault(j, []).append((
                    i, 0,
                    cof(ctrl) if ctrl is not None else 1.0,
                    1.0 - 1.0 if observed else 1.0,
                ))
                # forward-dirty when the new or the base placement
                # controls the site
                if ctrl is not None or i in self._controls[is_branch]:
                    fwd[j] = True
                    changes[is_branch].setdefault(j, {})[i] = ctrl
        # fixes never stack (see the level-sweep notes): a level whose
        # controls change sweeps with the placement's whole fix list
        fixes = tuple(
            {
                j: [f for f in base.get(j, ()) if f[0] not in sites]
                + [(i, i, c) for i, c in sites.items() if c is not None]
                for j, sites in level_changes.items()
            }
            for base, level_changes in zip(self._fixes, changes)
        )
        recomputed = self._sweep(1, fwd, bwd, fixes, own_fixes, cpt)
        Q, S, T, WO, PO, OB = (w[:, 0] for w in self.work)
        Qb, Sb, Tb, WOb, POb, OBb = (a[:, 0] for a in self._base)
        names, keys = self.aux.row_names, self.aux.edge_keys
        drv = plan.edge_driver_rows
        patches = (
            _changed(Q, Qb, names),
            _changed(S, Sb, names),
            _changed(S[drv], Sb[drv], keys),
            _changed(T, Tb, keys),
            _changed(WO, WOb, names),
            _changed(OB, OBb, keys),
            _changed(PO, POb, names),
        )
        self._restore(self._runs(fwd | bwd), 1)
        return patches, recomputed

    def gains(
        self, sites, cpt, theta: float, tick=None
    ) -> Tuple[List[int], int]:
        """Failing-fault gains of one-site candidates over the base.

        ``sites`` holds one ``(is_branch, index, control, factor,
        zero_multiplier)`` per candidate: the edge or row id of its site,
        the control kind it adds (``None`` for an observation point), and
        the site's observability factor and zero-multiplier with the
        candidate in place.  ``cpt`` is the control probability transform
        and ``theta`` the detection threshold; ``tick``, when given, runs
        before each chunk (a budget check).  Returns ``(gains,
        recomputed)``: gains in input order, and node recomputations
        (rows of touched levels times columns).
        """
        n = len(sites)
        if not n:
            return [], 0
        chunks = -(-n // self.columns)
        size = -(-n // chunks)
        self._reserve(size)
        gains: List[int] = []
        recomputed = 0
        for start in range(0, n, size):
            if tick is not None:
                tick()
            chunk_gains, nodes = self._chunk(
                sites[start : start + size], cpt, theta
            )
            gains.extend(chunk_gains)
            recomputed += nodes
        return gains, recomputed

    def _chunk(self, sites, cpt, theta: float) -> Tuple[List[int], int]:
        """Score one chunk of candidates, one per column.

        A greedy round scores each candidate against the same base, and
        each candidate adds one point, so its own forward fix (when it
        adds a control point) stacks on its level's base fixes.  There
        are no patch dicts: a fault's status can change only on a touched
        level, so a candidate's gain is the count of failing faults on
        the touched levels before minus after, with the evaluator's rule
        ``excitation * obs < θ``.  The fault stage runs in place on the
        work matrices; the base counts come from the evaluator's own
        failing set.
        """
        plan = self.plan
        m = len(sites)
        Qw, Sw, Tw, WOw, POw, OBw = (w[:, :m] for w in self.work)
        fwd = np.zeros(len(plan.levels), dtype=bool)
        bwd = np.zeros(len(plan.levels), dtype=bool)
        fixes: Tuple[Dict[int, list], Dict[int, list]] = ({}, {})
        own_fixes: Tuple[Dict[int, list], Dict[int, list]] = ({}, {})
        for k, (is_branch, i, ctl, f, zm) in enumerate(sites):
            j = self._entry(is_branch, i)
            bwd[j] = True
            own_fixes[is_branch].setdefault(j, []).append((i, k, f, zm))
            if ctl is not None:
                fwd[j] = True
                level = fixes[is_branch].get(j)
                if level is None:
                    level = fixes[is_branch][j] = list(
                        self._fixes[is_branch].get(j, ())
                    )
                level.append((i, (i, k), ctl))
        nodes = self._sweep(m, fwd, bwd, fixes, own_fixes, cpt)

        # -- fault stage per run of touched levels; PO and T serve as
        # scratch, then every touched slice is restored
        gain = np.zeros(m, dtype=np.float64)
        spans = self._runs(fwd | bwd)
        for rlo, rhi, elo, ehi in spans:
            gain += (self._fail_rows[rhi] - self._fail_rows[rlo]) + (
                self._fail_edges[ehi] - self._fail_edges[elo]
            )
            Q, WO, PO = Qw[rlo:rhi], WOw[rlo:rhi], POw[rlo:rhi]
            np.multiply(Q, WO, out=PO)
            np.less(PO, theta, out=PO)
            gain -= self.w_stem[0, rlo:rhi] @ PO
            np.subtract(1.0, Q, out=PO)
            np.multiply(PO, WO, out=PO)
            np.less(PO, theta, out=PO)
            gain -= self.w_stem[1, rlo:rhi] @ PO
            if ehi > elo:
                T, OB = Tw[elo:ehi], OBw[elo:ehi]
                drv = plan.edge_driver_rows[elo:ehi]
                np.take(Sw, drv, axis=0, out=T)
                np.multiply(T, OB, out=T)
                np.less(T, theta, out=T)
                gain -= self.w_edge[0, elo:ehi] @ T
                np.take(Sw, drv, axis=0, out=T)
                np.subtract(1.0, T, out=T)
                np.multiply(T, OB, out=T)
                np.less(T, theta, out=T)
                gain -= self.w_edge[1, elo:ehi] @ T
        self._restore(spans, m)
        return [int(g) for g in gain], nodes * m


# ---------------------------------------------------------------------------
# Plan registry
# ---------------------------------------------------------------------------

_PLANS: "OrderedDict[str, CircuitPlan]" = OrderedDict()
_PLANS_CAP = 128
_PLANS_LOCK = threading.RLock()


def get_plan(circuit: Circuit) -> CircuitPlan:
    """The (shared) numpy plan for ``circuit``'s structure.

    Keyed by structural hash — structurally identical circuits share one
    plan, and a netlist rewrite can never be served stale index arrays.
    """
    key = circuit.structural_hash()
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            obs.count("npsim.plan_cache_hits")
            return plan
    # Build outside the registry lock (plans for different circuits must
    # not serialize on each other); a losing race just discards its copy.
    plan = CircuitPlan(circuit)
    with _PLANS_LOCK:
        existing = _PLANS.get(key)
        if existing is not None:
            return existing
        _PLANS[key] = plan
        while len(_PLANS) > _PLANS_CAP:
            _PLANS.popitem(last=False)
    return plan


def clear_plans() -> None:
    """Evict every cached plan (tests / memory pressure)."""
    with _PLANS_LOCK:
        _PLANS.clear()


def plan_registry_size() -> int:
    """Number of circuit structures currently planned."""
    with _PLANS_LOCK:
        return len(_PLANS)
