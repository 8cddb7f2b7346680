"""Word-parallel numpy simulation engine (the ``numpy`` backend).

The interpreted simulator packs all patterns of one signal into a Python
bignum; the compiled kernels remove the per-gate dispatch but still run
bignum arithmetic, whose limbs are 30-bit CPython digits.  This module
packs each signal into a little-endian ``(n_words,)`` ``uint64`` ndarray
instead (see :func:`repro.sim.bitops.word_to_ndarray` for the layout) and
evaluates each *group* of same-shaped gates as a handful of vectorized
ufunc calls — 64-bit limbs, SIMD inner loops, no per-gate allocation.

Plans, not codegen
------------------
Where :mod:`repro.sim.compile` generates Python source per circuit, this
backend builds a :class:`CircuitPlan`: index arrays that group the gates
of each logic level by ``(gate_type, fan-in arity)`` so one group becomes
one gather / fold / scatter sequence.  Node rows are assigned group-major,
so every group's outputs are a contiguous slice of the value matrix.
Plans live in a process-wide LRU registry keyed by
:meth:`~repro.circuit.netlist.Circuit.structural_hash`, exactly like the
compiled-kernel registry, and are cheap enough to rebuild in parallel
workers (no pickled payload needed).

Four passes share the plan:

* **logic** — fault-free simulation of all gates (uint64 bitwise folds);
* **cone** — per-fault-site straight-line propagation over the existing
  cone orders (:class:`ConePlan`, mirroring the compiled cone kernels);
* **cop forward / backward** — the COP probability passes as float64
  array sweeps, including the ``stem_combine`` escape folds;
* **placement** — the placement-aware forward+backward pass of
  :func:`repro.core.virtual.evaluate_placement`, with the (few) control/
  observe-site fixups applied as scalar patches between level sweeps.

Bit-identity
------------
Every float fold replays the interpreter's operation order exactly (same
rules as the compiled emitters — see the emitter comments in
:mod:`repro.sim.compile`); the uint64 folds are masked identically to
:func:`repro.circuit.gates.evaluate_gate`.  numpy's float64 ufuncs apply
IEEE-754 arithmetic per element, so elementwise op-order equality implies
bit-identical results, and the property/fuzz suites pin this backend to
the interpreted ground truth the same way they pin the compiled kernels.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from .bitops import ndarray_to_word, ones_mask, word_count, word_to_ndarray

__all__ = [
    "BATCH_CHUNK_BYTES",
    "BATCH_TILE_MIN_SITES",
    "DELTA_MIN_MEAN_WIDTH",
    "CircuitPlan",
    "ConePlan",
    "PackedState",
    "PlacementDelta",
    "batch_capacity",
    "batch_staging_rows",
    "batch_tile_words",
    "delta_profitable",
    "get_plan",
    "clear_plans",
    "plan_registry_size",
    "mask_array",
    "propagate_batch",
    "propagate_cone",
    "rows_to_words",
    "words_equal",
]


def words_equal(a, b) -> bool:
    """Exact equality of two packed uint64 rows."""
    return bool(np.array_equal(a, b))

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
# is dropping the leading ``1.0 *`` / first-XOR-from-``0.0`` identities,
# the same IEEE-exact rule the compiled emitters use.


def _eval_prob_group(gate_type, arity, cols, out) -> None:
    """``out[g]`` = P[gate g = 1] from the gathered fan-in columns.

    ``cols`` is ``(n_gates, arity)`` float64 (already gathered from node
    probabilities or branch-post values — the caller picks the source).
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
# Packed good-machine state
# ---------------------------------------------------------------------------


class PackedState(Mapping):
    """Good-machine values as a ``(n_rows, n_words)`` uint64 matrix.

    Behaves as the usual node → int-word mapping (so it can stand in for
    ``LogicSimulator.run`` results anywhere), but keeps the array form
    primary: fault propagation reads rows directly, and the int view is
    materialized lazily only when something (the Guard arbiter, a repro
    bundle, a caller iterating items) actually asks for it.
    """

    def __init__(self, plan: "CircuitPlan", values, n_patterns: int) -> None:
        self.plan = plan
        self.values = values
        self.n_patterns = n_patterns
        self.mask = mask_array(n_patterns)
        self._ints: Optional[Dict[str, int]] = None
        self._zeros = None
        self._scratch = None
        self._detect = None
        self._tmp = None
        self._inject = None

    # -- Mapping interface (int-word view) ------------------------------
    def int_map(self) -> Dict[str, int]:
        """The node → packed-int-word dict (built once, cached)."""
        if self._ints is None:
            # One bulk ``tobytes`` of the whole matrix beats a per-row
            # ndarray round trip; the first Guard shadow check of a run
            # pays this build, so it sits on the measured overhead path.
            words = rows_to_words(self.values)
            self._ints = {
                name: words[r] for name, r in self.plan.entry_rows
            }
        return self._ints

    def __getitem__(self, name: str) -> int:
        return self.int_map()[name]

    def __iter__(self):
        return iter(self.int_map())

    def __len__(self) -> int:
        return self.plan.n_rows

    # Mapping from collections.abc does not supply value equality; the
    # test suites compare backend results with ``==`` against plain dicts.
    def __eq__(self, other) -> bool:
        if isinstance(other, PackedState):
            return self.int_map() == other.int_map()
        if isinstance(other, Mapping):
            return self.int_map() == dict(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedState({self.plan.name!r}, nodes={self.plan.n_rows}, "
            f"n_patterns={self.n_patterns})"
        )

    # -- propagation buffers --------------------------------------------
    def stuck_row(self, value: int):
        """The injection row for a stuck-at-``value`` fault."""
        if value:
            return self.mask
        if self._zeros is None:
            zeros = np.zeros(self.values.shape[1], dtype=np.uint64)
            zeros.setflags(write=False)
            self._zeros = zeros
        return self._zeros

    def scratch(self, n_local: int):
        """Reusable faulty-value matrix with at least ``n_local`` rows."""
        buf = self._scratch
        if buf is None or buf.shape[0] < n_local:
            buf = self._scratch = np.empty(
                (max(n_local, 16), self.values.shape[1]), dtype=np.uint64
            )
        return buf

    def buffers(self):
        """(detect, tmp, inject) single-row work vectors."""
        if self._detect is None:
            n_words = self.values.shape[1]
            self._detect = np.empty(n_words, dtype=np.uint64)
            self._tmp = np.empty(n_words, dtype=np.uint64)
            self._inject = np.empty(n_words, dtype=np.uint64)
        return self._detect, self._tmp, self._inject

    def node_row(self, name: str):
        """The good-machine value row of one node."""
        return self.values[self.plan.row[name]]

    def inject_branch(self, site: str, pin: int, stuck):
        """Faulty output row of a fanout-branch fault's sink gate.

        Re-evaluates ``site`` with fan-in ``pin`` replaced by the stuck
        row (one word-parallel gate evaluation, same as the interpreted
        injection).  Returns a per-state scratch row — consume before the
        next injection.
        """
        plan = self.plan
        V = self.values
        rows = [
            stuck if p == pin else V[plan.row[fi]]
            for p, fi in enumerate(plan.fanins[site])
        ]
        _detect, _tmp, inject = self.buffers()
        _eval_word_rows(plan.gate_types[site], rows, inject, self.mask)
        return inject


# ---------------------------------------------------------------------------
# Cone plans
# ---------------------------------------------------------------------------


class ConePlan:
    """Straight-line propagation schedule for one fault site's cone.

    Mirrors the compiled cone kernels: every cone gate is evaluated (a
    gate the event-driven walk would skip recomputes its good value and
    contributes a zero diff), so detection words and per-output diffs are
    identical by construction.
    """

    __slots__ = ("start", "n_local", "n_gates", "ops", "po_terms")

    def __init__(self, plan: "CircuitPlan", start: str, order: Sequence[str]):
        if not order or order[0] != start:
            raise SimulationError(f"cone order must start at {start!r}")
        local = {name: i for i, name in enumerate(order)}
        self.start = start
        self.n_local = len(order)
        self.n_gates = len(order) - 1
        ops: List[Tuple[GateType, int, Tuple[Tuple[bool, int], ...]]] = []
        row = plan.row
        for name in order[1:]:
            srcs = tuple(
                (True, local[fi]) if fi in local else (False, row[fi])
                for fi in plan.fanins[name]
            )
            ops.append((plan.gate_types[name], local[name], srcs))
        self.ops = ops
        self.po_terms: List[Tuple[str, int, int]] = [
            (name, row[name], local[name])
            for name in order
            if name in plan.out_set
        ]


def propagate_cone(
    state: PackedState,
    cone: ConePlan,
    injected,
    want_diffs: bool,
) -> Tuple[int, Optional[List[Tuple[str, int]]]]:
    """Propagate one injected fault through its cone plan.

    Returns ``(detect_word, diffs)`` where ``diffs`` lists ``(output,
    diff_word)`` for the cone's primary outputs (``None`` unless
    ``want_diffs``).  All ints are masked exactly like the interpreted
    walk's results.
    """
    V = state.values
    mask = state.mask
    F = state.scratch(cone.n_local)
    F[0] = injected
    for gate_type, out_local, srcs in cone.ops:
        rows = [F[i] if is_local else V[i] for is_local, i in srcs]
        _eval_word_rows(gate_type, rows, F[out_local], mask)
    detect, tmp, _inject = state.buffers()
    detect[:] = 0
    diffs: Optional[List[Tuple[str, int]]] = [] if want_diffs else None
    for name, global_row, local_row in cone.po_terms:
        np.bitwise_xor(F[local_row], V[global_row], out=tmp)
        np.bitwise_or(detect, tmp, out=detect)
        if diffs is not None:
            diffs.append((name, ndarray_to_word(tmp)))
    return ndarray_to_word(detect), diffs


# ---------------------------------------------------------------------------
# Batched fault-parallel propagation
# ---------------------------------------------------------------------------

#: Memory budget (bytes) for one batched value cube; chunks are sized so a
#: chunk's ``n_rows × B × tile_words`` uint64 matrix — plus its staging
#: rows, see :func:`batch_staging_rows` — stays inside it.
BATCH_CHUNK_BYTES = 32 << 20

#: Fewest fault machines a chunk should hold before the word axis tiles:
#: when the full pattern width would squeeze the chunk below this many
#: machines, ``propagate_batch`` shrinks the tile width instead so each
#: ufunc call keeps amortizing dispatch over enough fault columns.
BATCH_TILE_MIN_SITES = 16


def batch_staging_rows(plan: "CircuitPlan") -> int:
    """Row-equivalents of per-chunk scratch beyond the value cube itself.

    Besides the ``(n_rows, B, tile_words)`` cube, a batched chunk holds
    the primary-output staging block used to diff faulty outputs against
    the good matrix (``n_po`` row-equivalents — the diff is computed in
    place on the staged copy, so the block is charged once) plus O(1)
    rows for the stacked forced values, the tiled pattern mask, and the
    per-tile detection reduction.  :func:`batch_capacity` charges these
    against the memory budget so a chunk's true footprint stays inside
    ``chunk_bytes``; counting only the faulty cube (as earlier revisions
    did) let wide-output circuits overshoot the budget by up to 2x.
    """
    return len(plan.outputs) + 3


def _tile_words_for(
    plan: "CircuitPlan", n_words: int, chunk_bytes: int
) -> int:
    """Word-axis tile width for a batched sweep at ``n_words`` patterns.

    Prefers the untiled layout (one tile spanning the full width)
    whenever a chunk at full width still fits ``BATCH_TILE_MIN_SITES``
    fault machines; otherwise the widest tile that does.
    """
    rows = plan.n_rows + batch_staging_rows(plan)
    budget_words = chunk_bytes // (8 * rows * BATCH_TILE_MIN_SITES)
    return max(1, min(n_words, budget_words))


def batch_tile_words(
    plan: "CircuitPlan", n_patterns: int, chunk_bytes: int = BATCH_CHUNK_BYTES
) -> int:
    """Word-axis tile width :func:`propagate_batch` will pick by default."""
    return _tile_words_for(plan, word_count(n_patterns), chunk_bytes)


def batch_capacity(
    plan: "CircuitPlan",
    n_patterns: int,
    chunk_bytes: int = BATCH_CHUNK_BYTES,
    tile_words: Optional[int] = None,
) -> int:
    """Fault machines one batched chunk can hold under the memory budget.

    Charges the full chunk footprint — value cube plus staging rows (see
    :func:`batch_staging_rows`) — at the word-axis tile width the batch
    would actually run (pass ``tile_words`` to pin a different one).
    Thanks to tiling this stays a useful chunk width at any pattern
    budget: widening the patterns narrows the tile, not the chunk.
    """
    n_words = word_count(n_patterns)
    if tile_words is None:
        tile_words = _tile_words_for(plan, n_words, chunk_bytes)
    else:
        tile_words = max(1, min(tile_words, n_words))
    rows = plan.n_rows + batch_staging_rows(plan)
    return chunk_bytes // (8 * rows * tile_words)


def rows_to_words(matrix) -> List[int]:
    """Packed int word of every row of a 2D uint64 matrix (bulk bridge)."""
    n_rows, n_words = matrix.shape
    raw = matrix.tobytes()
    stride = 8 * n_words
    return [
        int.from_bytes(raw[i * stride : (i + 1) * stride], "little")
        for i in range(n_rows)
    ]


def propagate_batch(
    state: PackedState,
    sites: Sequence[Tuple[int, "np.ndarray"]],
    chunk_bytes: int = BATCH_CHUNK_BYTES,
    tile_words: Optional[int] = None,
) -> Tuple["np.ndarray", int]:
    """Propagate many injected faults through the whole circuit at once.

    ``sites`` lists one ``(row, forced_row)`` pair per fault: the plan row
    of the injection site and the faulty value row to pin there (a stuck
    row for stem faults, the re-evaluated sink output for branch faults).

    Where :func:`propagate_cone` walks one fault's cone with one ufunc
    call per gate, this pass stacks ``B`` fault machines into a
    ``(n_rows, B, tile_words)`` cube and re-runs the *grouped*
    full-circuit sweep on it, so each ufunc call covers ``group × B``
    gate evaluations.  Every gate outside a fault's cone recomputes its
    good value from good fan-ins, and the site row is re-pinned after its
    group evaluates, so each column reproduces exactly the faulty machine
    the cone walk would build.  The win is dispatch amortization: per-
    fault work inflates by roughly ``n_gates / mean(|cone|)``, but
    thousands of Python-level cone steps collapse into one sweep of a few
    hundred array calls.

    Wide pattern budgets tile along the word axis: when the full width
    would not fit :data:`BATCH_TILE_MIN_SITES` fault machines inside
    ``chunk_bytes``, the sweep runs per word-tile — same chunking, same
    pinning, each tile evaluating words ``[w0, w1)`` of every machine —
    and ORs each tile's detection columns into its word slice of the
    result.  Word columns never interact in any gate fold (bitwise folds
    are per-bit, masks are per-word), so tiling commutes with evaluation
    and the detection matrix is bit-identical across tile seams.  Pass
    ``tile_words`` to pin the width (tests pin seams; ``None`` picks
    :func:`batch_tile_words`).

    Chunks are capped by ``chunk_bytes`` (cube plus staging rows — see
    :func:`batch_capacity`) and sites are processed in ascending row
    order: every row below a chunk's first site is provably fault-free,
    so it is block-copied from the good matrix instead of re-evaluated.

    Returns ``(detect, gate_evals)`` — a ``(len(sites), n_words)`` uint64
    detection matrix in input order (row ``i`` packs, per pattern,
    whether fault ``i`` flips any primary output), and the number of
    gate-machine evaluations performed.  A gate-machine evaluation is
    word-parallel over the full pattern budget, so tiles are partial
    evaluations summing to one — the count is tile-invariant.
    """
    plan = state.plan
    V = state.values
    n_words = V.shape[1]
    mask = state.mask
    n_rows = plan.n_rows
    n_in = len(plan.inputs)
    n_sites = len(sites)
    rows = np.fromiter((r for r, _ in sites), dtype=np.intp, count=n_sites)
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
    if tile_words is None:
        tile_words = _tile_words_for(plan, n_words, chunk_bytes)
    else:
        tile_words = max(1, min(int(tile_words), n_words))
    capacity = max(
        1,
        chunk_bytes // (8 * (n_rows + batch_staging_rows(plan)) * tile_words),
    )
    gate_evals = 0
    for c0 in range(0, n_sites, capacity):
        chunk = order[c0 : c0 + capacity]
        B = len(chunk)
        site_rows = rows[chunk]
        forced_full = np.stack([sites[i][1] for i in chunk])
        # Rows below the chunk's first site carry no fault effect; copy.
        copy_to = max(n_in, int(site_rows[0]))
        bidx = np.arange(B)
        n_pre = int(np.searchsorted(site_rows, copy_to, side="left"))
        # Chunk sites are sorted by row, so the machines a logic group
        # must re-pin form a contiguous slice: two binary searches per
        # group here replace two full boolean passes per group per tile.
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
        staged = np.empty((n_po, B, tile_words), dtype=np.uint64)
        for w0 in range(0, n_words, tile_words):
            w1 = min(w0 + tile_words, n_words)
            tw = w1 - w0
            flat = np.empty((n_rows, B * tw), dtype=np.uint64)
            cube = flat.reshape(n_rows, B, tw)
            cube[:copy_to] = V[:copy_to, None, w0:w1]
            forced = forced_full[:, w0:w1]
            if n_pre:
                cube[site_rows[:n_pre], bidx[:n_pre]] = forced[:n_pre]
            # The flat 2D view evaluates with simple strides; the pattern
            # mask tiles across fault machines (the cube's inner axis is
            # the tile's words).
            mask_t = mask[w0:w1]
            flat_mask = mask_t if tw == 1 else np.tile(mask_t, B)
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
            # into this tile's word slice of the detection matrix.
            st = staged if tw == tile_words else np.empty(
                (n_po, B, tw), dtype=np.uint64
            )
            if po_contiguous:
                np.bitwise_xor(
                    cube[po_lo : po_lo + n_po],
                    good_po[:, None, w0:w1],
                    out=st,
                )
            else:
                np.take(cube, po_rows, axis=0, out=st)
                np.bitwise_xor(st, good_po[:, None, w0:w1], out=st)
            detect[chunk, w0:w1] = np.bitwise_or.reduce(st, axis=0)
        gate_evals += (n_rows - copy_to) * B
    return detect, gate_evals


# ---------------------------------------------------------------------------
# The circuit plan
# ---------------------------------------------------------------------------


class _EdgeGroup:
    """One (sens-kind, side-arity) batch of fanout edges at a level."""

    __slots__ = ("kind", "lo", "hi", "sink_rows", "side_rows", "side_edges")

    def __init__(self, kind, lo, hi, sink_rows, side_rows, side_edges):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.sink_rows = sink_rows
        self.side_rows = side_rows  # node rows (plain COP backward)
        self.side_edges = side_edges  # in-edge ids (placement backward)


class _StemGroup:
    """One (is_output, branch-count) batch of stems at a level."""

    __slots__ = ("is_out", "node_rows", "contribs")

    def __init__(self, is_out, node_rows, contribs):
        self.is_out = is_out
        self.node_rows = node_rows
        self.contribs = contribs  # (n_stems, n_branches) edge ids


class _Level:
    """Per-level slices for the backward passes (and placement forward)."""

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


class CircuitPlan:
    """All index arrays needed to simulate one circuit structure.

    Built once per structural hash (see :func:`get_plan`); immutable
    afterwards except for the lazily-populated cone-plan cache.
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

        # -- dict insertion order of the interpreted simulator
        self.entry_rows: List[Tuple[str, int]] = [
            (name, row[name]) for name in self.inputs
        ] + [(name, row[name]) for name in gate_names]
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
                side_rows = np.empty((n_e, n_side), dtype=np.intp)
                side_edges = np.empty((n_e, n_side), dtype=np.intp)
                for e, (driver, sink, pin) in enumerate(members):
                    sink_rows[e] = row[sink]
                    j = 0
                    for p, fi in enumerate(self.fanins[sink]):
                        if p == pin:
                            continue
                        if j < n_side:
                            side_rows[e, j] = row[fi]
                            side_edges[e, j] = self.edge_id[(fi, sink, p)]
                        j += 1
                entry.edge_groups.append(
                    _EdgeGroup(kind, lo, hi, sink_rows, side_rows, side_edges)
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

        # cone cache
        self._cones: Dict[str, ConePlan] = {}
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
    # Logic pass
    # ------------------------------------------------------------------
    def run_matrix(self, stimulus: Mapping[str, int], n_patterns: int):
        """Fault-free simulation into a fresh ``(n_rows, n_words)`` matrix."""
        n_words = word_count(n_patterns)
        V = np.empty((self.n_rows, n_words), dtype=np.uint64)
        mask = mask_array(n_patterns)
        for i, name in enumerate(self.inputs):
            V[i] = word_to_ndarray(stimulus.get(name, 0), n_patterns)
        for gate_type, arity, lo, hi, fanin_rows in self.logic_groups:
            _eval_word_group(gate_type, arity, fanin_rows, V, V[lo:hi], mask)
        return V

    def run_state(
        self, stimulus: Mapping[str, int], n_patterns: int
    ) -> PackedState:
        """Fault-free simulation as a :class:`PackedState`."""
        return PackedState(
            self, self.run_matrix(stimulus, n_patterns), n_patterns
        )

    def logic_values(
        self, stimulus: Mapping[str, int], n_patterns: int
    ) -> Dict[str, int]:
        """``LogicSimulator.run``-compatible node → int-word dict."""
        return self.run_state(stimulus, n_patterns).int_map()

    def state_from_values(
        self, good_values: Mapping[str, int], n_patterns: int
    ) -> PackedState:
        """Pack an existing int-word mapping into array form."""
        n_words = word_count(n_patterns)
        V = np.empty((self.n_rows, n_words), dtype=np.uint64)
        for name, r in self.row.items():
            V[r] = word_to_ndarray(good_values[name], n_patterns)
        state = PackedState(self, V, n_patterns)
        if isinstance(good_values, dict):
            state._ints = good_values  # already materialized; share it
        return state

    # ------------------------------------------------------------------
    # Cone propagation
    # ------------------------------------------------------------------
    def cone(
        self, start: str, order_fn: Callable[[str], Sequence[str]]
    ) -> ConePlan:
        """The (cached) cone plan for fault site ``start``."""
        plan = self._cones.get(start)
        if plan is None:
            with self._lock:
                plan = self._cones.get(start)
                if plan is None:
                    plan = ConePlan(self, start, order_fn(start))
                    self._cones[start] = plan
        return plan

    # ------------------------------------------------------------------
    # COP forward pass
    # ------------------------------------------------------------------
    def cop_forward(self, pget) -> Dict[str, float]:
        """Forward COP pass; matches ``signal_probabilities`` exactly.

        ``pget`` is ``input_probabilities.get`` (the compiled kernels use
        the same calling convention).
        """
        P = np.empty(self.n_rows, dtype=np.float64)
        for i, name in enumerate(self.inputs):
            P[i] = float(pget(name, 0.5))
        for gate_type, arity, lo, hi, fanin_rows in self.logic_groups:
            _eval_prob_group(gate_type, arity, P[fanin_rows], P[lo:hi])
        row = self.row
        return {name: float(P[row[name]]) for name in self.topo}

    # ------------------------------------------------------------------
    # COP backward pass
    # ------------------------------------------------------------------
    def float_rows(self, values: Mapping[str, float]):
        """Gather a node → float mapping into row order."""
        P = np.empty(self.n_rows, dtype=np.float64)
        for name, r in self.row.items():
            P[r] = values[name]
        return P

    def cop_backward(
        self, probability: Mapping[str, float], stem_combine: str
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, str, int], float]]:
        """Backward COP pass; matches ``observabilities`` exactly."""
        P = self.float_rows(probability)
        NO = np.empty(self.n_rows, dtype=np.float64)
        BO = np.empty(self.n_edges, dtype=np.float64)
        use_max = stem_combine == "max"
        for entry in self.levels:  # descending driver level
            for grp in entry.edge_groups:
                sunk = NO[grp.sink_rows]
                if grp.kind == "one":
                    BO[grp.lo : grp.hi] = sunk * 1.0
                else:
                    BO[grp.lo : grp.hi] = sunk * _sens_fold(
                        grp.kind, P[grp.side_rows]
                    )
            for grp in entry.stem_groups:
                n_br = grp.contribs.shape[1]
                if use_max:
                    if grp.is_out:
                        m = np.ones(len(grp.node_rows), dtype=np.float64)
                    elif n_br == 0:
                        NO[grp.node_rows] = 0.0
                        continue
                    else:
                        m = BO[grp.contribs[:, 0]].copy()
                    start_j = 0 if grp.is_out else 1
                    for j in range(start_j, n_br):
                        np.maximum(m, BO[grp.contribs[:, j]], out=m)
                    NO[grp.node_rows] = m
                    continue
                esc = np.ones(len(grp.node_rows), dtype=np.float64)
                if grp.is_out:
                    esc *= 1.0 - 1.0
                for j in range(n_br):
                    esc *= 1.0 - BO[grp.contribs[:, j]]
                NO[grp.node_rows] = 1.0 - esc
        row = self.row
        node_obs = {
            name: float(NO[row[name]]) for name in reversed(self.topo)
        }
        branch_obs = {
            key: float(BO[i]) for i, key in enumerate(self.edge_keys)
        }
        return node_obs, branch_obs

    # ------------------------------------------------------------------
    # Placement-aware pass (evaluate_placement)
    # ------------------------------------------------------------------
    def placement(self, pin_get, sctl, bctl, sobs, bobs, cpt, cof):
        """Forward+backward placement pass; compiled-kernel contract.

        Returns the seven dicts of a
        :class:`~repro.core.virtual.VirtualEvaluation`.  Control and
        observation sites are data: array sweeps cover the uncontrolled
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

        # ------------------------------------------------------ forward
        for entry in reversed(self.levels):  # ascending level
            if entry.level == 0:
                for i, name in enumerate(self.inputs):
                    Q[i] = pin_get(name)
            for gi in entry.fwd_groups:
                gate_type, arity, lo, hi, _f = self.logic_groups[gi]
                in_edges = self.place_in_edges[gi]
                cols = (
                    T[in_edges]
                    if in_edges is not None
                    else np.empty((hi - lo, 0), dtype=np.float64)
                )
                _eval_prob_group(gate_type, arity, cols, Q[lo:hi])
            nlo, nhi = entry.node_lo, entry.node_hi
            S[nlo:nhi] = Q[nlo:nhi]
            for r, ctl in sctl_rows:
                if nlo <= r < nhi:
                    S[r] = cpt(ctl, float(Q[r]))
            elo, ehi = entry.edge_lo, entry.edge_hi
            if ehi > elo:
                T[elo:ehi] = S[self.edge_driver_rows[elo:ehi]]
                for e, ctl in bctl_ids:
                    if elo <= e < ehi:
                        T[e] = cpt(ctl, float(T[e]))

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
        for entry in self.levels:  # descending level
            for grp in entry.edge_groups:
                if grp.kind == "one":
                    x = WO[grp.sink_rows] * 1.0
                else:
                    x = WO[grp.sink_rows] * _sens_fold(
                        grp.kind, T[grp.side_edges]
                    )
                z = 1.0 - F_edge[grp.lo : grp.hi] * x
                z *= Zm_edge[grp.lo : grp.hi]
                np.subtract(1.0, z, out=OB[grp.lo : grp.hi])
            for grp in entry.stem_groups:
                esc = np.ones(len(grp.node_rows), dtype=np.float64)
                if grp.is_out:
                    esc *= 1.0 - 1.0
                for j in range(grp.contribs.shape[1]):
                    esc *= 1.0 - OB[grp.contribs[:, j]]
                PO[grp.node_rows] = 1.0 - esc
            nlo, nhi = entry.node_lo, entry.node_hi
            z2 = 1.0 - F_stem[nlo:nhi] * PO[nlo:nhi]
            z2 *= Zm_stem[nlo:nhi]
            np.subtract(1.0, z2, out=WO[nlo:nhi])

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

#: Mean rows-per-level below which the vectorized delta loses to the
#: interpreted heap walk.  Each dirty level costs the array engine a
#: fixed ~20µs of slice bookkeeping regardless of width, while the
#: interpreter pays ~1µs per actually-dirty node; measured break-even
#: sits near 26 rows/level, and narrow-level circuits (deep multipliers,
#: RPR corridors) regress well below 1x.  Overridable via the
#: ``REPRO_NP_DELTA_MIN_WIDTH`` environment variable (``0`` forces the
#: vectorized path on, which the equivalence suites use to pin tiny
#: circuits onto it).
DELTA_MIN_MEAN_WIDTH = 32.0


def delta_profitable(plan: "CircuitPlan") -> bool:
    """Whether :class:`PlacementDelta` is expected to beat the
    interpreted dirty-cone walk on this plan (see
    :data:`DELTA_MIN_MEAN_WIDTH`).
    """
    raw = os.environ.get("REPRO_NP_DELTA_MIN_WIDTH")
    try:
        min_width = DELTA_MIN_MEAN_WIDTH if not raw else float(raw)
    except ValueError:
        min_width = DELTA_MIN_MEAN_WIDTH
    if min_width <= 0:
        return True
    return plan.n_rows / max(len(plan.levels), 1) >= min_width


#: Per-site (control-kind, observed) summary meaning "no point here".
_NO_SITE = (None, False)


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
    every :class:`PlacementDelta`: the level-entry index of every row and
    CSR sink/fan-in adjacency in row space, which is all the delta sweeps
    need on top of the plan's own level tables.
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


class PlacementDelta:
    """Vectorized dirty-cone re-propagation against a cached base.

    The incremental evaluator re-propagates the placement passes from a
    few dirty sites, stopping the moment a recomputed value equals the
    cached base (exact float equality).  This class runs those deltas at
    *level granularity*: a level whose inputs moved is recomputed with
    the exact per-level slice code of :meth:`CircuitPlan.placement`
    (contiguous array sweeps, no per-row bookkeeping), and a level no
    dirt reaches is skipped entirely — its work-array slices still hold
    the base values.

    Bit-identity: recomputing a *clean* row of a dirty level reads the
    same finalized inputs as the base pass and applies the same grouped
    formulas in the same fold order, so it reproduces the base value to
    the last ulp (evaluation is elementwise; columns never interact).
    Changed values are therefore exactly the rows the interpreter's
    event-driven walk would have patched, and the patch dicts — built by
    comparing recomputed slices against the base — match the interpreted
    delta verbatim.  The property and fuzz suites pin this.

    Between deltas the work arrays equal the base: each call recomputes
    only dirty-level slices and restores them from the base copies
    before returning, so a delta costs O(dirty levels), not O(circuit).
    """

    def __init__(self, plan: "CircuitPlan") -> None:
        self.plan = plan
        self.aux = plan.delta_aux()

    # ------------------------------------------------------------------
    def rebase(self, base, base_stems, base_branches, cof) -> None:
        """Capture one placement evaluation as the delta base.

        ``base`` carries the seven dicts of a
        :class:`~repro.core.virtual.VirtualEvaluation`; ``base_stems`` /
        ``base_branches`` map sites to (control-kind, observed) summaries
        of the base placement; ``cof`` is the control observability
        factor function.
        """
        plan = self.plan
        n_rows, n_edges = plan.n_rows, plan.n_edges
        row, edge_id = plan.row, plan.edge_id
        self.Qb = plan.float_rows(base.stem_pre)
        self.Sb = plan.float_rows(base.stem_post)
        self.WOb = plan.float_rows(base.wire_obs)
        self.POb = plan.float_rows(base.stem_post_obs)
        Tb = np.empty(n_edges, dtype=np.float64)
        OBb = np.empty(n_edges, dtype=np.float64)
        bpost, bobs = base.branch_post, base.branch_obs
        for i, key in enumerate(plan.edge_keys):
            Tb[i] = bpost[key]
            OBb[i] = bobs[key]
        self.Tb, self.OBb = Tb, OBb
        # factor / zero-multiplier arrays of the base placement (same
        # IEEE-identity convention as the full placement pass)
        Fs = np.ones(n_rows, dtype=np.float64)
        Zms = np.ones(n_rows, dtype=np.float64)
        Fe = np.ones(n_edges, dtype=np.float64)
        Zme = np.ones(n_edges, dtype=np.float64)
        sctl: Dict[int, object] = {}
        bctl: Dict[int, object] = {}
        for name, (ctrl, observed) in base_stems.items():
            r = row[name]
            if ctrl is not None:
                Fs[r] = cof(ctrl)
                sctl[r] = ctrl
            if observed:
                Zms[r] = 1.0 - 1.0
        for key, (ctrl, observed) in base_branches.items():
            e = edge_id[key]
            if ctrl is not None:
                Fe[e] = cof(ctrl)
                bctl[e] = ctrl
            if observed:
                Zme[e] = 1.0 - 1.0
        self.Fsb, self.Zmsb, self.Feb, self.Zmeb = Fs, Zms, Fe, Zme
        self._sctl_base = sctl
        self._bctl_base = bctl
        self._base_stems = dict(base_stems)
        self._base_branches = dict(base_branches)
        self.Qw, self.Sw = self.Qb.copy(), self.Sb.copy()
        self.Tw = self.Tb.copy()
        self.WOw, self.POw = self.WOb.copy(), self.POb.copy()
        self.OBw = self.OBb.copy()
        self.Fsw, self.Zmsw = Fs.copy(), Zms.copy()
        self.Few, self.Zmew = Fe.copy(), Zme.copy()

    # ------------------------------------------------------------------
    def delta(self, stem_diff, branch_diff, cpt, cof):
        """Patch dicts and recompute count for a dirty-site overlay.

        ``stem_diff`` / ``branch_diff`` map changed sites to their new
        (control-kind, observed) summaries; ``cpt`` / ``cof`` are the
        control probability transform and observability factor.  Returns
        ``(patches, recomputed)`` where ``patches`` is the seven-tuple of
        patch dicts the interpreted delta produces (missing key = base
        value unchanged).
        """
        plan, aux = self.plan, self.aux
        row, edge_id = plan.row, plan.edge_id
        names = plan._row_names
        edge_keys = plan.edge_keys
        levels = plan.levels
        n_entries = len(levels)
        edge_driver_rows = plan.edge_driver_rows
        Qw, Sw, Tw = self.Qw, self.Sw, self.Tw
        WOw, POw, OBw = self.WOw, self.POw, self.OBw

        # -- overlay the dirty sites onto the work factor arrays
        sctl = dict(self._sctl_base)
        bctl = dict(self._bctl_base)
        dirty_rows: List[int] = []
        dirty_edges: List[int] = []
        for site, (ctrl, observed) in stem_diff.items():
            r = row[site]
            dirty_rows.append(r)
            self.Fsw[r] = cof(ctrl) if ctrl is not None else 1.0
            self.Zmsw[r] = 1.0 - 1.0 if observed else 1.0
            if ctrl is not None:
                sctl[r] = ctrl
            else:
                sctl.pop(r, None)
        for key, (ctrl, observed) in branch_diff.items():
            e = edge_id[key]
            dirty_edges.append(e)
            self.Few[e] = cof(ctrl) if ctrl is not None else 1.0
            self.Zmew[e] = 1.0 - 1.0 if observed else 1.0
            if ctrl is not None:
                bctl[e] = ctrl
            else:
                bctl.pop(e, None)
        sctl_items = list(sctl.items())
        bctl_items = list(bctl.items())

        # -- forward: mark the levels of control-relevant dirty sites,
        # sweep ascending, re-marking a sink's level only when some
        # in-edge branch-post moved (the heap walk's trigger rule)
        fwd_dirty = np.zeros(n_entries, dtype=bool)
        for site, state in stem_diff.items():
            if (
                state[0] is not None
                or self._base_stems.get(site, _NO_SITE)[0] is not None
            ):
                fwd_dirty[aux.entry_of_row[row[site]]] = True
        for key, state in branch_diff.items():
            if (
                state[0] is not None
                or self._base_branches.get(key, _NO_SITE)[0] is not None
            ):
                fwd_dirty[aux.entry_of_row[row[key[0]]]] = True
        f_touched: List[int] = []
        changed_T: List["np.ndarray"] = []
        for j in range(n_entries - 1, -1, -1):  # ascending level
            if not fwd_dirty[j]:
                continue
            entry = levels[j]
            f_touched.append(j)
            # inputs (level 0) keep their base probabilities
            for gi in entry.fwd_groups:
                gate_type, arity, lo, hi, _f = plan.logic_groups[gi]
                in_edges = plan.place_in_edges[gi]
                cols = (
                    Tw[in_edges]
                    if in_edges is not None
                    else np.empty((hi - lo, 0), dtype=np.float64)
                )
                _eval_prob_group(gate_type, arity, cols, Qw[lo:hi])
            nlo, nhi = entry.node_lo, entry.node_hi
            Sw[nlo:nhi] = Qw[nlo:nhi]
            for r, ctl in sctl_items:
                if nlo <= r < nhi:
                    Sw[r] = cpt(ctl, float(Qw[r]))
            elo, ehi = entry.edge_lo, entry.edge_hi
            if ehi > elo:
                Tw[elo:ehi] = Sw[edge_driver_rows[elo:ehi]]
                for e, ctl in bctl_items:
                    if elo <= e < ehi:
                        Tw[e] = cpt(ctl, float(Tw[e]))
                moved = Tw[elo:ehi] != self.Tb[elo:ehi]
                if moved.any():
                    ch = np.nonzero(moved)[0] + elo
                    changed_T.append(ch)
                    fwd_dirty[
                        aux.entry_of_row[aux.edge_sink_rows[ch]]
                    ] = True

        # -- backward: mark the levels of dirty sites, of branch-diff
        # drivers, and of the fan-ins of every sink whose branch-post
        # moved; sweep descending, re-marking fan-in levels whenever a
        # wire observability moves
        bwd_dirty = np.zeros(n_entries, dtype=bool)
        for site in stem_diff:
            bwd_dirty[aux.entry_of_row[row[site]]] = True
        for key in branch_diff:
            bwd_dirty[aux.entry_of_row[row[key[0]]]] = True
        if changed_T:
            sinks = np.unique(
                aux.edge_sink_rows[np.concatenate(changed_T)]
            )
            fstarts = aux.fanin_indptr[sinks]
            fcnt = aux.fanin_indptr[sinks + 1] - fstarts
            fans = _take_ranges(aux.fanin_rows, fstarts, fcnt)
            bwd_dirty[aux.entry_of_row[fans]] = True
        b_touched: List[int] = []
        for j in range(n_entries):  # descending level
            if not bwd_dirty[j]:
                continue
            entry = levels[j]
            b_touched.append(j)
            for grp in entry.edge_groups:
                if grp.kind == "one":
                    x = WOw[grp.sink_rows] * 1.0
                else:
                    x = WOw[grp.sink_rows] * _sens_fold(
                        grp.kind, Tw[grp.side_edges]
                    )
                z = 1.0 - self.Few[grp.lo : grp.hi] * x
                z *= self.Zmew[grp.lo : grp.hi]
                np.subtract(1.0, z, out=OBw[grp.lo : grp.hi])
            for grp in entry.stem_groups:
                esc = np.ones(len(grp.node_rows), dtype=np.float64)
                if grp.is_out:
                    esc *= 1.0 - 1.0
                for jj in range(grp.contribs.shape[1]):
                    esc *= 1.0 - OBw[grp.contribs[:, jj]]
                POw[grp.node_rows] = 1.0 - esc
            nlo, nhi = entry.node_lo, entry.node_hi
            z2 = 1.0 - self.Fsw[nlo:nhi] * POw[nlo:nhi]
            z2 *= self.Zmsw[nlo:nhi]
            np.subtract(1.0, z2, out=WOw[nlo:nhi])
            moved = WOw[nlo:nhi] != self.WOb[nlo:nhi]
            if moved.any():
                mrows = np.nonzero(moved)[0] + nlo
                fstarts = aux.fanin_indptr[mrows]
                fcnt = aux.fanin_indptr[mrows + 1] - fstarts
                fans = _take_ranges(aux.fanin_rows, fstarts, fcnt)
                bwd_dirty[aux.entry_of_row[fans]] = True

        # -- extract patches (changed-vs-base only), restore work arrays
        stem_pre: Dict[str, float] = {}
        stem_post: Dict[str, float] = {}
        branch_pre: Dict[tuple, float] = {}
        branch_post: Dict[tuple, float] = {}
        wire_obs: Dict[str, float] = {}
        branch_obs: Dict[tuple, float] = {}
        stem_post_obs: Dict[str, float] = {}
        recomputed = 0
        for j in f_touched:
            entry = levels[j]
            nlo, nhi = entry.node_lo, entry.node_hi
            recomputed += nhi - nlo
            for off in np.nonzero(Qw[nlo:nhi] != self.Qb[nlo:nhi])[0]:
                r = nlo + off
                stem_pre[names[r]] = float(Qw[r])
            for off in np.nonzero(Sw[nlo:nhi] != self.Sb[nlo:nhi])[0]:
                r = nlo + off
                stem_post[names[r]] = float(Sw[r])
            elo, ehi = entry.edge_lo, entry.edge_hi
            if ehi > elo:
                drv = edge_driver_rows[elo:ehi]
                for off in np.nonzero(Sw[drv] != self.Sb[drv])[0]:
                    branch_pre[edge_keys[elo + off]] = float(Sw[drv[off]])
                for off in np.nonzero(
                    Tw[elo:ehi] != self.Tb[elo:ehi]
                )[0]:
                    e = elo + off
                    branch_post[edge_keys[e]] = float(Tw[e])
            Qw[nlo:nhi] = self.Qb[nlo:nhi]
            Sw[nlo:nhi] = self.Sb[nlo:nhi]
            Tw[elo:ehi] = self.Tb[elo:ehi]
        for j in b_touched:
            entry = levels[j]
            nlo, nhi = entry.node_lo, entry.node_hi
            recomputed += nhi - nlo
            for off in np.nonzero(WOw[nlo:nhi] != self.WOb[nlo:nhi])[0]:
                r = nlo + off
                wire_obs[names[r]] = float(WOw[r])
            for off in np.nonzero(POw[nlo:nhi] != self.POb[nlo:nhi])[0]:
                r = nlo + off
                stem_post_obs[names[r]] = float(POw[r])
            elo, ehi = entry.edge_lo, entry.edge_hi
            if ehi > elo:
                for off in np.nonzero(
                    OBw[elo:ehi] != self.OBb[elo:ehi]
                )[0]:
                    e = elo + off
                    branch_obs[edge_keys[e]] = float(OBw[e])
            WOw[nlo:nhi] = self.WOb[nlo:nhi]
            POw[nlo:nhi] = self.POb[nlo:nhi]
            OBw[elo:ehi] = self.OBb[elo:ehi]
        if dirty_rows:
            dr = np.asarray(dirty_rows, dtype=np.intp)
            self.Fsw[dr] = self.Fsb[dr]
            self.Zmsw[dr] = self.Zmsb[dr]
        if dirty_edges:
            de = np.asarray(dirty_edges, dtype=np.intp)
            self.Few[de] = self.Feb[de]
            self.Zmew[de] = self.Zmeb[de]
        patches = (
            stem_pre, stem_post, branch_pre, branch_post,
            wire_obs, branch_obs, stem_post_obs,
        )
        return patches, recomputed


# ---------------------------------------------------------------------------
# Plan registry (mirrors the compiled-kernel registry)
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
