"""The dynamic program for optimal test point insertion on tree circuits.

This is the paper's contribution: on a **fanout-free** circuit (every node
drives at most one pin, so each output cone is a tree) the TPI problem has
optimal substructure, and a bottom-up table computation finds a minimum-cost
placement in polynomial time — versus the NP-complete general case.

State
-----
For a node ``n``, let ``o`` be the observability the *environment* grants
``n``'s post-control-point line (through its parent's side inputs, or 1.0
at an observed root), and ``p`` the signal probability ``n`` presents to its
parent after any control point.  The value function is::

    F[n][o][p] = minimum cost of decisions inside subtree(n) such that
                 every enforced fault in subtree(n) meets θ, given the
                 environment observability is o and the resulting
                 downstream probability of n is p.

Both ``o`` and ``p`` live on a :class:`~repro.core.quantize.ProbabilityGrid`
(resolution B), so the tables are finite: the algorithm is exact with
respect to the quantized probability algebra and runs in
``O(|C| · B³ · |decisions|)`` time in the worst case (see DESIGN.md §2 and
experiment F4 for the accuracy/runtime trade-off in B).

Decisions per node: an optional observation point (taps the wire *before*
the control point) × an optional control point (AND-type, OR-type, or
full random re-drive).  Decision semantics match
:mod:`repro.core.problem` exactly; solutions are verified against the
continuous evaluator in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuit.analysis import is_fanout_free
from ..errors import SolverError
from ..resilience import Budget
from ..circuit.gates import (
    GateType,
    output_probability,
    side_input_sensitization_probability,
)
from ..circuit.netlist import Node
from .problem import (
    TestPoint,
    TestPointType,
    TPIProblem,
    TPISolution,
    control_observability_factor,
    control_probability_transform,
)
from .quantize import ProbabilityGrid

__all__ = ["DPSolver", "solve_tree", "quantized_tree_check"]

#: A (observation?, control-type-or-None) decision at one node.
_Decision = Tuple[bool, Optional[TestPointType]]

#: A table key: (node name, environment observability bucket).
_Key = Tuple[str, int]

#: One cell of a DP table — the best known way to realize a ``p`` bucket —
#: as a flat tuple ``(cost, decision index, *child back-pointers)``: no
#: pointers at a leaf, ``(o_c, p_c)`` under a unary gate and
#: ``(o_a, p_a, o_b, p_b)`` under a binary gate.
_Cell = Tuple

#: Grouped decisions of one table: ``(wire observability, decision
#: indices, o-free?)`` (see :meth:`DPSolver._groups`).
_Groups = List[Tuple[float, Tuple[int, ...], bool]]

#: A decision group's candidate stream: ``(records, decisions enumerated)``
#: with records ``(p bucket, cell)`` (see :meth:`DPSolver._stream`).
_Stream = Tuple[List[Tuple[int, _Cell]], int]


class DPSolver:
    """Bottom-up DP over a fanout-free circuit.

    Parameters
    ----------
    problem:
        The TPI instance; its circuit must be fanout-free with gate fan-in
        ≤ 2 (run :func:`repro.circuit.transforms.factorize_to_two_input`
        first if needed).
    grid:
        Probability quantization grid (default resolution 16).
    root_observabilities:
        Environment observability per root node (default 1.0 — a directly
        observed output).  Used by the region decomposition driver.
    leaf_probabilities:
        Signal probability per leaf (default: the problem's input
        probabilities).  Used by the region driver to stand in boundary
        signals.
    enforced_faults:
        Optional map node → ``(check_sa0, check_sa1)`` overriding which
        polarities are enforced at that node's wire.  Defaults are derived
        from the gate type (tie cells enforce only their detectable fault).
    budget:
        Optional cooperative :class:`~repro.resilience.Budget`; the wall
        clock is checked and ``dp_cells`` charged at every memoized table,
        raising :class:`~repro.errors.BudgetExceededError` mid-solve.
    """

    def __init__(
        self,
        problem: TPIProblem,
        grid: Optional[ProbabilityGrid] = None,
        root_observabilities: Optional[Mapping[str, float]] = None,
        leaf_probabilities: Optional[Mapping[str, float]] = None,
        enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
        margin: float = 1.0,
        budget: Optional[Budget] = None,
    ) -> None:
        if margin < 1.0:
            raise SolverError("margin must be ≥ 1")
        circuit = problem.circuit
        circuit.validate()
        if not is_fanout_free(circuit):
            raise SolverError(
                "the DP is exact only on fanout-free circuits; use "
                "repro.core.heuristic for circuits with fanout"
            )
        for node in circuit.gates:
            if len(node.fanins) > 2:
                raise SolverError(
                    "factorize the circuit to ≤2-input gates before the DP"
                )
        dead_gates = [
            n for n in circuit.floating_nodes() if circuit.node(n).is_gate
        ]
        if dead_gates:
            raise SolverError(
                f"dead logic present (sweep first): {dead_gates[:5]}"
            )
        # Unused primary inputs carry structurally untestable faults; they
        # are excluded from planning (matching testable_stuck_at_faults).
        self._floating_inputs = {
            n for n in circuit.floating_nodes() if circuit.node(n).is_input
        }
        self.problem = problem
        self.circuit = circuit
        self.budget = budget
        self.margin = margin
        self.threshold = min(problem.threshold * margin, 1.0)
        self.grid = grid or ProbabilityGrid.for_threshold(self.threshold)
        self._root_obs = dict(root_observabilities or {})
        self._leaf_probs = dict(leaf_probabilities or {})
        self._enforced = dict(enforced_faults or {})
        self._out_set = set(circuit.outputs)
        self._tables: Dict[_Key, Dict[int, _Cell]] = {}
        self._decisions = self._decision_space()
        self._decision_costs = [self._decision_cost(d) for d in self._decisions]
        self._table_cells = 0
        self._decisions_enumerated = 0
        # Per-solve transition tables, filled on first use.
        self._group_cache: Dict[Tuple[int, bool], _Groups] = {}
        self._child_obs_cache: Dict[
            Tuple[GateType, float], Tuple[int, List[int]]
        ] = {}
        self._post_cache: Dict[GateType, tuple] = {}
        self._sens_cache: Dict[GateType, List[float]] = {}
        self._streams: Dict[Tuple[str, float, Tuple[int, ...]], _Stream] = {}

    # ------------------------------------------------------------------
    def _decision_space(self) -> List[_Decision]:
        op_options = [False]
        if self.problem.observation_allowed:
            op_options.append(True)
        cp_options: List[Optional[TestPointType]] = [None]
        cp_options.extend(self.problem.control_types())
        return [
            (op, cp) for op, cp in itertools.product(op_options, cp_options)
        ]

    def _decision_cost(self, decision: _Decision) -> float:
        op, cp = decision
        cost = self.problem.costs.observation if op else 0.0
        if cp is not None:
            cost += self.problem.costs.of(cp)
        return cost

    def _enforced_at(self, name: str) -> Tuple[bool, bool]:
        """Which stuck-at polarities must meet θ at this node's wire."""
        override = self._enforced.get(name)
        if override is not None:
            return override
        node = self.circuit.node(name)
        if node.gate_type is GateType.CONST0:
            return (False, True)  # only s-a-1 is a fault of a tied-0 cell
        if node.gate_type is GateType.CONST1:
            return (True, False)
        return (True, True)

    def _leaf_probability(self, name: str) -> float:
        if name in self._leaf_probs:
            return self._leaf_probs[name]
        return self.problem.input_probability(name)

    def _faults_ok(self, name: str, p_pre: float, wire_obs: float) -> bool:
        """Check the enforced faults on this wire against the planning θ."""
        theta = self.threshold - 1e-12
        check0, check1 = self._enforced_at(name)
        if check0 and p_pre * wire_obs < theta:
            return False
        if check1 and (1.0 - p_pre) * wire_obs < theta:
            return False
        return True

    @staticmethod
    def _combine(a: float, b: float) -> float:
        """Independent-event observability combination."""
        return 1.0 - (1.0 - a) * (1.0 - b)

    def _key(self, name: str, o_idx: int) -> _Key:
        """Table key: an observed node's post-CP line is directly visible
        regardless of what its parent contributes, so it has one table."""
        if name in self._out_set:
            return (name, self.grid.top_index)
        return (name, o_idx)

    def _pinned(self, name: str, o_indices: List[int]) -> List[int]:
        """``o_indices`` as table keys of ``name`` (see :meth:`_key`)."""
        if name in self._out_set:
            return [self.grid.top_index] * len(o_indices)
        return o_indices

    # ------------------------------------------------------ precomputation
    def _groups(self, o_idx: int, must_check: bool) -> _Groups:
        """Decisions grouped by the wire observability they leave.

        Decisions sharing a wire observability share the child enumeration
        and the fault feasibility check.  Groups keep first-appearance
        order, decisions keep decision-space order.  A group is *o-free*
        when each of its decisions fixes the wire observability whatever
        the environment grants (an observation point makes it 1, a random
        re-drive without one makes it 0).  Its candidate stream then recurs
        in every table of the node, so :meth:`_build` keeps it.
        """
        key = (o_idx, must_check)
        cached = self._group_cache.get(key)
        if cached is None:
            o_env = self.grid.value(o_idx)
            theta = self.threshold - 1e-12
            by_obs: Dict[float, List[int]] = {}
            for d, (op, cp) in enumerate(self._decisions):
                factor = control_observability_factor(cp) if cp else 1.0
                wire_obs = self._combine(1.0 if op else 0.0, factor * o_env)
                if must_check and wire_obs < theta:
                    continue  # no excitation can rescue a dead wire
                by_obs.setdefault(wire_obs, []).append(d)
            o_free = [
                op or cp is TestPointType.CONTROL_RANDOM
                for op, cp in self._decisions
            ]
            cached = [
                (w, tuple(ds), all(o_free[d] for d in ds))
                for w, ds in by_obs.items()
            ]
            self._group_cache[key] = cached
        return cached

    def _child_obs(
        self, gate_type: GateType, wire_obs: float
    ) -> Tuple[int, List[int]]:
        """``(top_o, ob_of)`` of a binary gate under one wire observability.

        ``ob_of[q]`` is a child's observability bucket when its sibling
        sits in probability bucket ``q``.  Raising observability only
        relaxes subtree constraints, so the child-a table at ``top_o`` (the
        wire observability itself) carries a superset of every achievable
        child-a bucket.
        """
        key = (gate_type, wire_obs)
        cached = self._child_obs_cache.get(key)
        if cached is None:
            floor = self.grid.floor_index
            cached = (
                floor(wire_obs),
                [floor(wire_obs * s) for s in self._sens_table(gate_type)],
            )
            self._child_obs_cache[key] = cached
        return cached

    def _post_tables(self, gate_type: GateType, arity: int) -> tuple:
        """``(p_pre, post)`` bucket tables of a gate type, per decision.

        ``p_pre`` is the gate's output probability per input bucket (per
        pair of buckets for a binary gate); ``post[d]`` maps the same
        inputs to the bucket of the probability decision ``d`` presents
        downstream.  ``output_probability`` and the control transforms run
        elementwise on bucket-value arrays: numpy's float64 arithmetic
        performs the same IEEE operations in the same order, so every
        entry equals the scalar call bit for bit.
        """
        cached = self._post_cache.get(gate_type)
        if cached is None:
            vals = np.asarray(self.grid.values())
            if arity == 1:
                inputs = [vals]
            else:
                inputs = np.meshgrid(vals, vals, indexing="ij")
            pre = output_probability(gate_type, inputs)
            by_cp: Dict[Optional[TestPointType], list] = {}
            for _op, cp in self._decisions:
                if cp not in by_cp:
                    post = control_probability_transform(cp, pre) if cp else pre
                    by_cp[cp] = np.broadcast_to(
                        self.grid.index_array(post), pre.shape
                    ).tolist()
            cached = (pre.tolist(), [by_cp[cp] for _op, cp in self._decisions])
            self._post_cache[gate_type] = cached
        return cached

    def _sens_table(self, gate_type: GateType) -> List[float]:
        """Side-input sensitization per sibling probability bucket (cached)."""
        cached = self._sens_cache.get(gate_type)
        if cached is None:
            cached = [
                side_input_sensitization_probability(gate_type, [v])
                for v in self.grid.values()
            ]
            self._sens_cache[gate_type] = cached
        return cached

    # -------------------------------------------------------- table build
    def _demand(self, key: _Key) -> Dict[int, _Cell]:
        """Table ``key``, building it and every table it reads first.

        An explicit work stack replaces recursion, so tree depth is
        unbounded.  Each stack frame holds a table waiting for its
        children and the generator of the children it still reads; a
        table is built once that generator runs dry.  Children are built
        in the order the enumeration first reads them, so the set of
        tables and the budget's tick/charge sequence are those of a
        depth-first recursion.
        """
        tables = self._tables
        if key in tables:
            return tables[key]
        budget = self.budget
        if budget is not None:
            budget.tick("dp.table")
        stack = [(key, self._missing_children(key))]
        while stack:
            top, missing = stack[-1]
            child = next(missing, None)
            if child is None:
                stack.pop()
                self._build(top)
                continue
            if budget is not None:
                budget.tick("dp.table")
            stack.append((child, self._missing_children(child)))
        return tables[key]

    def _missing_children(self, key: _Key) -> Iterator[_Key]:
        """Yield the unbuilt child tables ``key`` reads, in first-read order.

        Which tables a binary gate reads depends on its children's
        contents, so the caller must build each yielded table before
        resuming.  A group with a cached stream read all its tables when
        the stream was made.
        """
        name, o_idx = key
        node = self.circuit.node(name)
        if not node.fanins:
            return
        tables = self._tables
        child_key = self._key
        check0, check1 = self._enforced_at(name)
        for wire_obs, ds, o_free in self._groups(o_idx, check0 or check1):
            if o_free and (name, wire_obs, ds) in self._streams:
                continue
            if len(node.fanins) == 1:
                ck = child_key(node.fanins[0], self.grid.floor_index(wire_obs))
                if ck not in tables:
                    yield ck
                continue
            child_a, child_b = node.fanins
            top_o, ob_of = self._child_obs(node.gate_type, wire_obs)
            o_a_of = self._pinned(child_a, ob_of)
            o_b_of = self._pinned(child_b, ob_of)
            ka = child_key(child_a, top_o)
            if ka not in tables:
                yield ka
            seen_b = set()
            for pa_idx in tables[ka]:
                kb = (child_b, o_b_of[pa_idx])
                if kb in seen_b:
                    continue  # same child-b table, same child-a reads
                seen_b.add(kb)
                if kb not in tables:
                    yield kb
                for pb_idx in tables[kb]:
                    k = (child_a, o_a_of[pb_idx])
                    if k not in tables:
                        yield k

    def _build(self, key: _Key) -> None:
        """Fill table ``key`` from its (already built) child tables.

        Evaluation order is the tie contract: groups in first-appearance
        order; within a group, child-a buckets in child-a key order, then
        child-b buckets in child-b key order, then decisions in
        decision-space order.  A bucket keeps the position of its first
        feasible candidate, and a later candidate replaces the winner only
        when cheaper by more than 1e-12.  Each group's candidates arrive as
        the records of :meth:`_stream`; o-free groups reuse the node's
        cached stream.
        """
        name, o_idx = key
        node = self.circuit.node(name)
        check0, check1 = self._enforced_at(name)
        streams = self._streams
        table: Dict[int, _Cell] = {}
        get = table.get
        enumerated = 0
        for wire_obs, ds, o_free in self._groups(o_idx, check0 or check1):
            if o_free:
                stream_key = (name, wire_obs, ds)
                stream = streams.get(stream_key)
                if stream is None:
                    stream = self._stream(node, wire_obs, ds, check0, check1)
                    streams[stream_key] = stream
            else:
                stream = self._stream(node, wire_obs, ds, check0, check1)
            records, n = stream
            enumerated += n
            for p_idx, cell in records:
                cur = get(p_idx)
                if cur is None or cell[0] < cur[0] - 1e-12:
                    table[p_idx] = cell

        self._tables[key] = table
        self._table_cells += len(table)
        self._decisions_enumerated += enumerated
        if self.budget is not None:
            self.budget.charge("dp_cells", len(table), "dp.table")

    def _stream(
        self,
        node: Node,
        wire_obs: float,
        ds: Tuple[int, ...],
        check0: bool,
        check1: bool,
    ) -> _Stream:
        """One decision group's candidates, reduced to those that can win.

        Returns ``(records, enumerated)``: the candidates, in evaluation
        order, that undercut every earlier candidate of their bucket, and
        the number of decisions the group enumerates (the ``decisions``
        statistic).  Under the 1e-12 rule a winner's cost never exceeds an
        earlier candidate's by more than 1e-12, so only such a strict
        prefix minimum can ever replace it; a bucket's first candidate is
        always one.  Replaying the records therefore builds the same cells
        in the same key order as replaying every candidate.
        """
        theta = self.threshold - 1e-12
        dcost = self._decision_costs
        n_ds = len(ds)
        best: Dict[int, float] = {}
        get = best.get
        records: List[Tuple[int, _Cell]] = []
        record = records.append
        enumerated = 0

        if not node.fanins:
            if node.is_input:
                p_pre = self._leaf_probability(node.name)
            else:  # tie cell
                p_pre = 1.0 if node.gate_type is GateType.CONST1 else 0.0
            if check0 and p_pre * wire_obs < theta:
                return records, 0
            if check1 and (1.0 - p_pre) * wire_obs < theta:
                return records, 0
            for d in ds:
                cp = self._decisions[d][1]
                p_idx = self.grid.index(
                    control_probability_transform(cp, p_pre) if cp else p_pre
                )
                cost = dcost[d]
                cur = get(p_idx)
                if cur is None or cost < cur:
                    best[p_idx] = cost
                    record((p_idx, (cost, d)))
            return records, n_ds

        tables = self._tables
        if len(node.fanins) == 1:
            child = node.fanins[0]
            pre, post = self._post_tables(node.gate_type, 1)
            # Unary gates pass observability through unchanged.
            o_c = self._key(child, self.grid.floor_index(wire_obs))[1]
            specs = [(post[d], dcost[d], d) for d in ds]
            for pc_idx, centry in tables[(child, o_c)].items():
                p_pre = pre[pc_idx]
                if check0 and p_pre * wire_obs < theta:
                    continue
                if check1 and (1.0 - p_pre) * wire_obs < theta:
                    continue
                enumerated += n_ds
                base = centry[0]
                for post_d, dc, d in specs:
                    p_idx = post_d[pc_idx]
                    cost = base + dc
                    cur = get(p_idx)
                    if cur is None or cost < cur:
                        best[p_idx] = cost
                        record((p_idx, (cost, d, o_c, pc_idx)))
            return records, enumerated

        child_a, child_b = node.fanins
        prob, post = self._post_tables(node.gate_type, 2)
        top_o, ob_of = self._child_obs(node.gate_type, wire_obs)
        o_a_of = self._pinned(child_a, ob_of)
        o_b_of = self._pinned(child_b, ob_of)
        # Child-a tables by the child-b bucket that selects them.
        a_of = [tables.get((child_a, o)) for o in o_a_of]
        for pa_idx in tables[self._key(child_a, top_o)]:
            o_b = o_b_of[pa_idx]
            table_b = tables[(child_b, o_b)]
            if not table_b:
                continue
            row = prob[pa_idx]
            specs = [(post[d][pa_idx], dcost[d], d) for d in ds]
            for pb_idx, bentry in table_b.items():
                aentry = a_of[pb_idx].get(pa_idx)
                if aentry is None:
                    continue
                p_pre = row[pb_idx]
                if check0 and p_pre * wire_obs < theta:
                    continue
                if check1 and (1.0 - p_pre) * wire_obs < theta:
                    continue
                enumerated += n_ds
                base = aentry[0] + bentry[0]
                for post_d, dc, d in specs:
                    p_idx = post_d[pb_idx]
                    cost = base + dc
                    cur = get(p_idx)
                    if cur is None or cost < cur:
                        best[p_idx] = cost
                        record(
                            (p_idx, (cost, d, o_a_of[pb_idx], pa_idx, o_b, pb_idx))
                        )
        return records, enumerated

    # ------------------------------------------------------------------
    def _roots(self) -> List[str]:
        return [
            name
            for name in self.circuit.topological_order()
            if self.circuit.fanout_count(name) == 0
            and name not in self._floating_inputs
        ]

    def solve(self) -> TPISolution:
        """Run the DP and return the minimum-cost placement."""
        with obs.span(
            "dp.solve",
            circuit=self.circuit.name,
            grid_size=len(self.grid),
            threshold=self.threshold,
        ) as sp:
            picks: List[Tuple[str, int, int]] = []
            feasible = True
            for root in self._roots():
                env = self._root_obs.get(root, 1.0)
                key = self._key(root, self.grid.floor_index(env))
                table = self._demand(key)
                if not table:
                    feasible = False
                    continue
                best_p = min(table, key=lambda p: (table[p][0], p))
                picks.append((*key, best_p))

            points: List[TestPoint] = []
            stack = list(picks)
            while stack:
                name, o_idx, p_idx = stack.pop()
                entry = self._tables[(name, o_idx)][p_idx]
                op, cp = self._decisions[entry[1]]
                if op:
                    points.append(TestPoint(name, TestPointType.OBSERVATION))
                if cp is not None:
                    points.append(TestPoint(name, cp))
                fanins = self.circuit.node(name).fanins
                for i, child in enumerate(fanins):
                    stack.append((child, entry[2 + 2 * i], entry[3 + 2 * i]))

            sp.set(
                table_cells=self._table_cells,
                decisions=self._decisions_enumerated,
                feasible=feasible,
                points=len(points),
            )
        obs.count("dp.solves")
        obs.count("dp.table_cells", self._table_cells)
        obs.count("dp.tables", len(self._tables))
        obs.count("dp.decisions", self._decisions_enumerated)
        obs.gauge("dp.grid_size", len(self.grid))
        if obs.enabled():
            # Per-node state-space sizes: how many (o, p) cells each
            # memoized table actually carries under the pruning.
            for table in self._tables.values():
                obs.observe("dp.states_per_node", len(table))

        return TPISolution(
            points=points,
            cost=self.problem.costs.total(points) if feasible else float("inf"),
            feasible=feasible,
            method="dp",
            stats={
                "table_cells": float(self._table_cells),
                "tables": float(len(self._tables)),
                "decisions": float(self._decisions_enumerated),
                "grid_size": float(len(self.grid)),
            },
        )


def quantized_tree_check(
    problem: TPIProblem,
    points: Sequence[TestPoint],
    grid: Optional[ProbabilityGrid] = None,
    root_observabilities: Optional[Mapping[str, float]] = None,
    leaf_probabilities: Optional[Mapping[str, float]] = None,
    enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
    margin: float = 1.0,
) -> bool:
    """Feasibility of a placement under the DP's *quantized* algebra.

    Mirrors the DP's rounding exactly (probabilities round to nearest,
    observabilities floor at every parent→child handoff), so exhaustive
    search over placements scored by this function optimizes precisely the
    objective the DP optimizes — the apples-to-apples optimality oracle of
    experiment T2.  Only stem placements are meaningful on trees.
    """
    solver = DPSolver(
        problem,
        grid=grid,
        root_observabilities=root_observabilities,
        leaf_probabilities=leaf_probabilities,
        enforced_faults=enforced_faults,
        margin=margin,
    )
    grid = solver.grid
    circuit = problem.circuit
    by_site: Dict[str, List[TestPoint]] = {}
    for tp in points:
        if tp.branch is not None:
            raise ValueError("tree placements are stem-only")
        by_site.setdefault(tp.node, []).append(tp)

    def site_decision(name: str) -> _Decision:
        tps = by_site.get(name, ())
        op = any(t.kind is TestPointType.OBSERVATION for t in tps)
        controls = [t.kind for t in tps if t.kind.is_control]
        if len(controls) > 1:
            raise ValueError(f"multiple control points at {name!r}")
        return (op, controls[0] if controls else None)

    # Forward pass: quantized downstream probabilities.
    p_pre: Dict[str, float] = {}
    p_post_q: Dict[str, float] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.is_input:
            pre = solver._leaf_probability(name)
        elif not node.fanins:
            pre = 1.0 if node.gate_type is GateType.CONST1 else 0.0
        else:
            pre = output_probability(
                node.gate_type, [p_post_q[fi] for fi in node.fanins]
            )
        _op, cp = site_decision(name)
        post = control_probability_transform(cp, pre) if cp else pre
        p_pre[name] = pre
        p_post_q[name] = grid.quantize(post)

    # Backward pass: quantized environment observabilities + fault checks.
    root_obs = dict(root_observabilities or {})
    out_set = set(circuit.outputs)
    o_env: Dict[str, float] = {}
    order = circuit.topological_order()
    for name in reversed(order):
        if circuit.fanout_count(name) == 0:
            env = grid.value(grid.floor_index(root_obs.get(name, 1.0)))
        else:
            env = o_env[name]
        if name in out_set:
            env = 1.0
        op, cp = site_decision(name)
        factor = control_observability_factor(cp) if cp else 1.0
        wire = DPSolver._combine(1.0 if op else 0.0, factor * env)
        if not solver._faults_ok(name, p_pre[name], wire):
            return False
        node = circuit.node(name)
        for pin, fi in enumerate(node.fanins):
            side = [
                p_post_q[other]
                for p, other in enumerate(node.fanins)
                if p != pin
            ]
            sens = side_input_sensitization_probability(node.gate_type, side)
            o_env[fi] = grid.value(grid.floor_index(wire * sens))
    return True


def solve_tree(
    problem: TPIProblem,
    grid: Optional[ProbabilityGrid] = None,
    root_observabilities: Optional[Mapping[str, float]] = None,
    leaf_probabilities: Optional[Mapping[str, float]] = None,
    enforced_faults: Optional[Mapping[str, Tuple[bool, bool]]] = None,
    margin: float = 1.0,
    budget: Optional[Budget] = None,
) -> TPISolution:
    """Convenience wrapper: construct a :class:`DPSolver` and solve.

    ``margin > 1`` makes the DP plan against ``θ × margin``, buying back the
    quantization slack so solutions also satisfy the *continuous* COP model
    (margin ≈ 1.5–2 suffices empirically; see the verification tests).

    Under an ambient :class:`repro.verify.GuardedSession` the returned
    solution is independently certified — re-checked with
    :func:`quantized_tree_check` under this solve's exact grid and
    context — before being handed back.
    """
    solution = DPSolver(
        problem,
        grid=grid,
        root_observabilities=root_observabilities,
        leaf_probabilities=leaf_probabilities,
        enforced_faults=enforced_faults,
        margin=margin,
        budget=budget,
    ).solve()
    # Runtime-lazy: repro.verify imports solver modules.
    from ..verify.certify import maybe_certify

    def dp_check(points) -> bool:
        return quantized_tree_check(
            problem,
            points,
            grid=grid,
            root_observabilities=root_observabilities,
            leaf_probabilities=leaf_probabilities,
            enforced_faults=enforced_faults,
            margin=margin,
        )

    dp_context = {
        "grid_values": list(grid.values()) if grid is not None else None,
        "root_observabilities": (
            dict(root_observabilities)
            if root_observabilities is not None
            else None
        ),
        "leaf_probabilities": (
            dict(leaf_probabilities) if leaf_probabilities is not None else None
        ),
        "enforced_faults": (
            {k: list(v) for k, v in enforced_faults.items()}
            if enforced_faults is not None
            else None
        ),
        "margin": margin,
    }
    return maybe_certify(
        problem, solution, dp_check=dp_check, dp_context=dp_context
    )
