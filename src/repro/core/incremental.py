"""Incremental placement evaluation: re-propagate only the dirty region.

:func:`repro.core.virtual.evaluate_placement` recomputes both COP passes
over the whole circuit for every candidate placement — thousands of
from-scratch O(|C|) evaluations inside the greedy candidate loop, the
region re-planning loop, and the phase scheduler.  This module provides
the same numbers at a fraction of the cost by caching the passes for a
*base* placement and, when a placement differing at a few sites is
evaluated, re-propagating:

* **controllability** forward through the fanout cone of each dirty site
  only, stopping early the moment a recomputed value equals the cached
  one (exact float equality — downstream values are then provably
  identical);
* **observability** backward through the affected fan-in region: sites
  whose point set changed, plus the drivers of any gate whose input
  probabilities moved (their side-input sensitization shifted).

Because every recomputed value uses the same formulas in the same order
as the full evaluator, and untouched values are carried over verbatim,
the incremental result is **bit-identical** to ``evaluate_placement`` —
the property tests assert exact equality, so the from-scratch evaluator
remains the single ground-truth arbiter while the solvers run on this
fast path.

The :meth:`IncrementalEvaluator.candidate_gains` entry point additionally
avoids materializing a :class:`VirtualEvaluation` at all: only faults on
wires whose excitation or observability changed can change feasibility
status, so scoring a candidate is O(dirty region + affected faults)
instead of O(|C| + |F|).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..circuit.gates import (
    output_probability,
    side_input_sensitization_probability,
)
from ..sim import npsim
from ..sim.compile import resolve_kernel
from ..sim.faults import Fault, all_stuck_at_faults
from .problem import (
    TestPoint,
    TestPointType,
    TPIProblem,
    control_observability_factor,
    control_probability_transform,
)
from .virtual import (
    WIRE_MAPS,
    VirtualEvaluation,
    evaluate_placement,
    split_placement,
)

__all__ = ["IncrementalEvaluator"]

_BranchKey = Tuple[str, str, int]
#: Per-site point summary: (control kind or None, observed?).
_SiteState = Tuple[Optional[TestPointType], bool]


def _site_states(
    points: Sequence[TestPoint],
) -> Tuple[Dict[str, _SiteState], Dict[_BranchKey, _SiteState]]:
    """Collapse a placement to per-site (control, observed) summaries."""
    stem_points, branch_points = split_placement(points)
    stems: Dict[str, _SiteState] = {}
    branches: Dict[_BranchKey, _SiteState] = {}
    for node, tps in stem_points.items():
        stems[node] = (_control_of(tps), _observed(tps))
    for key, tps in branch_points.items():
        branches[key] = (_control_of(tps), _observed(tps))
    return stems, branches


def _control_of(tps: Sequence[TestPoint]) -> Optional[TestPointType]:
    for t in tps:
        if t.kind.is_control:
            return t.kind
    return None


def _observed(tps: Sequence[TestPoint]) -> bool:
    return any(t.kind is TestPointType.OBSERVATION for t in tps)


_NO_POINT: _SiteState = (None, False)


def _combine(contributions: List[float]) -> float:
    escape = 1.0
    for c in contributions:
        escape *= 1.0 - c
    return 1.0 - escape


class IncrementalEvaluator:
    """Cached COP passes for a base placement, with fast delta evaluation.

    Parameters
    ----------
    problem:
        The TPI instance (the circuit is never mutated).
    base_points:
        The placement the cache is built for.  :meth:`rebase` moves it.
    faults:
        Fault list used by the failing-fault bookkeeping (default: the
        circuit's full stuck-at list).  Only relevant for
        :meth:`failing_faults` / :meth:`candidate_gains`.
    """

    def __init__(
        self,
        problem: TPIProblem,
        base_points: Sequence[TestPoint] = (),
        faults: Optional[Sequence[Fault]] = None,
        kernel: Optional[str] = None,
        guard=None,
    ) -> None:
        self.problem = problem
        #: Optional explicit shadow-verification guard; an ambient
        #: :class:`repro.verify.GuardedSession` applies when ``None``.
        self._guard = guard
        # Runtime-lazy: repro.verify imports this module.
        from ..verify.guard import active_guard

        self._active_guard = active_guard
        #: Kernel mode for the from-scratch base passes (``rebase``) and
        #: the delta re-propagation: on numpy, ``evaluate()`` and
        #: :meth:`candidate_gains` both run level-synchronous array sweeps
        #: (:class:`repro.sim.npsim.PlacementBatch`) while the interpreted
        #: heap walk stays the shadow-sampled arbiter.  The walk also
        #: serves ``kernel="interp"`` and narrow-level circuits, which pay
        #: the engine's fixed per-level cost without amortizing it over
        #: wide slices (``npsim.placement_batch_declined`` decides per
        #: call).
        self.kernel = resolve_kernel(kernel)
        self.circuit = problem.circuit
        circuit = self.circuit
        self._plan: Optional[npsim.CircuitPlan] = (
            npsim.get_plan(circuit) if self.kernel == "numpy" else None
        )
        #: The vectorized delta engine, built by the first call the
        #: dispatch rule sends to it.
        self._batch: Optional[npsim.PlacementBatch] = None
        self._topo = circuit.topological_order()
        self._level = circuit.levels()
        self._node = {name: circuit.node(name) for name in self._topo}
        self._fanouts = {name: circuit.fanouts(name) for name in self._topo}
        self._out_set = set(circuit.outputs)
        if faults is None:
            faults = all_stuck_at_faults(circuit)
        self._faults = list(faults)
        # Wire → faults index (stem wires by node, branch wires by key).
        self._stem_faults: Dict[str, List[Fault]] = {}
        self._branch_faults: Dict[_BranchKey, List[Fault]] = {}
        for f in self._faults:
            if f.branch is None:
                self._stem_faults.setdefault(f.node, []).append(f)
            else:
                key = (f.node, f.branch[0], f.branch[1])
                self._branch_faults.setdefault(key, []).append(f)
        #: Cumulative statistics (deltas evaluated, nodes re-propagated,
        #: and what a from-scratch pass would have cost) — the speedup
        #: numerator/denominator of the perf benchmarks.
        self.stats: Dict[str, int] = {
            "deltas": 0,
            "rebases": 0,
            "nodes_recomputed": 0,
            "nodes_total": len(self._topo),
        }
        self.rebase(base_points)

    # ------------------------------------------------------------------
    # Base management
    # ------------------------------------------------------------------
    def rebase(self, points: Sequence[TestPoint]) -> VirtualEvaluation:
        """Recompute the cached base evaluation for ``points`` (full pass)."""
        self.stats["rebases"] += 1
        self.base_points = list(points)
        self.base = evaluate_placement(self.problem, points, kernel=self.kernel)
        self._base_stems, self._base_branches = _site_states(points)
        theta = self.problem.threshold - 1e-12
        self._failing: Set[Fault] = {
            f
            for f in self._faults
            if self.base.fault_detection(f) < theta
        }
        if self._batch is not None:
            self._rebase_batch()
        return self.base

    def _wire_counts(self, faults):
        """Fault counts per wire: ``(2, n_rows)`` stems and ``(2, n_edges)``
        branches, row 0 stuck-at-0 and row 1 stuck-at-1."""
        plan = self._plan
        stems = np.zeros((2, plan.n_rows), dtype=np.float64)
        branches = np.zeros((2, plan.n_edges), dtype=np.float64)
        for f in faults:
            if f.branch is None:
                stems[f.value, plan.row[f.node]] += 1
            else:
                branches[f.value, plan.edge_id[(f.node, *f.branch)]] += 1
        return stems, branches

    def _rebase_batch(self) -> None:
        """Hand the current base and its failing faults to the batch."""
        stems, branches = self._wire_counts(
            f for f in self._faults if f in self._failing
        )
        self._batch.rebase(
            self.base,
            self._base_stems,
            self._base_branches,
            control_observability_factor,
            stems.sum(axis=0),
            branches.sum(axis=0),
        )

    def _dispatch(
        self, pass_name: str, placements: int
    ) -> Optional[npsim.PlacementBatch]:
        """The batch when the dispatch rule gives it ``placements``
        placements, else ``None`` (the interpreted walk).

        :func:`~repro.sim.npsim.placement_batch_declined` decides on every
        call, and the choice is counted as
        ``dispatch.incremental.<pass_name>.batch`` or
        ``dispatch.incremental.<pass_name>.walk.<reason>``.
        """
        reason = npsim.placement_batch_declined(self._plan, placements)
        if reason is not None:
            obs.count(f"dispatch.incremental.{pass_name}.walk.{reason}")
            return None
        obs.count(f"dispatch.incremental.{pass_name}.batch")
        if self._batch is None:
            self._batch = npsim.PlacementBatch(
                self._plan,
                npsim.gain_batch_columns(self._plan),
                *self._wire_counts(self._faults),
            )
            self._rebase_batch()
        return self._batch

    def failing_faults(self) -> List[Fault]:
        """Failing faults of the base placement (cached, base fault list)."""
        return [f for f in self._faults if f in self._failing]

    # ------------------------------------------------------------------
    # Delta machinery
    # ------------------------------------------------------------------
    def _diff_sites(
        self, points: Sequence[TestPoint]
    ) -> Tuple[Dict[str, _SiteState], Dict[_BranchKey, _SiteState]]:
        """Sites where ``points`` differs from the base placement."""
        stems, branches = _site_states(points)
        stem_diff: Dict[str, _SiteState] = {}
        for site in stems.keys() | self._base_stems.keys():
            new = stems.get(site, _NO_POINT)
            if new != self._base_stems.get(site, _NO_POINT):
                stem_diff[site] = new
        branch_diff: Dict[_BranchKey, _SiteState] = {}
        for key in branches.keys() | self._base_branches.keys():
            new = branches.get(key, _NO_POINT)
            if new != self._base_branches.get(key, _NO_POINT):
                branch_diff[key] = new
        return stem_diff, branch_diff

    def _delta(
        self,
        stem_diff: Dict[str, _SiteState],
        branch_diff: Dict[_BranchKey, _SiteState],
    ) -> Tuple[
        Dict[str, float],
        Dict[str, float],
        Dict[_BranchKey, float],
        Dict[_BranchKey, float],
        Dict[str, float],
        Dict[_BranchKey, float],
        Dict[str, float],
    ]:
        """Re-propagate both passes from the dirty sites.

        Returns patch dictionaries (missing key = base value unchanged)
        for ``stem_pre``, ``stem_post``, ``branch_pre``, ``branch_post``,
        ``wire_obs``, ``branch_obs`` and ``stem_post_obs``.  One column of
        :class:`~repro.sim.npsim.PlacementBatch` when the dispatch rule
        takes it (counted as ``dispatch.incremental.delta.*``), shadowing
        a guard-sampled fraction against the interpreted walk.
        """
        batch = self._dispatch("delta", 1)
        if batch is None:
            return self._delta_interp(stem_diff, branch_diff)
        patches, recomputed = batch.delta(
            stem_diff,
            branch_diff,
            control_probability_transform,
            control_observability_factor,
        )
        self.stats["deltas"] += 1
        self.stats["nodes_recomputed"] += recomputed
        guard = self._active_guard(self._guard)
        if guard is not None and guard.should_check():
            self._shadow_delta_check(guard, stem_diff, branch_diff, patches)
        return patches

    def _shadow_delta_check(
        self,
        guard,
        stem_diff: Dict[str, _SiteState],
        branch_diff: Dict[_BranchKey, _SiteState],
        patches,
    ) -> None:
        """Compare one vectorized delta against the interpreted walk."""
        from ..verify.bundle import point_to_payload, problem_to_payload

        saved = dict(self.stats)
        try:
            expected = self._delta_interp(stem_diff, branch_diff)
        finally:
            self.stats.clear()
            self.stats.update(saved)
        guard.confirm(
            "incremental.delta",
            expected=dict(zip(WIRE_MAPS, expected)),
            actual=dict(zip(WIRE_MAPS, patches)),
            circuit=self.circuit,
            context={
                "problem": problem_to_payload(self.problem),
                "base_points": [point_to_payload(p) for p in self.base_points],
                "stem_diff": {
                    site: [state[0].name if state[0] else None, state[1]]
                    for site, state in sorted(stem_diff.items())
                },
                "branch_diff": {
                    repr(key): [state[0].name if state[0] else None, state[1]]
                    for key, state in sorted(branch_diff.items())
                },
                "kernel": self.kernel,
            },
            message=(
                "vectorized incremental delta disagrees with the "
                "interpreted dirty-cone walk"
            ),
        )

    def _delta_interp(
        self,
        stem_diff: Dict[str, _SiteState],
        branch_diff: Dict[_BranchKey, _SiteState],
    ):
        """The interpreted dirty-cone walk (ground-truth delta arbiter)."""
        base = self.base
        level = self._level
        recomputed = 0

        def stem_state(site: str) -> _SiteState:
            state = stem_diff.get(site)
            if state is None:
                state = self._base_stems.get(site, _NO_POINT)
            return state

        def branch_state(key: _BranchKey) -> _SiteState:
            state = branch_diff.get(key)
            if state is None:
                state = self._base_branches.get(key, _NO_POINT)
            return state

        # ---------------------------------------------------- forward
        stem_pre: Dict[str, float] = {}
        stem_post: Dict[str, float] = {}
        branch_pre: Dict[_BranchKey, float] = {}
        branch_post: Dict[_BranchKey, float] = {}

        def pin_probability(sink: str, pin: int, driver: str) -> float:
            key = (driver, sink, pin)
            patched = branch_post.get(key)
            if patched is not None:
                return patched
            return base.branch_post[key]

        # Seed with every forward-relevant dirty site, then run an
        # event-driven level-ordered sweep over the fanout cones.
        pending: Set[str] = set()
        heap: List[Tuple[int, str]] = []
        for site, state in stem_diff.items():
            if state[0] is not None or self._base_stems.get(site, _NO_POINT)[0] is not None:
                if site not in pending:
                    pending.add(site)
                    heapq.heappush(heap, (level[site], site))
        for key, state in branch_diff.items():
            if state[0] is not None or self._base_branches.get(key, _NO_POINT)[0] is not None:
                driver = key[0]
                if driver not in pending:
                    pending.add(driver)
                    heapq.heappush(heap, (level[driver], driver))

        while heap:
            _lvl, name = heapq.heappop(heap)
            pending.discard(name)
            recomputed += 1
            node = self._node[name]
            if node.is_input:
                p = self.problem.input_probability(name)
            else:
                p = output_probability(
                    node.gate_type,
                    [
                        pin_probability(name, pin, fi)
                        for pin, fi in enumerate(node.fanins)
                    ],
                )
            if p != base.stem_pre[name]:
                stem_pre[name] = p
            ctrl = stem_state(name)[0]
            post = control_probability_transform(ctrl, p) if ctrl else p
            if post != base.stem_post[name]:
                stem_post[name] = post
            for sink, pin in self._fanouts[name]:
                key = (name, sink, pin)
                bctrl = branch_state(key)[0]
                bpost = (
                    control_probability_transform(bctrl, post)
                    if bctrl
                    else post
                )
                if post != base.branch_pre[key]:
                    branch_pre[key] = post
                if bpost != base.branch_post[key]:
                    branch_post[key] = bpost
                    if sink not in pending:
                        pending.add(sink)
                        heapq.heappush(heap, (level[sink], sink))

        # --------------------------------------------------- backward
        wire_obs: Dict[str, float] = {}
        branch_obs: Dict[_BranchKey, float] = {}
        stem_post_obs: Dict[str, float] = {}

        def sink_obs(name: str) -> float:
            patched = wire_obs.get(name)
            if patched is not None:
                return patched
            return base.wire_obs[name]

        # Seeds: every dirty site's node, plus all drivers of any gate
        # whose input probabilities moved (their sensitization changed),
        # plus the driver of every node whose own probability changed
        # (covers single-fanin sinks where the side-product is empty but
        # branch_pre moved — harmless over-approximation otherwise).
        bpending: Set[str] = set()
        bheap: List[Tuple[int, str]] = []

        def bseed(name: str) -> None:
            if name not in bpending:
                bpending.add(name)
                heapq.heappush(bheap, (-level[name], name))

        for site in stem_diff:
            bseed(site)
        for key in branch_diff:
            bseed(key[0])
        for key in branch_post:
            sink = key[1]
            for fi in self._node[sink].fanins:
                bseed(fi)

        while bheap:
            _neg, name = heapq.heappop(bheap)
            bpending.discard(name)
            recomputed += 1
            post_contribs: List[float] = []
            if name in self._out_set:
                post_contribs.append(1.0)
            for sink, pin in self._fanouts[name]:
                key = (name, sink, pin)
                sink_node = self._node[sink]
                side_probs = [
                    pin_probability(sink, p, fi)
                    for p, fi in enumerate(sink_node.fanins)
                    if p != pin
                ]
                sens = side_input_sensitization_probability(
                    sink_node.gate_type, side_probs
                )
                pin_obs = sink_obs(sink) * sens
                bctrl, bobserved = branch_state(key)
                factor = control_observability_factor(bctrl) if bctrl else 1.0
                contribs = [factor * pin_obs]
                if bobserved:
                    contribs.append(1.0)
                b_obs = _combine(contribs)
                if b_obs != base.branch_obs[key]:
                    branch_obs[key] = b_obs
                post_contribs.append(b_obs)
            post = _combine(post_contribs) if post_contribs else 0.0
            if post != base.stem_post_obs[name]:
                stem_post_obs[name] = post
            ctrl, observed = stem_state(name)
            factor = control_observability_factor(ctrl) if ctrl else 1.0
            contribs = [factor * post]
            if observed:
                contribs.append(1.0)
            w_obs = _combine(contribs)
            if w_obs != base.wire_obs[name]:
                wire_obs[name] = w_obs
                for fi in self._node[name].fanins:
                    bseed(fi)

        self.stats["deltas"] += 1
        self.stats["nodes_recomputed"] += recomputed
        return (
            stem_pre,
            stem_post,
            branch_pre,
            branch_post,
            wire_obs,
            branch_obs,
            stem_post_obs,
        )

    # ------------------------------------------------------------------
    # Public evaluation API
    # ------------------------------------------------------------------
    def evaluate(self, points: Sequence[TestPoint]) -> VirtualEvaluation:
        """Evaluate an arbitrary placement, reusing the cached base passes.

        The result is bit-identical to
        ``evaluate_placement(problem, points)``; cost scales with the
        dirty region between ``points`` and the base placement.
        """
        stem_diff, branch_diff = self._diff_sites(points)
        if not stem_diff and not branch_diff:
            return VirtualEvaluation(
                problem=self.problem,
                points=sorted(points),
                stem_pre=dict(self.base.stem_pre),
                stem_post=dict(self.base.stem_post),
                wire_obs=dict(self.base.wire_obs),
                branch_pre=dict(self.base.branch_pre),
                branch_post=dict(self.base.branch_post),
                branch_obs=dict(self.base.branch_obs),
                stem_post_obs=dict(self.base.stem_post_obs),
            )
        (
            stem_pre,
            stem_post,
            branch_pre,
            branch_post,
            wire_obs,
            branch_obs,
            stem_post_obs,
        ) = self._delta(stem_diff, branch_diff)

        def merged(base_dict, patch):
            if not patch:
                return dict(base_dict)
            out = dict(base_dict)
            out.update(patch)
            return out

        result = VirtualEvaluation(
            problem=self.problem,
            points=sorted(points),
            stem_pre=merged(self.base.stem_pre, stem_pre),
            stem_post=merged(self.base.stem_post, stem_post),
            wire_obs=merged(self.base.wire_obs, wire_obs),
            branch_pre=merged(self.base.branch_pre, branch_pre),
            branch_post=merged(self.base.branch_post, branch_post),
            branch_obs=merged(self.base.branch_obs, branch_obs),
            stem_post_obs=merged(self.base.stem_post_obs, stem_post_obs),
        )
        guard = self._active_guard(self._guard)
        if guard is not None and guard.should_check():
            self._shadow_check(guard, points, result)
        return result

    def _shadow_check(
        self,
        guard,
        points: Sequence[TestPoint],
        result: VirtualEvaluation,
    ) -> None:
        """Compare one delta evaluation against a from-scratch full pass."""
        from ..verify.bundle import point_to_payload, problem_to_payload

        arbiter = evaluate_placement(self.problem, points, kernel="interp")
        guard.confirm(
            "incremental.evaluate",
            expected=arbiter.wire_maps(),
            actual=result.wire_maps(),
            circuit=self.circuit,
            context={
                "problem": problem_to_payload(self.problem),
                "base_points": [point_to_payload(p) for p in self.base_points],
                "points": [point_to_payload(p) for p in sorted(points)],
                "kernel": self.kernel,
            },
            message=(
                "incremental delta evaluation disagrees with the "
                "from-scratch interpreted pass"
            ),
        )

    def _candidate_diff(
        self, candidate: TestPoint
    ) -> Optional[Tuple[object, _SiteState]]:
        """The one site ``candidate`` changes and its new state.

        ``None`` when adding the candidate changes nothing (an
        observation point on an already-observed wire); ``ValueError``
        for a second control point on one wire.
        """
        if candidate.branch is None:
            site = candidate.node
            old = self._base_stems.get(site, _NO_POINT)
        else:
            site = (candidate.node, candidate.branch[0], candidate.branch[1])
            old = self._base_branches.get(site, _NO_POINT)
        if candidate.kind.is_control:
            if old[0] is not None:
                raise ValueError(
                    f"multiple control points on one wire at {candidate.node!r}"
                )
            new = (candidate.kind, old[1])
        else:
            new = (old[0], True)
        if new == old:
            return None
        return site, new

    def _site_gain(self, site, new: _SiteState) -> int:
        """Gain of one changed site, re-propagated by the interpreted walk."""
        if isinstance(site, tuple):
            patches = self._delta_interp({}, {site: new})
        else:
            patches = self._delta_interp({site: new}, {})
        (
            stem_pre,
            _stem_post,
            branch_pre,
            _branch_post,
            wire_obs,
            branch_obs,
            _stem_post_obs,
        ) = patches
        theta = self.problem.threshold - 1e-12
        base = self.base
        gain = 0
        touched_stems = stem_pre.keys() | wire_obs.keys()
        for name in touched_stems:
            faults = self._stem_faults.get(name)
            if not faults:
                continue
            p = stem_pre.get(name, base.stem_pre[name])
            o = wire_obs.get(name, base.wire_obs[name])
            for f in faults:
                excitation = p if f.value == 0 else (1.0 - p)
                fails_now = excitation * o < theta
                failed_before = f in self._failing
                if failed_before and not fails_now:
                    gain += 1
                elif not failed_before and fails_now:
                    gain -= 1
        touched_branches = branch_pre.keys() | branch_obs.keys()
        for key in touched_branches:
            faults = self._branch_faults.get(key)
            if not faults:
                continue
            p = branch_pre.get(key, base.branch_pre[key])
            o = branch_obs.get(key, base.branch_obs[key])
            for f in faults:
                excitation = p if f.value == 0 else (1.0 - p)
                fails_now = excitation * o < theta
                failed_before = f in self._failing
                if failed_before and not fails_now:
                    gain += 1
                elif not failed_before and fails_now:
                    gain -= 1
        return gain

    def candidate_gain(self, candidate: TestPoint) -> int:
        """Net failing-fault reduction of adding ``candidate`` to the base.

        Equals ``len(failing(base)) - len(failing(base + [candidate]))``
        over this evaluator's fault list, computed by re-checking only the
        faults that live on wires whose excitation or observability
        actually changed: :meth:`candidate_gains` of one candidate.
        """
        return self.candidate_gains([candidate])[0]

    def _walk_gain(self, candidate: TestPoint) -> int:
        """:meth:`candidate_gain` on the interpreted walk, stats untouched."""
        saved = dict(self.stats)
        try:
            diff = self._candidate_diff(candidate)
            if diff is None:
                return 0
            return self._site_gain(*diff)
        finally:
            self.stats.clear()
            self.stats.update(saved)

    def candidate_gains(
        self,
        candidates: Sequence[TestPoint],
        tick: Optional[Callable[[], None]] = None,
    ) -> List[int]:
        """:meth:`candidate_gain` of each candidate, against the same base.

        On the numpy kernel, when
        :func:`~repro.sim.npsim.placement_batch_declined` expects level
        sweeps over a chunk of candidate columns to beat walking them one
        at a time, the scores come from
        :class:`~repro.sim.npsim.PlacementBatch`; otherwise (and always
        on ``kernel="interp"``) each candidate is scored by the
        interpreted dirty-cone walk.  A call with live candidates is
        counted as ``dispatch.incremental.gains.*``.  Every candidate is
        validated before any is scored.  ``tick`` (a budget check) runs
        before each walked candidate and before each batch chunk.  Under a
        guard, each batched candidate flips one sampling coin, and a
        sampled one is re-scored on the interpreted walk.
        """
        diffs = [self._candidate_diff(c) for c in candidates]
        live = [i for i, diff in enumerate(diffs) if diff is not None]
        gains = [0] * len(candidates)
        if not live:
            return gains
        batch = self._dispatch("gains", len(live))
        if batch is None:
            for i in live:
                if tick is not None:
                    tick()
                gains[i] = self._site_gain(*diffs[i])
            return gains
        plan = self._plan
        sites = []
        for i in live:
            site, (ctrl, observed) = diffs[i]
            kind = candidates[i].kind
            branch = isinstance(site, tuple)
            sites.append((
                branch,
                plan.edge_id[site] if branch else plan.row[site],
                kind if kind.is_control else None,
                control_observability_factor(ctrl) if ctrl is not None else 1.0,
                0.0 if observed else 1.0,
            ))
        scored, recomputed = batch.gains(
            sites,
            control_probability_transform,
            self.problem.threshold - 1e-12,
            tick,
        )
        self.stats["deltas"] += len(live)
        self.stats["nodes_recomputed"] += recomputed
        guard = self._active_guard(self._guard)
        for i, gain in zip(live, scored):
            gains[i] = gain
            if guard is not None and guard.should_check():
                self._shadow_gain_check(guard, candidates, i, gain)
        return gains

    def _shadow_gain_check(
        self, guard, candidates: Sequence[TestPoint], index: int, gain: int
    ) -> None:
        """Compare one batched gain against the interpreted walk."""
        from ..verify.bundle import (
            fault_to_payload,
            point_to_payload,
            problem_to_payload,
        )

        expected = self._walk_gain(candidates[index])
        context = None
        if expected != gain:  # only a divergence needs the fault-list payload
            context = {
                "problem": problem_to_payload(self.problem),
                "base_points": [point_to_payload(p) for p in self.base_points],
                "faults": [fault_to_payload(f) for f in self._faults],
                "candidates": [point_to_payload(c) for c in candidates],
                "index": index,
                "kernel": self.kernel,
            }
        guard.confirm(
            "incremental.gains",
            expected=expected,
            actual=gain,
            circuit=self.circuit,
            context=context,
            message=(
                "batched candidate gain disagrees with the interpreted "
                "dirty-cone walk"
            ),
        )

    def commit(self, candidate: TestPoint) -> VirtualEvaluation:
        """Append ``candidate`` to the base placement and rebase."""
        result = self.rebase(self.base_points + [candidate])
        obs.count("incremental.commits")
        return result
