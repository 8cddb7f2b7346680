"""Pattern-parallel stuck-at fault simulation with cone-restricted events.

On the interpreted kernel each fault re-evaluates only its fanout cone (in
levelized order) against cached good-circuit values, with all patterns
packed into single integer words — i.e. single-fault propagation, all
patterns in parallel, the PPSFP-style organization classic fault
simulators use.  That per-fault walk is the arbiter.

The numpy kernel factors every block by fanout-free region (stem-region
fault simulation).  A fault inside a region reaches the rest of the
circuit only by flipping the region's root, so its word at the root
follows from good values alone: the excitation word, ANDed with every
side input's non-controlling value on the one path up to the root.  One
flip machine per live root then observes the rest of the circuit, and a
fault is detected where its root word and its root's observation word
are both set.  :func:`repro.sim.npsim.fault_batch_declined` picks, per
block, whether the root machines run through one fault-parallel sweep
(:func:`repro.sim.npsim.propagate_batch`) or walk on the interpreter.
Every path starts from the same good machine: the interpreted
:class:`~repro.sim.logic_sim.LogicSimulator`'s int words, which a
batched block packs into its matrix.

Key outputs:

* per-fault **detection word** (bit ``p`` set iff pattern ``p`` detects);
* per-fault **first detecting pattern**, from which cumulative coverage
  curves (the figures of the evaluation) are derived;
* plain coverage numbers over a collapsed fault list.

Two run modes:

* :meth:`FaultSimulator.run` — exact: every fault sees every pattern, full
  detection words (needed by response compaction and detection-probability
  estimates);
* :meth:`FaultSimulator.run_coverage` — coverage-only with **fault
  dropping**: patterns are applied in blocks and a fault detected in one
  block is dropped from all later blocks.  First-detect indices stay exact;
  detection words become partial (only the first detecting block's bits).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..circuit.gates import GateType, evaluate_gate
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from ..resilience import Budget
from . import npsim
from .bitops import ones_mask
from .compile import resolve_kernel
from .faults import CollapsedFaultSet, Fault, collapse_faults
from .logic_sim import LogicSimulator

__all__ = [
    "FaultSimResult",
    "FaultSimulator",
    "fault_coverage",
]

#: Sensitization kinds of an in-region pin: a flip passes an AND/NAND
#: sink where every side input is 1, an OR/NOR sink where every side
#: input is 0, and NOT, BUF, XOR and XNOR sinks always.
_PASS, _AND, _OR = 0, 1, 2
_SENS_KIND = {
    GateType.AND: _AND,
    GateType.NAND: _AND,
    GateType.OR: _OR,
    GateType.NOR: _OR,
}


@dataclass
class FaultSimResult:
    """Outcome of one fault-simulation run.

    Attributes
    ----------
    n_patterns:
        Number of patterns applied.
    detection_word:
        Map fault → packed word; bit ``p`` is 1 iff pattern ``p`` detects
        the fault at some primary output.  Under fault dropping
        (``coverage_only=True``) only the bits of the first detecting
        block are present — the word is still truthy iff detected.
    first_detect:
        Map fault → index of the first detecting pattern (``None`` if the
        fault escapes all patterns).  Exact in both run modes.
    coverage_only:
        True when the run used fault dropping, i.e. detection words are
        partial and per-pattern detection probabilities are unavailable.

    The result is treated as immutable once the run that built it returns:
    the detected count and the sorted first-detect indices are computed
    once and cached, so ``coverage()`` / ``coverage_at()`` /
    ``coverage_curve()`` cost O(1) / O(log F) per query instead of O(F).
    """

    n_patterns: int
    detection_word: Dict[Fault, int] = field(default_factory=dict)
    first_detect: Dict[Fault, Optional[int]] = field(default_factory=dict)
    coverage_only: bool = False
    _n_detected: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_first: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def faults(self) -> List[Fault]:
        """The simulated fault list."""
        return list(self.detection_word)

    def detected_faults(self) -> List[Fault]:
        """Faults detected by at least one pattern."""
        return [f for f, w in self.detection_word.items() if w]

    def undetected_faults(self) -> List[Fault]:
        """Faults that escaped every pattern."""
        return [f for f, w in self.detection_word.items() if not w]

    def n_detected(self) -> int:
        """Number of detected faults (cached after the first query)."""
        if self._n_detected is None:
            self._n_detected = sum(1 for w in self.detection_word.values() if w)
        return self._n_detected

    def coverage(self) -> float:
        """Fraction of faults detected (1.0 when the fault list is empty)."""
        if not self.detection_word:
            return 1.0
        return self.n_detected() / len(self.detection_word)

    def coverage_at(self, n: int) -> float:
        """Coverage after only the first ``n`` patterns."""
        if not self.detection_word:
            return 1.0
        if self._sorted_first is None:
            self._sorted_first = sorted(
                fd for fd in self.first_detect.values() if fd is not None
            )
        return bisect_left(self._sorted_first, n) / len(self.detection_word)

    def coverage_curve(
        self, checkpoints: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, float]]:
        """Cumulative ``(pattern_count, coverage)`` series.

        Defaults to powers of two up to ``n_patterns`` (plus the endpoint),
        matching the log-x coverage plots of the BIST literature.
        """
        if checkpoints is None:
            checkpoints = []
            n = 1
            while n < self.n_patterns:
                checkpoints.append(n)
                n *= 2
            checkpoints.append(self.n_patterns)
        return [(n, self.coverage_at(n)) for n in checkpoints]

    def detection_probability(self, fault: Fault) -> float:
        """Empirical per-pattern detection probability of ``fault``.

        Requires full detection words, so it refuses coverage-only results.
        """
        if self.coverage_only:
            raise SimulationError(
                "detection_probability needs full detection words; "
                "this result came from a fault-dropping (coverage-only) run"
            )
        return self.detection_word[fault].bit_count() / self.n_patterns


class FaultSimulator:
    """Stuck-at fault simulator bound to one circuit.

    The good-circuit values are computed once per stimulus; on the
    interpreted kernel each fault then re-evaluates only its fanout cone,
    and on numpy each block is factored by fanout-free region
    (:meth:`_factored_words`).

    ``guard`` (or an ambient :class:`repro.verify.GuardedSession`)
    shadow-re-executes a sampled fraction of numpy results through the
    interpreted per-fault walk and raises
    :class:`~repro.errors.DivergenceError` on any mismatch.
    """

    def __init__(
        self,
        circuit: Circuit,
        kernel: Optional[str] = None,
        guard=None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.kernel = resolve_kernel(kernel)
        self._guard = guard
        # Runtime-lazy: repro.verify imports this module.
        from ..verify.guard import active_guard

        self._active_guard = active_guard
        self._revision = circuit.revision
        self._logic = LogicSimulator(circuit)
        self._np_plan = (
            npsim.get_plan(circuit) if self.kernel == "numpy" else None
        )
        self._level = circuit.levels()
        self._out_set = set(circuit.outputs)
        # Flat per-node lookups for the propagation hot loop (the Circuit
        # accessors copy defensively, which costs on every visited gate).
        self._fanins: Dict[str, Tuple[str, ...]] = {}
        self._gate_types: Dict[str, object] = {}
        self._fanout_counts: Dict[str, int] = {}
        for name in circuit.topological_order():
            node = circuit.node(name)
            self._fanins[name] = tuple(node.fanins)
            self._gate_types[name] = node.gate_type
            self._fanout_counts[name] = circuit.fanout_count(name)
        self._masks: Dict[int, int] = {}
        # Levelized fanout-cone orders by start node.  The interpreted
        # kernel walks a cone per collapsed fault — nearly every site — so
        # it builds every node's order in one reverse-topological pass on
        # first use; numpy walks start at few sites (region roots), each
        # ordered on first use.
        self._cone_orders: Dict[str, List[str]] = {}
        # Fanout-free region links (numpy only, built on first use):
        # non-root line -> (sink, sensitization kind, side inputs), every
        # node -> its region root, every node -> its distinct sinks.
        self._regions: Optional[tuple] = None
        #: Faulty-machine gate evaluations performed over this
        #: simulator's lifetime (each one is word-parallel over the
        #: pattern budget) — the unit of fault-sim throughput.  Walks
        #: count the gates they evaluate; the batch counts gate rows ×
        #: root machines of its sweeps; a branch fault's injection is one.
        self.gate_evals = 0
        #: Faulty machines simulated: one per fault on the interpreted
        #: kernel, one per live region root (:meth:`_factored_words`) on
        #: numpy.
        self.machines = 0

    # ------------------------------------------------------------------
    def _cone_order(self, start: str) -> List[str]:
        """Gates in the fanout cone of ``start``, levelized (incl. start)."""
        order = self._cone_orders.get(start)
        if order is None:
            if self._np_plan is None:
                self._cone_orders = self._build_cone_orders()
                return self._cone_orders[start]
            order = self._cone_orders[start] = self._dfs_cone_order(start)
        return order

    def _dfs_cone_order(self, start: str) -> List[str]:
        """One cone order: a DFS over sinks, sorted by plan row (the plan
        lays rows out level by level)."""
        sinks = self._region_links()[2]
        seen = {start}
        stack = [start]
        while stack:
            for sink in sinks[stack.pop()]:
                if sink not in seen:
                    seen.add(sink)
                    stack.append(sink)
        row = self._np_plan.row
        names = self._np_plan._row_names
        return [names[r] for r in sorted(row[name] for name in seen)]

    def _build_cone_orders(self) -> Dict[str, List[str]]:
        """All cone orders at once, in a single reverse-topological pass.

        A node's order is itself followed by the level-sorted merge of its
        sinks' (already built) orders; merging sorted streams with a dedup
        of equal-key duplicates replaces the per-node DFS + sort the old
        cache paid on every distinct fault site.
        """
        level = self._level

        def key(name: str) -> Tuple[int, str]:
            return level[name], name

        orders: Dict[str, List[str]] = {}
        for name in reversed(self.circuit.topological_order()):
            sinks = sorted(
                {s for s, _pin in self.circuit.fanouts(name)}, key=key
            )
            order = [name]
            if sinks:
                last: Optional[str] = None
                # Duplicates share an exact (level, name) key, so the merge
                # emits them adjacently and the `last` check removes them.
                for member in heapq.merge(
                    *(orders[s] for s in sinks), key=key
                ):
                    if member != last:
                        order.append(member)
                        last = member
            orders[name] = order
        return orders

    def simulate_fault_responses(
        self,
        fault: Fault,
        good_values: Mapping[str, int],
        n_patterns: int,
    ) -> Dict[str, int]:
        """Per-output difference words of one fault.

        Returns a map primary output → packed word whose bit ``p`` is set
        iff the fault flips that output under pattern ``p`` (the faulty
        response is ``good ^ diff``).  Needed by response compaction, where
        *which* outputs flip decides whether a signature aliases.
        """
        diffs: Dict[str, int] = {po: 0 for po in self.circuit.outputs}
        self._propagate(fault, good_values, n_patterns, diffs)
        return diffs

    def simulate_fault(
        self,
        fault: Fault,
        good_values: Mapping[str, int],
        n_patterns: int,
    ) -> int:
        """Return the packed detection word of one fault.

        ``good_values`` must come from a prior fault-free :meth:`run` of the
        same stimulus (any node → word mapping covering the whole circuit).
        """
        return self._propagate(fault, good_values, n_patterns, None)

    def _mask(self, n_patterns: int) -> int:
        mask = self._masks.get(n_patterns)
        if mask is None:
            mask = self._masks[n_patterns] = ones_mask(n_patterns)
        return mask

    def _propagate(
        self,
        fault: Fault,
        good_values: Mapping[str, int],
        n_patterns: int,
        output_diffs: Optional[Dict[str, int]],
    ) -> int:
        """Walk one fault (the interpreted path, on every kernel).

        Returns the combined detection word; when ``output_diffs`` is a
        dict it is additionally filled with per-output difference words.
        """
        self._check_revision()
        mask = self._mask(n_patterns)
        stuck_word = mask if fault.value else 0

        if fault.branch is None:
            start = fault.node
            if good_values[start] == stuck_word:
                return 0  # fault never excited anywhere
            injected = stuck_word
        else:
            start, pin = fault.branch
            fanin_words = [
                stuck_word if p == pin else good_values[fi]
                for p, fi in enumerate(self._fanins[start])
            ]
            injected = evaluate_gate(self._gate_types[start], fanin_words, mask)
            self.gate_evals += 1
            if injected == good_values[start]:
                return 0

        return self._interp_propagate(
            start, injected, good_values, mask, output_diffs
        )

    def _check_revision(self) -> None:
        if self.circuit.revision != self._revision:
            raise SimulationError(
                f"circuit {self.circuit.name!r} was structurally modified "
                f"after this fault simulator was built (revision "
                f"{self._revision} -> {self.circuit.revision}); "
                "create a new simulator"
            )

    def _block_words(
        self,
        faults: Sequence[Fault],
        good_values: Mapping[str, int],
        n_patterns: int,
        budget: Optional[Budget],
        where: str,
        beat: Callable[[int, int], None],
    ) -> List[int]:
        """Detection words of one block of faults.

        The interpreted kernel walks each fault's cone; numpy factors the
        block by fanout-free region (:meth:`_factored_words`) and
        simulates its root machines batched or walked, as
        :func:`~repro.sim.npsim.fault_batch_declined` picks.  The block
        is counted under ``dispatch.fault_sim.*``.  ``budget`` is charged
        ``n_patterns`` per fault before that fault is simulated, and
        ``beat(done, charged)`` reports progress at the same points.
        """

        def tick(i: int) -> None:
            if budget is not None:
                budget.charge("patterns", n_patterns, where)
            beat(i, i + 1)

        if self._np_plan is None:
            obs.count("dispatch.fault_sim.walk.interp")
            words = []
            for i, fault in enumerate(faults):
                tick(i)
                words.append(
                    self._propagate(fault, good_values, n_patterns, None)
                )
            self.machines += len(faults)
            return words

        mask = self._mask(n_patterns)

        def simulate(roots: List[str]) -> List[int]:
            reason = npsim.fault_batch_declined(
                self._np_plan, len(roots), n_patterns
            )
            if reason is None:
                obs.count("dispatch.fault_sim.batch")
                return self._batch_roots(roots, good_values, n_patterns)
            obs.count("dispatch.fault_sim.walk." + reason)
            return [
                self._interp_propagate(
                    root, good_values[root] ^ mask, good_values, mask, None
                )
                for root in roots
            ]

        words = self._factored_words(
            faults, good_values, n_patterns, simulate, tick
        )
        guard = self._active_guard(self._guard)
        if guard is not None:
            for i in guard.sampled(len(faults)):
                self._shadow_check(
                    guard, faults[i], good_values, n_patterns, words[i]
                )
        return words

    def _region_links(self) -> tuple:
        """``(up, root_of, sinks)`` of the fanout-free regions.

        A node is a region *root* if it is a primary output or does not
        drive exactly one gate pin (as in
        :func:`~repro.circuit.analysis.fanout_free_regions`, primary
        inputs included).  Every other line has one sink pin, and
        ``up[line]`` is ``(sink, kind, sides)``: the sensitization kind
        of that pin (:data:`_AND` / :data:`_OR` side inputs must sit at
        1 / 0, :data:`_PASS` always propagates) and the sink's other
        fan-ins.  ``root_of`` maps every node to its region's root.
        """
        if self._regions is None:
            circuit = self.circuit
            up: Dict[str, Tuple[str, int, Tuple[str, ...]]] = {}
            root_of: Dict[str, str] = {}
            sinks: Dict[str, Tuple[str, ...]] = {}
            for name in reversed(circuit.topological_order()):
                fanouts = circuit.fanouts(name)
                sinks[name] = tuple(dict.fromkeys(s for s, _pin in fanouts))
                if name in self._out_set or len(fanouts) != 1:
                    root_of[name] = name
                    continue
                sink, pin = fanouts[0]
                kind = _SENS_KIND.get(self._gate_types[sink], _PASS)
                fanins = self._fanins[sink]
                sides = fanins[:pin] + fanins[pin + 1 :] if kind else ()
                up[name] = (sink, kind, sides)
                root_of[name] = root_of[sink]
            self._regions = (up, root_of, sinks)
        return self._regions

    def _sensitization(
        self,
        line: str,
        good_values: Mapping[str, int],
        mask: int,
        memo: Dict[str, int],
    ) -> int:
        """Patterns at which flipping ``line`` flips its region root.

        Walks up the line's one path to the root, ANDing in every side
        input's non-controlling value (good values decide it, since no
        side input of an in-region path lies in the line's cone), and
        memoizes every line it passes in ``memo``, so a block's walks
        cost one step per line of the regions they touch.
        """
        up = self._regions[0]
        path = []
        sens = mask
        while line in up:
            known = memo.get(line)
            if known is not None:
                sens = known
                break
            path.append(line)
            line = up[line][0]
        for line in reversed(path):
            _sink, kind, sides = up[line]
            if sens and kind == _AND:
                for side in sides:
                    sens &= good_values[side]
            elif sens and kind == _OR:
                for side in sides:
                    sens &= ~good_values[side]
            memo[line] = sens
        return sens

    def _factored_words(
        self,
        faults: Sequence[Fault],
        good_values: Mapping[str, int],
        n_patterns: int,
        simulate: Callable[[List[str]], List[int]],
        tick: Callable[[int], None] = lambda _i: None,
    ) -> List[int]:
        """Detection words of ``faults``, one machine per region root.

        A fault inside a fanout-free region reaches the rest of the
        circuit only by flipping the region's root, so at each pattern
        it is detected iff its effect reaches the root and flipping the
        root is observed.  Per fault this computes the entry word (stem:
        ``good ^ stuck`` at the node; branch: ``good ^`` the sink
        re-evaluated with the stuck pin, one gate evaluation) and ANDs it
        with the entry's :meth:`_sensitization`.  ``simulate(roots)``
        then returns the observation word of flipping each distinct root
        that a live word reaches (primary outputs need no machine: their
        flip is observed at every pattern), and each fault's word is
        ANDed with its root's.  ``tick(i)`` runs before fault ``i``.
        Exact, because patterns are independent bits.
        """
        self._check_revision()
        mask = self._mask(n_patterns)
        up, root_of, _sinks = self._region_links()
        fanins_of = self._fanins
        gate_types = self._gate_types
        memo: Dict[str, int] = {}
        roots: List[str] = []
        words: List[int] = []
        for i, fault in enumerate(faults):
            tick(i)
            stuck = mask if fault.value else 0
            if fault.branch is None:
                entry = fault.node
                word = good_values[entry] ^ stuck
            else:
                entry, pin = fault.branch
                word = good_values[entry] ^ evaluate_gate(
                    gate_types[entry],
                    [
                        stuck if p == pin else good_values[fi]
                        for p, fi in enumerate(fanins_of[entry])
                    ],
                    mask,
                )
                self.gate_evals += 1
            if word and entry in up:
                word &= self._sensitization(entry, good_values, mask, memo)
            roots.append(root_of[entry])
            words.append(word)
        out_set = self._out_set
        machines = list(
            dict.fromkeys(
                root
                for root, word in zip(roots, words)
                if word and root not in out_set
            )
        )
        self.machines += len(machines)
        observed = dict(zip(machines, simulate(machines)))
        return [
            word & observed[root] if root in observed else word
            for root, word in zip(roots, words)
        ]

    def _batch_roots(
        self,
        roots: Sequence[str],
        good_values: Mapping[str, int],
        n_patterns: int,
    ) -> List[int]:
        """Observation words of flipping ``roots``, in one batched sweep."""
        if not roots:
            return []
        state = npsim.PackedState(self._np_plan, good_values, n_patterns)
        row = self._np_plan.row
        detect, evals = npsim.propagate_batch(
            state, [row[root] for root in roots]
        )
        self.gate_evals += evals
        return npsim.rows_to_words(detect)

    def _interp_propagate(
        self,
        start: str,
        injected: int,
        good_values: Mapping[str, int],
        mask: int,
        output_diffs: Optional[Dict[str, int]],
    ) -> int:
        """Interpreted event-driven cone walk (the batch's arbiter)."""
        out_set = self._out_set
        faulty: Dict[str, int] = {}
        detect = 0

        faulty[start] = injected
        if start in out_set:
            detect = good_values[start] ^ injected
            if output_diffs is not None:
                output_diffs[start] = detect & mask

        # Walk the precomputed levelized cone order past the injection
        # site; a gate is (re-)evaluated exactly when some fanin's word
        # changed, which is the same trigger an event-driven worklist
        # would use — gate_evals counts are identical, without the heap.
        # ``events`` counts changed-driver → sink-pin edges not yet
        # consumed; when it hits zero no later gate can see a changed
        # fanin, so the walk stops (fault effects died out).
        fanins_of = self._fanins
        gate_types = self._gate_types
        fanout_counts = self._fanout_counts
        events = fanout_counts[start]
        if not events:
            return detect & mask
        for name in self._cone_order(start):
            if not events:
                break
            if name == start:
                continue
            fins = fanins_of[name]
            changed = 0
            for fi in fins:
                if fi in faulty:
                    changed += 1
            if not changed:
                continue
            events -= changed
            fanin_words = [faulty.get(fi, good_values[fi]) for fi in fins]
            new_word = evaluate_gate(gate_types[name], fanin_words, mask)
            self.gate_evals += 1
            if new_word == good_values[name]:
                continue
            faulty[name] = new_word
            events += fanout_counts[name]
            if name in out_set:
                diff = good_values[name] ^ new_word
                detect |= diff
                if output_diffs is not None:
                    output_diffs[name] = diff & mask
        return detect & mask

    def _shadow_check(
        self,
        guard,
        fault: Fault,
        good_values: Mapping[str, int],
        n_patterns: int,
        detect: int,
    ) -> None:
        """Re-run one factored detection word as the per-fault walk.

        The arbiter's gate evaluations are rolled back from ``gate_evals``
        so throughput counters keep measuring real (fast-path) work.
        """
        saved_evals = self.gate_evals
        try:
            expected = self._propagate(fault, good_values, n_patterns, None)
        finally:
            self.gate_evals = saved_evals
        guard.checks += 1
        if expected == detect:
            obs.count("guard.checks")
            return
        from ..verify.bundle import fault_to_payload

        start = fault.node if fault.branch is None else fault.branch[0]
        guard.diverge(
            "fault_sim.cone",
            expected=expected,
            actual=detect,
            circuit=self.circuit,
            context={
                "fault": fault_to_payload(fault),
                "n_patterns": n_patterns,
                "good_values": dict(good_values),
                "variant": "detect",
                "start": start,
                "kernel": self.kernel,
            },
            message=(
                f"{self.kernel} region-factored detection for {start!r} "
                f"disagrees with the interpreted walk on fault {fault}"
            ),
        )

    # ------------------------------------------------------------------
    def _resolve_faults(
        self, faults: Optional[Sequence[Fault]], collapse: bool
    ) -> Sequence[Fault]:
        """Default / validate the fault list shared by both run modes."""
        if faults is None:
            if collapse:
                return collapse_faults(self.circuit).representatives
            from .faults import all_stuck_at_faults

            return all_stuck_at_faults(self.circuit)
        foreign = [f for f in faults if f.node not in self.circuit]
        if foreign:
            raise SimulationError(
                f"fault list names nodes absent from circuit "
                f"{self.circuit.name!r}: "
                f"{sorted({f.node for f in foreign})[:5]}"
            )
        return faults

    def run(
        self,
        stimulus: Mapping[str, int],
        n_patterns: int,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
        budget: Optional[Budget] = None,
        good_values: Optional[Mapping[str, int]] = None,
    ) -> FaultSimResult:
        """Fault-simulate a stimulus set (exact: no fault dropping).

        Parameters
        ----------
        stimulus:
            Map primary input → packed pattern word.
        n_patterns:
            Number of pattern bits in the stimulus.
        faults:
            Fault list; defaults to the full stuck-at list of the circuit.
        collapse:
            When True (default) and ``faults`` is None, the list is
            equivalence-collapsed first.
        budget:
            Optional cooperative budget; ``patterns`` is charged
            ``n_patterns`` per fault propagated (one word-parallel pass),
            so the limit bounds total pattern-fault simulations.
        good_values:
            Precomputed fault-free node words for this exact stimulus
            (from :class:`~repro.sim.logic_sim.LogicSimulator`).  Lets
            parallel workers replay shared good-circuit words instead of
            each re-simulating the good machine.
        """
        if n_patterns <= 0:
            raise SimulationError("n_patterns must be positive")
        faults = self._resolve_faults(faults, collapse)
        with obs.span(
            "fault_sim.run",
            circuit=self.circuit.name,
            n_patterns=n_patterns,
            n_faults=len(faults),
        ) as sp:
            start = perf_counter()
            evals_before = self.gate_evals
            machines_before = self.machines
            if good_values is None:
                good_values = self._logic.run(stimulus, n_patterns)
            result = FaultSimResult(n_patterns=n_patterns)
            detected = 0
            heartbeat = obs.Heartbeat("fault_sim.run")
            total = len(faults)
            words = self._block_words(
                faults, good_values, n_patterns, budget, "fault_sim.fault",
                lambda done, _charged: heartbeat.beat(
                    faults_done=done, faults_total=total
                ),
            )
            heartbeat.beat(faults_done=total, faults_total=total)
            for fault, word in zip(faults, words):
                result.detection_word[fault] = word
                result.first_detect[fault] = _first_set_bit(word)
                if word:
                    detected += 1
            result._n_detected = detected
            seconds = perf_counter() - start
            evals = self.gate_evals - evals_before
            machines = self.machines - machines_before
            sp.set(
                detected=detected,
                gate_evals=evals,
                machines=machines,
                seconds=seconds,
            )
        obs.count("fault_sim.runs")
        obs.count("fault_sim.patterns", n_patterns)
        obs.count("fault_sim.faults", len(faults))
        obs.count("fault_sim.machines", machines)
        # "Dropped" in the fault-dropping sense: a detected fault would be
        # removed from any subsequent pass over the same list.
        obs.count("fault_sim.dropped", detected)
        obs.count("fault_sim.undetected", len(faults) - detected)
        obs.count("fault_sim.gate_evals", evals)
        if seconds > 0.0:
            obs.gauge("fault_sim.gate_evals_per_sec", evals / seconds)
        obs.observe("fault_sim.run_seconds", seconds)
        return result

    def coverage_blocks(
        self,
        stimulus: Mapping[str, int],
        n_patterns: int,
        block: int = 64,
    ):
        """Yield ``(block_size, good_values)`` pairs for dropping blocks.

        Blocks follow :meth:`run_coverage`'s geometric schedule (doubling
        from ``block``).  Only the stimulus is split per block: each
        input's word is laid out as bytes once, and a block reads just
        the bytes covering it (one shift, one mask), so slicing a block
        costs time linear in its own bits.  The good machine is then
        logic-simulated at block width, so the combined good-simulation
        bit-work across all blocks equals one full-width pass — no
        upfront full-width run, and no per-block slicing of every
        internal node's word.  Lazy, so a consumer that drops its whole
        fault list early never pays for the late, wide blocks.
        """
        if block <= 0:
            raise SimulationError("block must be positive")
        sizes: List[int] = []
        covered = 0
        blk = block
        while covered < n_patterns:
            size = min(blk, n_patterns - covered)
            sizes.append(size)
            covered += size
            blk *= 2
        full = ones_mask(n_patterns)
        n_bytes = (n_patterns + 7) // 8
        raw = {
            name: (stimulus.get(name, 0) & full).to_bytes(n_bytes, "little")
            for name in self.circuit.inputs
        }
        offset = 0
        for blk_n in sizes:
            lo, shift = divmod(offset, 8)
            hi = (offset + blk_n + 7) // 8
            lo_mask = ones_mask(blk_n)
            stim_block = {
                name: (int.from_bytes(data[lo:hi], "little") >> shift)
                & lo_mask
                for name, data in raw.items()
            }
            offset += blk_n
            yield blk_n, self._logic.run(stim_block, blk_n)

    def run_coverage(
        self,
        stimulus: Mapping[str, int],
        n_patterns: int,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
        budget: Optional[Budget] = None,
        block: int = 64,
        good_blocks: Optional[Sequence[Tuple[int, Mapping[str, int]]]] = None,
    ) -> FaultSimResult:
        """Coverage-oriented fault simulation with fault dropping.

        Patterns are applied in blocks; a fault detected in one block is
        **dropped** — never simulated against later blocks.  Coverage and
        first-detect indices are identical to :meth:`run` on the same
        stimulus (each block applies exactly the stimulus bits the exact
        run would), but the work saved scales with how early faults are
        detected — on a well-tested circuit most faults cost one small
        block instead of the whole budget.

        Blocks grow geometrically (doubling from ``block``), which keeps
        the easy-fault prefix small while bounding the overhead on faults
        that never drop: an undetected fault sees only O(log n) block
        passes whose combined word width equals the full budget, instead
        of ``n/block`` fixed-size passes.

        The result has ``coverage_only=True``: detection words only carry
        the first detecting block's bits, so per-pattern detection
        probabilities are unavailable.

        Parameters
        ----------
        stimulus, n_patterns, faults, collapse:
            As for :meth:`run`.
        budget:
            Optional cooperative budget; ``patterns`` is charged per fault
            per block actually simulated, so dropping directly reduces the
            charge.
        block:
            Patterns in the first dropping block (default 64, a machine
            word); later blocks double.
        good_blocks:
            Precomputed ``(block_size, good_values)`` pairs from
            :meth:`coverage_blocks` for this exact stimulus and ``block``
            schedule.  Lets parallel workers share one good-machine
            simulation instead of each redoing the per-block logic sims.
        """
        if n_patterns <= 0:
            raise SimulationError("n_patterns must be positive")
        if block <= 0:
            raise SimulationError("block must be positive")
        faults = self._resolve_faults(faults, collapse)
        with obs.span(
            "fault_sim.run_coverage",
            circuit=self.circuit.name,
            n_patterns=n_patterns,
            n_faults=len(faults),
            block=block,
        ) as sp:
            start = perf_counter()
            evals_before = self.gate_evals
            machines_before = self.machines
            result = FaultSimResult(n_patterns=n_patterns, coverage_only=True)
            remaining = list(faults)
            sims = 0
            if good_blocks is None:
                good_blocks = self.coverage_blocks(stimulus, n_patterns, block)
            offset = 0
            heartbeat = obs.Heartbeat("fault_sim.run_coverage")
            block_iter = iter(good_blocks)
            while remaining:
                # Checked before drawing the next block: once every fault
                # has dropped, the good machine for the (wide) tail of the
                # schedule is never simulated.
                nxt = next(block_iter, None)
                if nxt is None:
                    break
                blk_n, good_block = nxt
                words = self._block_words(
                    remaining, good_block, blk_n, budget, "fault_sim.block",
                    lambda _done, charged: heartbeat.beat(
                        block_patterns=blk_n,
                        pattern_offset=offset,
                        faults_remaining=len(remaining),
                        fault_block_sims=sims + charged,
                    ),
                )
                sims += len(remaining)
                survivors: List[Fault] = []
                for fault, word in zip(remaining, words):
                    if word:
                        result.detection_word[fault] = word << offset
                        result.first_detect[fault] = (
                            offset + _first_set_bit(word)
                        )
                    else:
                        survivors.append(fault)
                remaining = survivors
                offset += blk_n
            for fault in remaining:
                result.detection_word[fault] = 0
                result.first_detect[fault] = None
            # Restore the input fault-list order for downstream iteration.
            result.detection_word = {
                f: result.detection_word[f] for f in faults
            }
            result.first_detect = {f: result.first_detect[f] for f in faults}
            detected = len(faults) - len(remaining)
            result._n_detected = detected
            seconds = perf_counter() - start
            evals = self.gate_evals - evals_before
            machines = self.machines - machines_before
            sp.set(
                detected=detected,
                gate_evals=evals,
                machines=machines,
                seconds=seconds,
                fault_block_sims=sims,
            )
        obs.count("fault_sim.runs")
        obs.count("fault_sim.patterns", n_patterns)
        obs.count("fault_sim.faults", len(faults))
        obs.count("fault_sim.machines", machines)
        obs.count("fault_sim.dropped", detected)
        obs.count("fault_sim.undetected", len(faults) - detected)
        obs.count("fault_sim.gate_evals", evals)
        if seconds > 0.0:
            obs.gauge("fault_sim.gate_evals_per_sec", evals / seconds)
        obs.observe("fault_sim.run_seconds", seconds)
        return result


def _first_set_bit(word: int) -> Optional[int]:
    """Index of the least significant set bit, or None when word == 0."""
    if word == 0:
        return None
    return (word & -word).bit_length() - 1


def fault_coverage(
    circuit: Circuit,
    stimulus: Mapping[str, int],
    n_patterns: int,
    faults: Optional[Sequence[Fault]] = None,
) -> float:
    """One-shot collapsed stuck-at coverage of a stimulus set.

    Uses the fault-dropping coverage path; the number is identical to an
    exact run's ``coverage()``.
    """
    return (
        FaultSimulator(circuit)
        .run_coverage(stimulus, n_patterns, faults=faults)
        .coverage()
    )
