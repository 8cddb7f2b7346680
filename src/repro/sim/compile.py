"""Per-circuit compiled simulation kernels (codegen for the hot loops).

Every experiment ultimately bottoms out in one of three inner loops: the
levelized pattern-parallel gate walk (:class:`~repro.sim.logic_sim.
LogicSimulator`), the per-fault cone propagation (:class:`~repro.sim.
fault_sim.FaultSimulator`), and the COP probability passes
(:mod:`repro.testability.cop`, :func:`repro.core.virtual.
evaluate_placement`).  Interpreted, each visited gate pays dict lookups,
``GateType`` dispatch through :func:`~repro.circuit.gates.evaluate_gate`
or :func:`~repro.circuit.gates.output_probability`, and list building.

This module removes that per-gate overhead by *compiling the circuit
itself*: for a given netlist it generates Python source in which the
gates are flattened into straight-line local-variable expressions —
``v7 = (v3 & v5) ^ mask`` instead of an interpreted dispatch — and
``exec``s it into a callable.  Python's compiler then does the dispatch
once, at build time, and each call runs pure bytecode over locals.

Kernel flavors (generated lazily, each cached per circuit):

* **logic** — the fault-free machine: all gates in levelized order,
  returning the node → packed-word dict of ``LogicSimulator.run``;
* **cone:**\\ *node* — faulty-machine propagation specialized to one
  fault-site fanout cone, with the forced value at the site passed in as
  a parameter (one kernel serves both stuck polarities and every branch
  fault injected at that gate); the ``:diffs`` variant also returns
  per-output difference words for response compaction;
* **cop_fwd / cop_bwd** — the plain COP probability and observability
  passes of :mod:`repro.testability.cop`;
* **place** — the placement-aware forward+backward pass of
  :func:`repro.core.virtual.evaluate_placement`, with test-point site
  state supplied at call time (the netlist is compiled once per circuit,
  not once per placement).

Everything is **bit-identical** to the interpreted code: generated
expressions mirror the interpreter's operation order exactly (including
float evaluation order in the COP passes), and the property tests pin
every kernel to its interpreted ground truth on random circuits.  The
interpreted paths remain available behind ``kernel="interp"`` switches.

Caching and invalidation
------------------------
Kernels live in a process-wide registry keyed by
:meth:`~repro.circuit.netlist.Circuit.structural_hash`, so structurally
identical circuits share compiled code and a netlist rewrite (which bumps
the structural revision and therefore the hash) can never be served stale
kernels.  :func:`invalidate` / :func:`clear_registry` evict explicitly;
the registry is LRU-bounded.

Pickle strategy: compiled code objects do not pickle, generated *source*
does.  :class:`CompiledCircuit` therefore drops its callables on pickling
and keeps the source strings; :func:`seed_registry` lets the parallel
fault-sim workers adopt the parent's sources and rebuild the callables
on first use (see :mod:`repro.sim.parallel`).

Observability: ``kernel.compiles``, ``kernel.cache_hits``, and
``kernel.source_gens`` counters plus per-compile ``kernel.compile`` spans
show how the one-time codegen cost amortizes over a run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from ..errors import SimulationError

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_MODES",
    "CompiledCircuit",
    "resolve_kernel",
    "get_compiled",
    "seed_registry",
    "invalidate",
    "clear_registry",
    "registry_size",
    "generate_logic_source",
    "generate_cone_source",
    "generate_cop_forward_source",
    "generate_cop_backward_source",
    "generate_placement_source",
]

#: The kernel modes every simulation entry point accepts.
KERNEL_MODES = ("compiled", "interp", "numpy")

#: Process-wide default used when a ``kernel=None`` argument is passed.
DEFAULT_KERNEL = "compiled"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Default / validate a ``kernel=`` argument."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNEL_MODES:
        raise SimulationError(
            f"unknown kernel mode {kernel!r} (choose from {KERNEL_MODES})"
        )
    return kernel


# ---------------------------------------------------------------------------
# Compiled-kernel container and registry
# ---------------------------------------------------------------------------


class CompiledCircuit:
    """All compiled kernels of one circuit structure.

    Holds generated source strings (picklable) and the materialized
    callables (process-local, rebuilt from source on first use after a
    pickle round-trip).  Obtained via :func:`get_compiled`; keyed by the
    circuit's structural hash, so a mutated circuit maps to a *different*
    instance and can never reuse stale code.
    """

    def __init__(self, structural_hash: str, name: str) -> None:
        self.structural_hash = structural_hash
        self.name = name
        #: kernel key → generated Python source (pickles; code doesn't).
        self.sources: Dict[str, str] = {}
        #: cone kernel key → number of gate evaluations per invocation
        #: (keeps the ``gate_evals`` throughput counter meaningful).
        self.cone_meta: Dict[str, int] = {}
        self._fns: Dict[str, Callable] = {}
        # Registry entries are shared across threads; generation/exec of
        # one kernel must happen exactly once (RLock: ``generate`` may
        # recurse into this entry for a sibling kernel).
        self._lock = threading.RLock()

    # -- pickling: ship sources, rebuild callables lazily ---------------
    def __getstate__(self) -> Dict[str, object]:
        return {
            "structural_hash": self.structural_hash,
            "name": self.name,
            "sources": dict(self.sources),
            "cone_meta": dict(self.cone_meta),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.structural_hash = state["structural_hash"]  # type: ignore[assignment]
        self.name = state["name"]  # type: ignore[assignment]
        self.sources = dict(state["sources"])  # type: ignore[arg-type]
        self.cone_meta = dict(state["cone_meta"])  # type: ignore[arg-type]
        self._fns = {}
        self._lock = threading.RLock()

    # -- kernel access ---------------------------------------------------
    def function(self, key: str, generate: Callable[[], str]) -> Callable:
        """The callable for ``key``, generating/compiling if needed.

        ``generate`` is invoked only when no source is cached yet (it may
        also record ``cone_meta``); a cached source is re-``exec``'d
        without regeneration — the worker-rebuild path.
        """
        fn = self._fns.get(key)
        if fn is not None:
            obs.count("kernel.cache_hits")
            return fn
        with self._lock:
            fn = self._fns.get(key)
            if fn is not None:  # lost the race; the winner compiled it
                obs.count("kernel.cache_hits")
                return fn
            source = self.sources.get(key)
            if source is None:
                source = generate()
                self.sources[key] = source
                obs.count("kernel.source_gens")
            fn = self._materialize(key, source)
            self._fns[key] = fn
            return fn

    def _materialize(self, key: str, source: str) -> Callable:
        with obs.span("kernel.compile", circuit=self.name, kernel=key):
            namespace: Dict[str, object] = {}
            code = compile(source, f"<kernel {self.name}:{key}>", "exec")
            exec(code, namespace)  # noqa: S102 - self-generated source only
        obs.count("kernel.compiles")
        return namespace["kernel"]  # type: ignore[return-value]

    def compiled_keys(self) -> List[str]:
        """Keys whose callables are materialized in this process."""
        return sorted(self._fns)


#: structural hash → CompiledCircuit, LRU-bounded (simulators keep their
#: own reference, so eviction only drops the shared cache entry).  All
#: access goes through ``_REGISTRY_LOCK``: the registry is process-global
#: and e.g. a thread pool fanning incremental evaluators out over one
#: circuit hits it concurrently.
_REGISTRY: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
_REGISTRY_CAP = 128
_REGISTRY_LOCK = threading.RLock()


def get_compiled(circuit: Circuit) -> CompiledCircuit:
    """The (shared) compiled-kernel container for ``circuit``'s structure.

    Thread-safe: concurrent callers for the same structure receive the
    same :class:`CompiledCircuit`, whose own lock serializes kernel
    materialization.
    """
    key = circuit.structural_hash()
    with _REGISTRY_LOCK:
        entry = _REGISTRY.get(key)
        if entry is None:
            entry = CompiledCircuit(key, circuit.name)
            _REGISTRY[key] = entry
            while len(_REGISTRY) > _REGISTRY_CAP:
                _REGISTRY.popitem(last=False)
        else:
            _REGISTRY.move_to_end(key)
        return entry


def seed_registry(
    circuit: Circuit,
    sources: Dict[str, str],
    cone_meta: Optional[Dict[str, int]] = None,
) -> CompiledCircuit:
    """Adopt pre-generated kernel sources for ``circuit`` (worker priming).

    Existing sources win (never overwrite already-validated code); the
    callables are rebuilt lazily on first use.
    """
    entry = get_compiled(circuit)
    with entry._lock:
        for key, source in sources.items():
            entry.sources.setdefault(key, source)
        if cone_meta:
            for key, n in cone_meta.items():
                entry.cone_meta.setdefault(key, n)
    return entry


def invalidate(circuit: Circuit) -> bool:
    """Drop the registry entry for ``circuit``'s current structure."""
    with _REGISTRY_LOCK:
        return _REGISTRY.pop(circuit.structural_hash(), None) is not None


def clear_registry() -> None:
    """Evict every cached compiled circuit (tests / memory pressure)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()


def registry_size() -> int:
    """Number of circuit structures currently cached."""
    with _REGISTRY_LOCK:
        return len(_REGISTRY)


# ---------------------------------------------------------------------------
# Expression emitters — packed bitwise words
# ---------------------------------------------------------------------------
# All node words are invariantly masked (every PI and every emitted gate
# expression yields a value <= mask), so AND/OR/XOR need no re-masking and
# inversions are a single ``^ mask``.  Results are exactly the integers
# ``evaluate_gate`` produces.


def _word_expr(gate_type: GateType, vs: Sequence[str]) -> str:
    if gate_type is GateType.AND:
        return " & ".join(vs)
    if gate_type is GateType.OR:
        return " | ".join(vs)
    if gate_type is GateType.NAND:
        return f"{' & '.join(vs)} ^ mask"
    if gate_type is GateType.NOR:
        # ``|`` binds looser than ``^`` — parenthesize before inverting.
        return f"({' | '.join(vs)}) ^ mask"
    if gate_type is GateType.XOR:
        return " ^ ".join(vs)
    if gate_type is GateType.XNOR:
        return f"{' ^ '.join(vs)} ^ mask"
    if gate_type is GateType.NOT:
        return f"{vs[0]} ^ mask"
    if gate_type is GateType.BUF:
        return vs[0]
    if gate_type is GateType.CONST0:
        return "0"
    if gate_type is GateType.CONST1:
        return "mask"
    raise SimulationError(f"cannot compile gate type {gate_type!r}")


# ---------------------------------------------------------------------------
# Expression emitters — COP float arithmetic
# ---------------------------------------------------------------------------
# These mirror output_probability / side_input_sensitization_probability /
# the combine() folds OPERATION FOR OPERATION, in the same order, so the
# compiled floats are bit-identical to the interpreted ones.  The only
# algebraic simplification applied is dropping a leading ``1.0 *`` factor
# (IEEE-exact for every float) and the first XOR fold from 0.0 (exact up
# to the sign of zero, which compares equal and cannot change any
# downstream magnitude).


def _emit_prob(
    lines: List[str],
    indent: str,
    target: str,
    gate_type: GateType,
    ps: Sequence[str],
    tmp_prefix: str,
) -> None:
    """Append statements computing ``target`` = P[gate = 1] from ``ps``."""
    if gate_type is GateType.AND:
        expr = " * ".join(ps)
    elif gate_type is GateType.NAND:
        expr = f"1.0 - {' * '.join(ps)}"
    elif gate_type is GateType.OR:
        expr = f"1.0 - {' * '.join(f'(1.0 - {p})' for p in ps)}"
    elif gate_type is GateType.NOR:
        expr = " * ".join(f"(1.0 - {p})" for p in ps)
    elif gate_type in (GateType.XOR, GateType.XNOR):
        acc = ps[0]
        for j, q in enumerate(ps[1:]):
            t = f"{tmp_prefix}_{j}"
            lines.append(
                f"{indent}{t} = {acc} * (1.0 - {q}) + {q} * (1.0 - {acc})"
            )
            acc = t
        expr = f"1.0 - {acc}" if gate_type is GateType.XNOR else acc
    elif gate_type is GateType.NOT:
        expr = f"1.0 - {ps[0]}"
    elif gate_type is GateType.BUF:
        expr = ps[0]
    elif gate_type is GateType.CONST0:
        expr = "0.0"
    elif gate_type is GateType.CONST1:
        expr = "1.0"
    else:
        raise SimulationError(f"cannot compile gate type {gate_type!r}")
    lines.append(f"{indent}{target} = {expr}")


def _sens_expr(gate_type: GateType, side_ps: Sequence[str]) -> str:
    """Side-input sensitization product (parenthesized, ready to multiply)."""
    if gate_type in (GateType.AND, GateType.NAND):
        return f"({' * '.join(side_ps)})" if side_ps else "1.0"
    if gate_type in (GateType.OR, GateType.NOR):
        if not side_ps:
            return "1.0"
        return f"({' * '.join(f'(1.0 - {p})' for p in side_ps)})"
    if gate_type in (GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF):
        return "1.0"
    raise SimulationError(
        f"gate type {gate_type!r} has no observability transfer"
    )


def _or_combine_expr(contribs: Sequence[str]) -> str:
    """``1 - Π(1 - c)`` fold, in contribution order (COP stem combine)."""
    if not contribs:
        return "0.0"
    return f"1.0 - {' * '.join(f'(1.0 - {c})' for c in contribs)}"


# ---------------------------------------------------------------------------
# Source generators
# ---------------------------------------------------------------------------


def generate_logic_source(circuit: Circuit) -> str:
    """Good-machine kernel: ``kernel(stim, mask) -> {node: word}``.

    Matches ``LogicSimulator.run(stimulus, n)`` with no forces: missing
    inputs default to 0, all words masked, dict insertion order identical
    (inputs first, then gates in levelized order).
    """
    topo = circuit.topological_order()
    idx = {name: i for i, name in enumerate(topo)}
    lines = ["def kernel(stim, mask):", "    sg = stim.get"]
    entries: List[Tuple[str, str]] = []
    for name in circuit.inputs:
        v = f"v{idx[name]}"
        lines.append(f"    {v} = sg({name!r}, 0) & mask")
        entries.append((name, v))
    for name in topo:
        node = circuit.node(name)
        if node.is_input:
            continue
        v = f"v{idx[name]}"
        expr = _word_expr(node.gate_type, [f"v{idx[fi]}" for fi in node.fanins])
        lines.append(f"    {v} = {expr}")
        entries.append((name, v))
    lines.append("    return {")
    for name, v in entries:
        lines.append(f"        {name!r}: {v},")
    lines.append("    }")
    return "\n".join(lines) + "\n"


def generate_cone_source(
    circuit: Circuit,
    start: str,
    order: Sequence[str],
    variant: str = "detect",
) -> Tuple[str, int]:
    """Faulty-cone kernel specialized to the fanout cone of ``start``.

    ``kernel(gv, fstart, mask)`` takes the good-machine words and the
    forced word at ``start`` (the injection point parameter: the stuck
    word for stem faults, the re-evaluated gate output for branch faults)
    and straight-line evaluates the cone; out-of-cone fan-ins read the
    hoisted good words.  Returns the combined detection word
    (``variant="detect"``) or ``(detect, ((output, diff), ...))``
    (``variant="diffs"``).  Also returns the per-invocation gate-eval
    count for throughput accounting.
    """
    if variant not in ("detect", "diffs"):
        raise SimulationError(f"unknown cone kernel variant {variant!r}")
    if not order or order[0] != start:
        raise SimulationError(f"cone order must start at {start!r}")
    topo_idx = {name: i for i, name in enumerate(circuit.topological_order())}
    cone = set(order)
    out_set = set(circuit.outputs)

    # Good words needed: every out-of-cone fan-in, plus the good value of
    # every cone member that is a primary output (for the diff).
    needed: List[str] = []
    seen = set()

    def need(name: str) -> str:
        if name not in seen:
            seen.add(name)
            needed.append(name)
        return f"g{topo_idx[name]}"

    body: List[str] = []
    diff_terms: List[Tuple[str, str]] = []  # (output name, diff expr/var)
    body.append(f"    f{topo_idx[start]} = fstart")
    if start in out_set:
        diff_terms.append((start, f"f{topo_idx[start]} ^ {need(start)}"))
    n_gates = 0
    for name in order[1:]:
        node = circuit.node(name)
        vs = [
            f"f{topo_idx[fi]}" if fi in cone else need(fi)
            for fi in node.fanins
        ]
        body.append(f"    f{topo_idx[name]} = {_word_expr(node.gate_type, vs)}")
        n_gates += 1
        if name in out_set:
            diff_terms.append((name, f"f{topo_idx[name]} ^ {need(name)}"))

    lines = ["def kernel(gv, fstart, mask):"]
    for name in needed:
        lines.append(f"    g{topo_idx[name]} = gv[{name!r}]")
    lines.extend(body)
    if variant == "detect":
        if diff_terms:
            joined = " | ".join(f"({expr})" for _n, expr in diff_terms)
            lines.append(f"    return {joined}")
        else:
            lines.append("    return 0")
    else:
        dvars = []
        for name, expr in diff_terms:
            d = f"d{topo_idx[name]}"
            lines.append(f"    {d} = {expr}")
            dvars.append((name, d))
        detect = " | ".join(d for _n, d in dvars) if dvars else "0"
        pairs = ", ".join(f"({name!r}, {d})" for name, d in dvars)
        trailer = "," if len(dvars) == 1 else ""
        lines.append(f"    return {detect}, ({pairs}{trailer})")
    return "\n".join(lines) + "\n", n_gates


def generate_cop_forward_source(circuit: Circuit) -> str:
    """Plain COP forward pass: ``kernel(pget) -> {node: P[node = 1]}``.

    ``pget`` is ``input_probabilities.get``; matches
    :func:`repro.testability.cop.signal_probabilities` with no overrides
    (same float operations in the same order, topo insertion order).
    """
    topo = circuit.topological_order()
    idx = {name: i for i, name in enumerate(topo)}
    lines = ["def kernel(pget):"]
    for name in topo:
        node = circuit.node(name)
        p = f"p{idx[name]}"
        if node.is_input:
            lines.append(f"    {p} = float(pget({name!r}, 0.5))")
        else:
            _emit_prob(
                lines,
                "    ",
                p,
                node.gate_type,
                [f"p{idx[fi]}" for fi in node.fanins],
                f"t{idx[name]}",
            )
    lines.append("    return {")
    for name in topo:
        lines.append(f"        {name!r}: p{idx[name]},")
    lines.append("    }")
    return "\n".join(lines) + "\n"


def generate_cop_backward_source(circuit: Circuit, stem_combine: str) -> str:
    """Plain COP backward pass: ``kernel(prob) -> (node_obs, branch_obs)``.

    Matches :func:`repro.testability.cop.observabilities` with no
    ``observed`` injections, for the given ``stem_combine`` mode.
    """
    topo = circuit.topological_order()
    idx = {name: i for i, name in enumerate(topo)}
    out_set = set(circuit.outputs)
    lines = ["def kernel(prob):"]

    # Hoist every probability used as a side input.
    needed: List[str] = []
    seen = set()
    for name in topo:
        for sink, pin in circuit.fanouts(name):
            sink_node = circuit.node(sink)
            if sink_node.gate_type in (
                GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
            ):
                for p, fi in enumerate(sink_node.fanins):
                    if p != pin and fi not in seen:
                        seen.add(fi)
                        needed.append(fi)
    for name in needed:
        lines.append(f"    p{idx[name]} = prob[{name!r}]")

    node_entries: List[Tuple[str, str]] = []
    branch_entries: List[Tuple[Tuple[str, str, int], str]] = []
    edge_id = 0
    for name in reversed(topo):
        contribs: List[str] = []
        if name in out_set:
            contribs.append("1.0")
        for sink, pin in circuit.fanouts(name):
            sink_node = circuit.node(sink)
            side = [
                f"p{idx[fi]}"
                for p, fi in enumerate(sink_node.fanins)
                if p != pin
            ]
            sens = _sens_expr(sink_node.gate_type, side)
            b = f"b{edge_id}"
            edge_id += 1
            lines.append(f"    {b} = o{idx[sink]} * {sens}")
            branch_entries.append(((name, sink, pin), b))
            contribs.append(b)
        o = f"o{idx[name]}"
        if not contribs:
            lines.append(f"    {o} = 0.0")
        elif stem_combine == "max":
            if len(contribs) == 1:
                lines.append(f"    {o} = {contribs[0]}")
            else:
                lines.append(f"    {o} = max({', '.join(contribs)})")
        else:
            lines.append(f"    {o} = {_or_combine_expr(contribs)}")
        node_entries.append((name, o))

    lines.append("    node_obs = {")
    for name, o in node_entries:
        lines.append(f"        {name!r}: {o},")
    lines.append("    }")
    lines.append("    branch_obs = {")
    for key, b in branch_entries:
        lines.append(f"        {key!r}: {b},")
    lines.append("    }")
    lines.append("    return node_obs, branch_obs")
    return "\n".join(lines) + "\n"


def generate_placement_source(circuit: Circuit) -> str:
    """Placement-aware COP pass for ``evaluate_placement``.

    ``kernel(pin_get, sctl, bctl, sobs, bobs, cpt, cof)`` where
    ``pin_get`` is ``problem.input_probability``, ``sctl``/``bctl`` map
    stem site / branch key → control-point type, ``sobs``/``bobs`` are
    the observed site sets, and ``cpt``/``cof`` are
    ``control_probability_transform`` / ``control_observability_factor``.
    Returns the seven dicts of a
    :class:`~repro.core.virtual.VirtualEvaluation` in the interpreter's
    insertion orders.  Site state is data, so one compiled kernel serves
    every placement on the circuit.
    """
    topo = circuit.topological_order()
    idx = {name: i for i, name in enumerate(topo)}
    out_set = set(circuit.outputs)
    # Edge enumeration (driver topo order, then fanout order) — the same
    # order the interpreter touches branches in both passes.
    edge_id: Dict[Tuple[str, str, int], int] = {}
    for name in topo:
        for sink, pin in circuit.fanouts(name):
            edge_id[(name, sink, pin)] = len(edge_id)
    in_edge = {
        (sink, pin): (driver, e)
        for (driver, sink, pin), e in edge_id.items()
    }

    lines = [
        "def kernel(pin_get, sctl, bctl, sobs, bobs, cpt, cof):",
        "    sg = sctl.get",
        "    bg = bctl.get",
    ]
    # ------------------------------------------------------------ forward
    for name in topo:
        node = circuit.node(name)
        i = idx[name]
        if node.is_input:
            lines.append(f"    q{i} = pin_get({name!r})")
        else:
            pvs = []
            for pin, _fi in enumerate(node.fanins):
                _driver, e = in_edge[(name, pin)]
                pvs.append(f"t{e}")
            _emit_prob(lines, "    ", f"q{i}", node.gate_type, pvs, f"x{i}")
        lines.append(f"    c = sg({name!r})")
        lines.append(f"    s{i} = q{i} if c is None else cpt(c, q{i})")
        for sink, pin in circuit.fanouts(name):
            e = edge_id[(name, sink, pin)]
            key = (name, sink, pin)
            lines.append(f"    c = bg({key!r})")
            lines.append(f"    t{e} = s{i} if c is None else cpt(c, s{i})")

    # ----------------------------------------------------------- backward
    wire_entries: List[Tuple[str, str]] = []
    branch_entries: List[Tuple[Tuple[str, str, int], str]] = []
    post_entries: List[Tuple[str, str]] = []
    for name in reversed(topo):
        i = idx[name]
        ob_vars: List[str] = []
        for sink, pin in circuit.fanouts(name):
            e = edge_id[(name, sink, pin)]
            key = (name, sink, pin)
            sink_node = circuit.node(sink)
            side = []
            for p, _fi in enumerate(sink_node.fanins):
                if p != pin:
                    _d, se = in_edge[(sink, p)]
                    side.append(f"t{se}")
            sens = _sens_expr(sink_node.gate_type, side)
            lines.append(f"    x = wo{idx[sink]} * {sens}")
            lines.append(f"    c = bg({key!r})")
            lines.append("    f = 1.0 if c is None else cof(c)")
            lines.append("    z = 1.0 - f * x")
            lines.append(f"    if {key!r} in bobs:")
            lines.append("        z = z * (1.0 - 1.0)")
            lines.append(f"    ob{e} = 1.0 - z")
            branch_entries.append((key, f"ob{e}"))
            ob_vars.append(f"ob{e}")
        contribs = (["1.0"] if name in out_set else []) + ob_vars
        lines.append(f"    po{i} = {_or_combine_expr(contribs)}")
        post_entries.append((name, f"po{i}"))
        lines.append(f"    c = sg({name!r})")
        lines.append("    f = 1.0 if c is None else cof(c)")
        lines.append(f"    z = 1.0 - f * po{i}")
        lines.append(f"    if {name!r} in sobs:")
        lines.append("        z = z * (1.0 - 1.0)")
        lines.append(f"    wo{i} = 1.0 - z")
        wire_entries.append((name, f"wo{i}"))

    # ------------------------------------------------------------ returns
    def dict_lines(var: str, entries, key_repr) -> None:
        lines.append(f"    {var} = {{")
        for key, value in entries:
            lines.append(f"        {key_repr(key)}: {value},")
        lines.append("    }")

    dict_lines(
        "stem_pre", [(n, f"q{idx[n]}") for n in topo], repr
    )
    dict_lines(
        "stem_post", [(n, f"s{idx[n]}") for n in topo], repr
    )
    branch_fwd = [
        (key, f"s{idx[key[0]]}") for key in edge_id
    ]
    dict_lines("branch_pre", branch_fwd, repr)
    dict_lines(
        "branch_post", [(key, f"t{e}") for key, e in edge_id.items()], repr
    )
    dict_lines("wire_obs", wire_entries, repr)
    dict_lines("branch_obs", branch_entries, repr)
    dict_lines("stem_post_obs", post_entries, repr)
    lines.append(
        "    return (stem_pre, stem_post, branch_pre, branch_post, "
        "wire_obs, branch_obs, stem_post_obs)"
    )
    return "\n".join(lines) + "\n"
