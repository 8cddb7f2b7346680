"""Explicit simulation-backend protocol (``interp`` / ``compiled`` / ``numpy``).

Every consumer of a kernel mode — :class:`~repro.sim.logic_sim.LogicSimulator`,
the COP passes, :func:`~repro.core.virtual.evaluate_placement`, parallel
worker priming — used to test ``kernel == "compiled"`` inline.  This module
makes the dispatch explicit: a :class:`SimulationBackend` answers for each
pass either with a *runner* (a callable with the exact calling convention
of the corresponding compiled kernel) or ``None``, which means "no fast
path here — fall back to the interpreted walk".  The interpreted walk is
therefore both the ``interp`` backend (all runners ``None``) and the
universal fallback, which keeps it the single ground-truth arbiter the
Guard machinery shadows against.

Runner contracts (identical to the compiled kernels they generalize):

* ``logic_runner(circuit) -> fn(stimulus, n_patterns) -> Mapping[str, int]``
  (force-free fault-free simulation; the numpy backend returns a
  :class:`~repro.sim.npsim.PackedState`, a mapping whose array form the
  fault simulator consumes directly);
* ``cop_forward_runner(circuit) -> fn(pget) -> Dict[str, float]``;
* ``cop_backward_runner(circuit, stem_combine) -> fn(prob) ->
  (node_obs, branch_obs)``;
* ``placement_runner(circuit) -> fn(pin_get, sctl, bctl, sobs, bobs,
  cpt, cof) -> 7 dicts`` (see :mod:`repro.sim.compile`).

Fault-site cone propagation stays inside
:class:`~repro.sim.fault_sim.FaultSimulator` (it is entangled with guard
sampling, fault dropping and gate-eval accounting), dispatched on the
same resolved kernel name.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..circuit.netlist import Circuit
from .bitops import ones_mask
from .compile import (
    generate_cop_backward_source,
    generate_cop_forward_source,
    generate_logic_source,
    generate_placement_source,
    get_compiled,
    resolve_kernel,
    seed_registry,
)
from . import npsim

__all__ = [
    "SimulationBackend",
    "InterpBackend",
    "CompiledBackend",
    "NumpyBackend",
    "get_backend",
]


class SimulationBackend:
    """One simulation strategy; runners default to ``None`` (interpret)."""

    #: The resolved kernel name this backend serves.
    name: str = "interp"

    # -- per-pass fast paths (None -> interpreted fallback) -------------
    def logic_runner(self, circuit: Circuit):
        return None

    def cop_forward_runner(self, circuit: Circuit):
        return None

    def cop_backward_runner(self, circuit: Circuit, stem_combine: str):
        return None

    def placement_runner(self, circuit: Circuit):
        return None

    def placement_delta_engine(self, circuit: Circuit):
        """A fresh vectorized dirty-cone delta engine for incremental
        placement evaluation, or ``None`` (interpreted heap walk).

        Unlike the runners above this constructs a *new* engine per call:
        the engine carries per-base state
        (:meth:`~repro.sim.npsim.PlacementDelta.rebase`), so each
        :class:`~repro.core.incremental.IncrementalEvaluator` owns one.
        """
        return None

    # -- parallel worker priming ----------------------------------------
    def worker_payload(
        self, circuit: Circuit
    ) -> Tuple[Optional[Dict[str, str]], Optional[Dict[str, int]]]:
        """(sources, cone_meta) to ship to worker processes, if any.

        Compiled code objects don't pickle, so the compiled backend ships
        its generated *source strings*; backends whose state is cheap to
        rebuild (numpy plans are index arrays) ship nothing.
        """
        return None, None

    def prime_worker(
        self,
        circuit: Circuit,
        sources: Optional[Dict[str, str]] = None,
        cone_meta: Optional[Dict[str, int]] = None,
    ) -> None:
        """Absorb a :meth:`worker_payload` inside a worker process."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class InterpBackend(SimulationBackend):
    """The interpreted gate walk — ground truth, no fast paths."""

    name = "interp"


class CompiledBackend(SimulationBackend):
    """Per-circuit generated-Python kernels (:mod:`repro.sim.compile`)."""

    name = "compiled"

    def logic_runner(self, circuit: Circuit):
        fn = get_compiled(circuit).function(
            "logic", lambda: generate_logic_source(circuit)
        )

        def run(stimulus, n_patterns):
            return fn(stimulus, ones_mask(n_patterns))

        return run

    def cop_forward_runner(self, circuit: Circuit):
        return get_compiled(circuit).function(
            "cop_fwd", lambda: generate_cop_forward_source(circuit)
        )

    def cop_backward_runner(self, circuit: Circuit, stem_combine: str):
        return get_compiled(circuit).function(
            f"cop_bwd:{stem_combine}",
            lambda: generate_cop_backward_source(circuit, stem_combine),
        )

    def placement_runner(self, circuit: Circuit):
        return get_compiled(circuit).function(
            "place", lambda: generate_placement_source(circuit)
        )

    def worker_payload(self, circuit: Circuit):
        entry = get_compiled(circuit)
        return dict(entry.sources), dict(entry.cone_meta)

    def prime_worker(self, circuit, sources=None, cone_meta=None):
        if sources:
            seed_registry(circuit, sources, cone_meta)


class NumpyBackend(SimulationBackend):
    """Word-parallel uint64/float64 array engine (:mod:`repro.sim.npsim`)."""

    name = "numpy"

    def logic_runner(self, circuit: Circuit):
        plan = npsim.get_plan(circuit)
        return plan.run_state

    def cop_forward_runner(self, circuit: Circuit):
        return npsim.get_plan(circuit).cop_forward

    def cop_backward_runner(self, circuit: Circuit, stem_combine: str):
        plan = npsim.get_plan(circuit)

        def run(probability):
            return plan.cop_backward(probability, stem_combine)

        return run

    def placement_runner(self, circuit: Circuit):
        return npsim.get_plan(circuit).placement

    def placement_delta_engine(self, circuit: Circuit):
        # Narrow-level circuits pay the engine's fixed per-level cost
        # without amortizing it over wide slices — hand those back to the
        # interpreted walk (see npsim.DELTA_MIN_MEAN_WIDTH; the
        # REPRO_NP_DELTA_MIN_WIDTH env var overrides the cutoff).
        plan = npsim.get_plan(circuit)
        if not npsim.delta_profitable(plan):
            return None
        return npsim.PlacementDelta(plan)

    def prime_worker(self, circuit, sources=None, cone_meta=None):
        # Plans are cheap index arrays — rebuild locally instead of
        # shipping ndarrays through pickle.
        npsim.get_plan(circuit)


_BACKENDS: Dict[str, SimulationBackend] = {
    "interp": InterpBackend(),
    "compiled": CompiledBackend(),
    "numpy": NumpyBackend(),
}


def get_backend(kernel: Optional[str] = None) -> SimulationBackend:
    """The backend singleton for a kernel name (default applies)."""
    return _BACKENDS[resolve_kernel(kernel)]
