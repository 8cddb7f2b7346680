"""Kernel selection: the default kernel is bit-identical to the interpreter.

:mod:`repro.sim.compile` names the kernel modes and the process-wide
default.  Whatever ``kernel=None`` resolves to must be indistinguishable
from the interpreted ground truth (``kernel="interp"``) at every
simulation entry point — exact word equality for simulation, exact float
equality for the placement passes, and identical insertion orders for
every node-keyed dict (branch-keyed dicts are compared by value: the numpy
passes emit their edges in driver order, the interpreter's backward pass
in reverse).  These property tests pin that on random circuits, random
stimuli, and random placements, and additionally cover the per-structure
plan cache the default kernel keeps: structural-hash keying,
revision-mismatch errors, eviction, and its obs counters.
"""

import random

import pytest

from repro import obs
from repro.circuit.generators import random_dag, random_tree, rpr_mixed
from repro.core import TPIProblem
from repro.core.incremental import IncrementalEvaluator
from repro.core.problem import TestPoint, TestPointType
from repro.core.virtual import evaluate_placement
from repro.errors import SimulationError
from repro.obs.recorder import RunRecorder
from repro.sim import FaultSimulator, LogicSimulator, run_parallel
from repro.sim.compile import (
    DEFAULT_KERNEL,
    KERNEL_MODES,
    clear_registry,
    resolve_kernel,
)
from repro.sim.faults import all_stuck_at_faults
from repro.sim.npsim import get_plan, plan_registry_size
from repro.sim.patterns import UniformRandomSource

N_PATTERNS = 256


def _circuits():
    yield random_tree(25, seed=3)
    yield random_dag(6, 35, seed=4)
    yield random_dag(10, 60, seed=5)
    yield rpr_mixed(cone_width=4, corridor_length=3, n_blocks=2)


def _stimulus(circuit, seed=0):
    return UniformRandomSource(seed=seed).generate(circuit.inputs, N_PATTERNS)


# ---------------------------------------------------------------------------
# Bit-identity: fault simulation
# ---------------------------------------------------------------------------


def test_fault_sim_matches_interp_exactly():
    for circuit in _circuits():
        stim = _stimulus(circuit, seed=1)
        interp = FaultSimulator(circuit, kernel="interp")
        default = FaultSimulator(circuit)
        faults = all_stuck_at_faults(circuit)
        good = LogicSimulator(circuit).run(stim, N_PATTERNS)
        for fault in faults:
            assert default.simulate_fault(
                fault, good, N_PATTERNS
            ) == interp.simulate_fault(fault, good, N_PATTERNS)
        ri = interp.run(stim, N_PATTERNS, faults=faults)
        rd = default.run(stim, N_PATTERNS, faults=faults)
        assert rd.detection_word == ri.detection_word
        assert rd.first_detect == ri.first_detect


def test_fault_responses_match_interp_exactly():
    circuit = random_dag(8, 45, seed=6)
    stim = _stimulus(circuit, seed=3)
    interp = FaultSimulator(circuit, kernel="interp")
    default = FaultSimulator(circuit)
    good = LogicSimulator(circuit).run(stim, N_PATTERNS)
    for fault in all_stuck_at_faults(circuit):
        di = interp.simulate_fault_responses(fault, good, N_PATTERNS)
        dd = default.simulate_fault_responses(fault, good, N_PATTERNS)
        assert dd == di
        assert list(dd) == list(di)


def test_run_coverage_matches_interp_exactly():
    for circuit in _circuits():
        stim = _stimulus(circuit, seed=4)
        ri = FaultSimulator(circuit, kernel="interp").run_coverage(
            stim, N_PATTERNS, block=16
        )
        rd = FaultSimulator(circuit).run_coverage(stim, N_PATTERNS, block=16)
        assert rd.detection_word == ri.detection_word
        assert rd.first_detect == ri.first_detect
        assert rd.coverage() == ri.coverage()


def test_run_parallel_kernel_equivalence():
    circuit = random_dag(10, 80, seed=7)
    stim = _stimulus(circuit, seed=5)
    faults = all_stuck_at_faults(circuit)
    serial = FaultSimulator(circuit, kernel="interp").run(
        stim, N_PATTERNS, faults=faults
    )
    for mode in ("exact", "coverage"):
        par = run_parallel(
            circuit, stim, N_PATTERNS, faults=faults, jobs=2, mode=mode
        )
        assert par.first_detect == serial.first_detect
        assert par.coverage() == serial.coverage()


# ---------------------------------------------------------------------------
# Bit-identity: placement evaluation
# ---------------------------------------------------------------------------


def _random_placement(circuit, rng):
    kinds = [
        TestPointType.OBSERVATION,
        TestPointType.CONTROL_AND,
        TestPointType.CONTROL_OR,
        TestPointType.CONTROL_RANDOM,
    ]
    nodes = list(circuit.topological_order())
    points = []
    for _ in range(rng.randrange(0, 6)):
        node = rng.choice(nodes)
        kind = rng.choice(kinds)
        fanouts = circuit.fanouts(node)
        if fanouts and rng.random() < 0.4:
            sink, pin = rng.choice(fanouts)
            points.append(TestPoint(node=node, kind=kind, branch=(sink, pin)))
        else:
            points.append(TestPoint(node=node, kind=kind))
    return points


def test_evaluate_placement_matches_interp_exactly():
    rng = random.Random(23)
    for circuit in _circuits():
        problem = TPIProblem.from_test_length(
            circuit, n_patterns=4096, escape_budget=0.001
        )
        for _ in range(8):
            points = _random_placement(circuit, rng)
            try:
                interp = evaluate_placement(problem, points, kernel="interp")
            except ValueError:
                continue  # doubly-controlled wire: rejected by both paths
            default = evaluate_placement(problem, points)
            for attr in (
                "stem_pre",
                "stem_post",
                "wire_obs",
                "branch_pre",
                "branch_post",
                "branch_obs",
                "stem_post_obs",
            ):
                a = getattr(interp, attr)
                b = getattr(default, attr)
                assert b == a, attr
                if not attr.startswith("branch_"):
                    assert list(b) == list(a), attr
            assert default.points == interp.points


def test_incremental_evaluator_on_default_base_stays_bit_identical():
    circuit = random_dag(8, 40, seed=13)
    problem = TPIProblem.from_test_length(
        circuit, n_patterns=4096, escape_budget=0.001
    )
    rng = random.Random(5)
    inc = IncrementalEvaluator(problem)
    assert inc.kernel == DEFAULT_KERNEL  # recorded resolved, for bundles
    for _ in range(6):
        points = _random_placement(circuit, rng)
        try:
            reference = evaluate_placement(problem, points, kernel="interp")
        except ValueError:
            continue
        got = inc.evaluate(points)
        assert got.stem_pre == reference.stem_pre
        assert got.wire_obs == reference.wire_obs
        assert got.branch_obs == reference.branch_obs


# ---------------------------------------------------------------------------
# Kernel selection
# ---------------------------------------------------------------------------


def test_resolve_kernel_rejects_unknown_modes():
    assert KERNEL_MODES == ("interp", "numpy")
    assert resolve_kernel(None) == DEFAULT_KERNEL == "numpy"
    assert resolve_kernel("interp") == "interp"
    for removed in ("jit", "compiled"):
        with pytest.raises(SimulationError):
            resolve_kernel(removed)


@pytest.mark.parametrize("kernel", ["interp", "numpy"])
def test_simulators_raise_on_mutated_circuit(kernel):
    circuit = random_tree(15, seed=8)
    stim = _stimulus(circuit)
    logic = LogicSimulator(circuit)
    fsim = FaultSimulator(circuit, kernel=kernel)
    good = logic.run(stim, N_PATTERNS)
    fault = all_stuck_at_faults(circuit)[0]
    fsim.simulate_fault(fault, good, N_PATTERNS)
    circuit.add_input("late_pi")  # structural mutation
    with pytest.raises(SimulationError):
        logic.run(stim, N_PATTERNS)
    with pytest.raises(SimulationError):
        fsim.simulate_fault(fault, good, N_PATTERNS)


# ---------------------------------------------------------------------------
# The per-structure plan cache
# ---------------------------------------------------------------------------


def test_mutated_circuit_gets_fresh_registry_entry():
    clear_registry()
    circuit = random_tree(12, seed=2)
    first = get_plan(circuit)
    circuit.add_input("extra")
    second = get_plan(circuit)
    assert second is not first
    assert plan_registry_size() == 2


def test_clear_registry_evicts_every_plan():
    clear_registry()
    for seed in (1, 2):
        circuit = random_tree(10, seed=seed)
        FaultSimulator(circuit, kernel="numpy")
    assert plan_registry_size() == 2
    clear_registry()
    assert plan_registry_size() == 0


def test_structurally_identical_circuits_share_kernels():
    clear_registry()
    a = random_dag(5, 15, seed=30)
    b = random_dag(5, 15, seed=30)
    FaultSimulator(a, kernel="numpy")
    FaultSimulator(b, kernel="numpy")
    assert plan_registry_size() == 1


def test_plan_obs_counters_record_builds_and_cache_hits():
    clear_registry()
    circuit = random_tree(10, seed=19)
    recorder = RunRecorder(None)
    previous = obs.set_recorder(recorder)
    try:
        FaultSimulator(circuit, kernel="numpy")
        # Second simulator on the same structure: registry hit, no build.
        FaultSimulator(circuit, kernel="numpy")
        counters = recorder.metrics.snapshot()["counters"]
    finally:
        obs.set_recorder(previous)
        recorder.close()
    assert counters["npsim.plans"] == 1
    assert counters["npsim.plan_cache_hits"] >= 1
