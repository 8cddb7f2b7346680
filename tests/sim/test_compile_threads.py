"""Thread safety of the numpy plan registry.

The registry is process-global; concurrent simulators (thread-pooled
incremental evaluators, guard shadow checks racing production runs) hit
``get_plan`` / ``clear_registry`` simultaneously.  The contract: no
exceptions, one shared plan per structure, results identical to serial.
"""

from __future__ import annotations

import threading

from repro.circuit import generators
from repro.sim import FaultSimulator, UniformRandomSource
from repro.sim.compile import clear_registry
from repro.sim.npsim import get_plan, plan_registry_size


def _run_threads(n, fn):
    errors = []

    def wrapped(i):
        try:
            fn(i)
        except Exception as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    barrier = threading.Barrier(n)

    def synced(i):
        barrier.wait()
        wrapped(i)

    threads = [
        threading.Thread(target=synced, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestRegistryConcurrency:
    def test_concurrent_get_plan_shares_one_entry(self):
        clear_registry()
        circuit = generators.c17()
        plans = [None] * 16
        _run_threads(16, lambda i: plans.__setitem__(i, get_plan(circuit)))
        assert all(p is plans[0] for p in plans)
        assert plan_registry_size() == 1
        clear_registry()

    def test_concurrent_fault_sim_shares_one_plan(self):
        clear_registry()
        circuit = generators.random_dag(5, 40, seed=8)
        n = 128
        stimulus = UniformRandomSource(seed=1).generate(circuit.inputs, n)
        reference = FaultSimulator(circuit, kernel="interp").run(
            stimulus, n
        ).detection_word
        results = [None] * 12

        def work(i):
            sim = FaultSimulator(circuit, kernel="numpy")
            results[i] = sim.run(stimulus, n).detection_word

        _run_threads(12, work)
        assert all(r == reference for r in results)
        # Racing builders may each plan, but one plan is kept and shared.
        assert plan_registry_size() == 1
        clear_registry()

    def test_concurrent_fault_sim_over_distinct_circuits(self):
        clear_registry()
        circuits = [generators.random_dag(4, 20, seed=s) for s in range(8)]
        stimuli = [
            UniformRandomSource(seed=s).generate(c.inputs, 64)
            for s, c in enumerate(circuits)
        ]
        expected = [
            FaultSimulator(c, kernel="interp").run(st, 64).detection_word
            for c, st in zip(circuits, stimuli)
        ]
        results = [None] * 8

        def work(i):
            sim = FaultSimulator(circuits[i], kernel="numpy")
            results[i] = sim.run(stimuli[i], 64).detection_word

        _run_threads(8, work)
        assert results == expected
        clear_registry()

    def test_concurrent_plan_and_clear_never_crashes(self):
        clear_registry()
        circuit = generators.c17()
        stimulus = UniformRandomSource(seed=2).generate(circuit.inputs, 64)
        reference = FaultSimulator(circuit, kernel="interp").run(
            stimulus, 64
        ).detection_word

        def work(i):
            for _ in range(50):
                if i % 3 == 0:
                    clear_registry()
                elif i % 3 == 1:
                    get_plan(circuit)
                else:
                    sim = FaultSimulator(circuit, kernel="numpy")
                    got = sim.run(stimulus, 64).detection_word
                    assert got == reference

        _run_threads(9, work)
        clear_registry()
