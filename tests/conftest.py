"""Shared fixtures: small reference circuits, TPI problem factories, and
a planted numpy-engine bug for the self-checking tests.

Also installs a per-test wall-clock timeout (SIGALRM based, no external
plugin needed): a hung solver loop fails its own test instead of wedging
the whole suite.  Tune with ``REPRO_TEST_TIMEOUT`` (seconds; 0 disables).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.circuit import CircuitBuilder, GateType, generators

_TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Abort any single test that runs longer than the timeout."""
    supported = (
        _TEST_TIMEOUT_S > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not supported:
        yield
        return

    def _on_timeout(signum, frame):
        pytest.fail(
            f"test exceeded the {_TEST_TIMEOUT_S}s per-test timeout",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def and2():
    """y = a AND b."""
    b = CircuitBuilder("and2")
    a, c = b.inputs("a", "b")
    b.output(b.and_(a, c, name="y"))
    return b.build()


@pytest.fixture
def or2():
    """y = a OR b."""
    b = CircuitBuilder("or2")
    a, c = b.inputs("a", "b")
    b.output(b.or_(a, c, name="y"))
    return b.build()


@pytest.fixture
def chain3():
    """y = NOT(AND(a, OR(b, c))) — a 3-gate fanout-free chain."""
    b = CircuitBuilder("chain3")
    a, c, d = b.inputs("a", "b", "c")
    o = b.or_(c, d, name="o1")
    n = b.and_(a, o, name="a1")
    b.output(b.not_(n, name="y"))
    return b.build()


@pytest.fixture
def diamond():
    """Reconvergent diamond: s fans out to two paths that AND back together."""
    b = CircuitBuilder("diamond")
    a, c = b.inputs("a", "b")
    s = b.and_(a, c, name="s")
    p = b.not_(s, name="p")
    q = b.buf(s, name="q")
    b.output(b.and_(p, q, name="y"))
    return b.build()


@pytest.fixture
def c17():
    return generators.c17()


@pytest.fixture
def wand8():
    return generators.wide_and_cone(8)


@pytest.fixture
def small_tree():
    return generators.random_tree(10, seed=42)


@pytest.fixture
def engine_bug(monkeypatch):
    """Plant a numpy-engine bug for the self-checking tests.

    ``engine_bug(victim, as_)`` makes every ``victim`` gate fold as
    ``as_`` on both uint64 word paths — the grouped sweeps and the
    single-row folds — the way a wrong-operator bug in the engine would.
    ``engine_bug(victim, as_, folds="floats")`` plants it in the float64
    probability folds instead: gate probabilities
    (``_eval_prob_group``) and the side-input sensitization products of
    the backward passes (``_sens_fold``, whose AND / OR kinds swap when
    victim and replacement differ in kind).  The interpreted arbiter is
    untouched.  Returns a callable that lifts the bug again; test
    teardown lifts it regardless.
    """
    from repro.sim import npsim

    real = {
        "words": ("_eval_word_group", "_eval_word_rows"),
        "floats": ("_eval_prob_group", "_sens_fold"),
    }

    def sens_kind(gate_type: GateType) -> str:
        if gate_type in (GateType.AND, GateType.NAND):
            return "and"
        if gate_type in (GateType.OR, GateType.NOR):
            return "or"
        return "one"

    def plant(victim: GateType, as_: GateType, folds: str = "words"):
        first, second = (getattr(npsim, name) for name in real[folds])

        def swap(fold):
            def planted(gate_type, *args):
                fold(as_ if gate_type is victim else gate_type, *args)

            return planted

        if folds == "words":
            bad = (swap(first), swap(second))
        else:
            def sens(kind, side_cols):
                if kind == sens_kind(victim) and sens_kind(as_) != "one":
                    kind = sens_kind(as_)
                return second(kind, side_cols)

            bad = (swap(first), sens)
        for name, fn in zip(real[folds], bad):
            monkeypatch.setattr(npsim, name, fn)

        def lift() -> None:
            for name, fn in zip(real[folds], (first, second)):
                monkeypatch.setattr(npsim, name, fn)

        return lift

    return plant
