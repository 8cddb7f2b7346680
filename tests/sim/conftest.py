"""Simulation suite fixtures: worker-failure injection for run_parallel."""

from __future__ import annotations

import os

import pytest

from repro.sim import FaultSimulator
from repro.sim import parallel as par_mod
from repro.sim.parallel import split_chunks

_REAL_CHUNK = par_mod._simulate_chunk

#: What the injected failure does, and the first fault of the chunk it
#: strikes.  Set before the pool forks, so every worker sees it.
_TARGET = {"action": None, "fault": None}


def _failing_chunk(task):
    """Stand-in for ``_simulate_chunk`` that fails on the target chunk.

    Module-level so forked workers can unpickle it by reference.
    """
    chunk, _spec = task
    struck = chunk[0] == _TARGET["fault"]
    if struck and _TARGET["action"] == "die":
        os._exit(13)  # a hard worker death, not an exception
    if struck and _TARGET["action"] == "raise":
        raise RuntimeError("injected worker exception")
    payload = _REAL_CHUNK(task)
    if struck and _TARGET["action"] == "malformed":
        # One fault's result silently missing from the payload.
        tag, words, firsts, evals, telem = payload
        payload = (tag, words[:-1], firsts, evals, telem)
    return payload


@pytest.fixture
def chunk_failure(monkeypatch):
    """``chunk_failure(action, circuit, kernel, jobs)`` arms a failure
    (``"die"``, ``"raise"`` or ``"malformed"``) on chunk 1 of the next
    ``run_parallel`` call with that fault list and job count."""

    def arm(action, circuit, kernel, jobs):
        faults = FaultSimulator(circuit, kernel=kernel)._resolve_faults(
            None, True
        )
        _TARGET.update(action=action, fault=split_chunks(faults, jobs)[1][0])
        monkeypatch.setattr(par_mod, "_simulate_chunk", _failing_chunk)

    yield arm
    _TARGET.update(action=None, fault=None)
