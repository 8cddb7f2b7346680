"""Kernel-mode selection for fault simulation and the placement passes.

Two kernel modes exist.  ``"numpy"`` (the default) runs the word-parallel
array engine of :mod:`repro.sim.npsim`; ``"interp"`` runs the interpreted
gate walk, which stays the single ground-truth arbiter that the Guard's
shadow checks and the fuzzer's oracles compare the numpy engine against.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from .npsim import clear_plans

__all__ = ["DEFAULT_KERNEL", "KERNEL_MODES", "resolve_kernel", "clear_registry"]

#: The kernel modes every simulation entry point accepts.
KERNEL_MODES = ("interp", "numpy")

#: Process-wide default used when a ``kernel=None`` argument is passed.
DEFAULT_KERNEL = "numpy"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Default / validate a ``kernel=`` argument."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNEL_MODES:
        raise SimulationError(
            f"unknown kernel mode {kernel!r} (choose from {KERNEL_MODES})"
        )
    return kernel


def clear_registry() -> None:
    """Evict every cached per-circuit numpy plan (tests / memory pressure)."""
    clear_plans()
