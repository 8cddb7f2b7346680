"""Simulation substrate: logic simulation, fault model, fault simulation.

Everything is *pattern-parallel*: signal values across all patterns are
packed into single arbitrary-precision integers (:mod:`repro.sim.bitops`),
so a full stimulus set is simulated in one pass over the levelized netlist.
"""

from .bitops import (
    bit_get,
    bit_set,
    ones_mask,
    pack_bits,
    pack_patterns,
    popcount,
    random_word,
    split_word_blocks,
    unpack_bits,
    unpack_patterns,
    weighted_random_word,
    word_count,
)
from .compile import (
    DEFAULT_KERNEL,
    KERNEL_MODES,
    clear_registry,
    resolve_kernel,
)
from .fault_sim import FaultSimResult, FaultSimulator, fault_coverage
from .faults import (
    CollapsedFaultSet,
    Fault,
    all_stuck_at_faults,
    checkpoint_faults,
    collapse_faults,
    testable_stuck_at_faults,
)
from .lfsr import LFSR, PRIMITIVE_TAPS, primitive_taps
from .logic_sim import (
    LogicSimulator,
    signal_probabilities_by_simulation,
    simulate,
)
from .parallel import run_parallel, split_chunks
from .patterns import (
    ExhaustiveSource,
    ExplicitSource,
    LFSRSource,
    PatternSource,
    UniformRandomSource,
    WeightedRandomSource,
)

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_MODES",
    "resolve_kernel",
    "clear_registry",
    "ones_mask",
    "word_count",
    "bit_get",
    "bit_set",
    "popcount",
    "random_word",
    "weighted_random_word",
    "pack_bits",
    "unpack_bits",
    "pack_patterns",
    "unpack_patterns",
    "LFSR",
    "PRIMITIVE_TAPS",
    "primitive_taps",
    "PatternSource",
    "UniformRandomSource",
    "WeightedRandomSource",
    "LFSRSource",
    "ExhaustiveSource",
    "ExplicitSource",
    "LogicSimulator",
    "simulate",
    "signal_probabilities_by_simulation",
    "Fault",
    "all_stuck_at_faults",
    "testable_stuck_at_faults",
    "checkpoint_faults",
    "collapse_faults",
    "CollapsedFaultSet",
    "FaultSimulator",
    "FaultSimResult",
    "fault_coverage",
    "split_word_blocks",
    "run_parallel",
    "split_chunks",
]
