"""Probability quantization grids for the dynamic program.

The DP's state space is the set of achievable signal probabilities and
observabilities at each node; to keep it polynomial these are discretized
onto a finite grid.  The result is optimal *with respect to the quantized
probability algebra*; denser grids converge on the continuous optimum
(experiment F4 measures the trade-off).

Two grid families are provided:

* **uniform** — ``{0, 1/B, …, 1}``; adequate when the threshold θ is
  comparable to ``1/B``;
* **geometric** — a log-spaced ladder near 0 mirrored near 1, with a
  uniform mid-section.  Pseudo-random BIST thresholds are tiny
  (θ = 1 − ε^(1/N) ≈ 10⁻³ for 4k patterns), far below any practical
  uniform resolution, and detection probabilities multiply — so relative
  (log) resolution is the right currency.  :meth:`ProbabilityGrid.for_threshold`
  builds the geometric grid matched to an instance's θ; the tree solvers
  use it by default.

Rounding policy: probabilities round to the **nearest** grid value;
observabilities round **down** (propagation estimates stay conservative,
so "feasible" never rests on rounding generosity).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["ProbabilityGrid"]


class ProbabilityGrid:
    """A finite, sorted set of probability values with rounding helpers.

    Parameters
    ----------
    resolution:
        Build a uniform grid ``{0, 1/B, …, 1}`` (ignored when ``values``
        is given).
    values:
        Explicit grid values; 0.0 and 1.0 are always included.
    """

    def __init__(
        self, resolution: int = 16, values: Optional[Iterable[float]] = None
    ) -> None:
        if values is None:
            if resolution < 2:
                raise ValueError("grid resolution must be ≥ 2")
            vals = [i / resolution for i in range(resolution + 1)]
        else:
            vals = sorted({min(1.0, max(0.0, float(v))) for v in values} | {0.0, 1.0})
            if len(vals) < 3:
                raise ValueError("grid needs at least 3 distinct values")
        self._values: List[float] = vals

    # -------------------------------------------------------- constructors
    @classmethod
    def geometric(
        cls,
        min_probability: float,
        ratio: float = 2.0,
        uniform_steps: int = 8,
    ) -> "ProbabilityGrid":
        """Log-spaced grid resolving probabilities down to ``min_probability``.

        Values climb geometrically from ``min_probability`` to 0.5 with the
        given ``ratio``, are mirrored around 0.5 (so ``1 - v`` is on the
        grid whenever ``v`` is), and a uniform mid-section of
        ``uniform_steps`` intervals is merged in.
        """
        if not 0.0 < min_probability < 0.5:
            raise ValueError("min_probability must lie in (0, 0.5)")
        if ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        ladder: List[float] = []
        v = min_probability
        while v < 0.5:
            ladder.append(v)
            v *= ratio
        vals = set(ladder) | {1.0 - v for v in ladder} | {0.5}
        vals |= {i / uniform_steps for i in range(uniform_steps + 1)}
        return cls(values=vals)

    @classmethod
    def for_threshold(
        cls, threshold: float, ratio: float = 2.0, uniform_steps: int = 8
    ) -> "ProbabilityGrid":
        """The geometric grid matched to a TPI instance's threshold θ.

        Resolves down to ``θ/4`` so that excitation/observability factors
        near θ survive quantization with margin.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        min_p = min(threshold / 4.0, 0.25)
        return cls.geometric(min_p, ratio=ratio, uniform_steps=uniform_steps)

    # ------------------------------------------------------------ rounding
    def index(self, p: float) -> int:
        """Index of the grid value nearest to ``p`` (clamped to [0, 1])."""
        p = min(1.0, max(0.0, p))
        i = bisect.bisect_left(self._values, p)
        if i == 0:
            return 0
        if i >= len(self._values):
            return len(self._values) - 1
        below, above = self._values[i - 1], self._values[i]
        return i if (above - p) <= (p - below) else i - 1

    def index_array(self, p: "np.ndarray") -> "np.ndarray":
        """:meth:`index` of every element of ``p``, bit for bit."""
        vals = np.asarray(self._values)
        p = np.minimum(1.0, np.maximum(0.0, p))
        i = np.clip(np.searchsorted(vals, p, side="left"), 1, len(vals) - 1)
        below, above = vals[i - 1], vals[i]
        return np.where((above - p) <= (p - below), i, i - 1)

    def floor_index(self, p: float) -> int:
        """Index of the largest grid value ≤ ``p`` (conservative)."""
        p = min(1.0, max(0.0, p))
        # Fuzz guard: a value within 1e-12 of a grid point counts as it.
        i = bisect.bisect_right(self._values, p + 1e-12)
        return max(0, i - 1)

    def value(self, index: int) -> float:
        """Probability value at grid ``index``."""
        return self._values[index]

    def quantize(self, p: float) -> float:
        """Round ``p`` to the nearest grid value."""
        return self._values[self.index(p)]

    def quantize_down(self, p: float) -> float:
        """Round ``p`` down to the grid (conservative)."""
        return self._values[self.floor_index(p)]

    # ------------------------------------------------------------- queries
    def indices(self) -> range:
        """All grid indices."""
        return range(len(self._values))

    def values(self) -> List[float]:
        """All grid values, ascending."""
        return list(self._values)

    @property
    def top_index(self) -> int:
        """Index of the value 1.0 (the last grid entry)."""
        return len(self._values) - 1

    @property
    def resolution(self) -> int:
        """Number of grid intervals (``len(grid) - 1``)."""
        return len(self._values) - 1

    @property
    def spacing(self) -> float:
        """The largest gap between adjacent grid values (error bound)."""
        return max(
            b - a for a, b in zip(self._values, self._values[1:])
        )

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProbabilityGrid(n={len(self._values)}, max_gap={self.spacing:.4g})"
