"""Unit and property tests for probability grids."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ProbabilityGrid


class TestUniformGrid:
    def test_values(self):
        grid = ProbabilityGrid(4)
        assert grid.values() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(grid) == 5
        assert grid.top_index == 4
        assert grid.resolution == 4

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            ProbabilityGrid(1)

    def test_index_nearest(self):
        grid = ProbabilityGrid(4)
        assert grid.index(0.3) == 1  # 0.25 is nearest
        assert grid.index(0.4) == 2
        assert grid.quantize(0.3) == 0.25

    def test_floor(self):
        grid = ProbabilityGrid(4)
        assert grid.floor_index(0.3) == 1
        assert grid.quantize_down(0.74) == 0.5
        assert grid.quantize_down(0.75) == 0.75  # exact grid point

    def test_clamping(self):
        grid = ProbabilityGrid(4)
        assert grid.index(-0.5) == 0
        assert grid.index(1.7) == grid.top_index


class TestGeometricGrid:
    def test_resolves_small_probabilities(self):
        grid = ProbabilityGrid.geometric(1e-3)
        assert min(v for v in grid.values() if v > 0) <= 1e-3
        # Mirrored near 1.
        assert any(abs(v - (1 - 1e-3)) < 1e-9 for v in grid.values())

    def test_contains_endpoints_and_half(self):
        grid = ProbabilityGrid.geometric(0.01)
        values = grid.values()
        assert 0.0 in values and 1.0 in values and 0.5 in values

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilityGrid.geometric(0.7)
        with pytest.raises(ValueError):
            ProbabilityGrid.geometric(0.01, ratio=0.9)

    def test_for_threshold_resolves_theta(self):
        theta = 0.002
        grid = ProbabilityGrid.for_threshold(theta)
        positives = [v for v in grid.values() if v > 0]
        assert min(positives) <= theta / 4 + 1e-12

    def test_for_threshold_validation(self):
        with pytest.raises(ValueError):
            ProbabilityGrid.for_threshold(0.0)


class TestRoundingProperties:
    @given(p=st.floats(0, 1))
    def test_floor_never_exceeds(self, p):
        grid = ProbabilityGrid.geometric(0.01)
        assert grid.quantize_down(p) <= p + 1e-9

    @given(p=st.floats(0, 1))
    def test_nearest_within_spacing(self, p):
        grid = ProbabilityGrid(8)
        assert abs(grid.quantize(p) - p) <= grid.spacing / 2 + 1e-12

    @given(p=st.floats(0, 1))
    def test_index_in_range(self, p):
        grid = ProbabilityGrid.geometric(0.005)
        assert 0 <= grid.index(p) <= grid.top_index
        assert 0 <= grid.floor_index(p) <= grid.top_index

    def test_grid_value_round_trips(self):
        grid = ProbabilityGrid.geometric(0.01)
        for i in grid.indices():
            v = grid.value(i)
            assert grid.index(v) == i
            assert grid.floor_index(v) == i

    def test_explicit_values(self):
        grid = ProbabilityGrid(values=[0.1, 0.9])
        assert grid.values() == [0.0, 0.1, 0.9, 1.0]

    def test_explicit_values_need_three(self):
        with pytest.raises(ValueError):
            ProbabilityGrid(values=[0.0])


class TestIndexArray:
    """The vectorized rounding must agree with :meth:`index` bit for bit."""

    GRIDS = [
        ProbabilityGrid(4),
        ProbabilityGrid(16),
        ProbabilityGrid.for_threshold(0.0017),
        ProbabilityGrid.geometric(0.004, ratio=1.5),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=repr)
    def test_matches_scalar_index_on_grid_points_and_midpoints(self, grid):
        vals = grid.values()
        probes = list(vals)
        probes += [(a + b) / 2 for a, b in zip(vals, vals[1:])]
        probes += [math.nextafter(v, 2.0) for v in vals]
        probes += [math.nextafter(v, -1.0) for v in vals]
        probes += [-0.5, -0.0, 1.0, 1.5, 0.5 * 0.3, 0.5 * (1.0 + 0.3)]
        got = grid.index_array(np.asarray(probes)).tolist()
        assert got == [grid.index(p) for p in probes]

    @given(ps=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=50))
    def test_matches_scalar_index_property(self, ps):
        grid = ProbabilityGrid.for_threshold(0.01)
        assert grid.index_array(np.asarray(ps)).tolist() == [
            grid.index(p) for p in ps
        ]
