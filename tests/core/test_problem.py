"""Unit tests for the TPI problem formalization."""

import pytest

from repro.core import (
    CONTROL_TYPES,
    TestPoint,
    TestPointCosts,
    TestPointType,
    TPIProblem,
    TPISolution,
    control_observability_factor,
    control_probability_transform,
)
from repro.testability import required_threshold


class TestTestPointType:
    def test_is_control(self):
        assert not TestPointType.OBSERVATION.is_control
        for t in CONTROL_TYPES:
            assert t.is_control

    def test_probability_transforms(self):
        assert control_probability_transform(
            TestPointType.CONTROL_AND, 0.8
        ) == pytest.approx(0.4)
        assert control_probability_transform(
            TestPointType.CONTROL_OR, 0.8
        ) == pytest.approx(0.9)
        assert control_probability_transform(
            TestPointType.CONTROL_RANDOM, 0.99
        ) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            control_probability_transform(TestPointType.OBSERVATION, 0.5)

    def test_observability_factors(self):
        assert control_observability_factor(TestPointType.CONTROL_AND) == 0.5
        assert control_observability_factor(TestPointType.CONTROL_OR) == 0.5
        assert control_observability_factor(TestPointType.CONTROL_RANDOM) == 0.0
        with pytest.raises(ValueError):
            control_observability_factor(TestPointType.OBSERVATION)


class TestTestPoint:
    def test_ordering_deterministic(self):
        pts = [
            TestPoint("b", TestPointType.OBSERVATION),
            TestPoint("a", TestPointType.CONTROL_OR),
            TestPoint("a", TestPointType.CONTROL_AND),
        ]
        assert [p.node for p in sorted(pts)] == ["a", "a", "b"]

    def test_describe(self):
        assert TestPoint("n", TestPointType.OBSERVATION).describe() == "OP @ n"
        assert (
            TestPoint("n", TestPointType.CONTROL_AND, branch=("g", 2)).describe()
            == "CP-AND @ n->g.2"
        )


class TestCosts:
    def test_defaults(self):
        costs = TestPointCosts()
        assert costs.of(TestPointType.OBSERVATION) == 0.5
        assert costs.of(TestPointType.CONTROL_RANDOM) == 1.0

    def test_total(self):
        costs = TestPointCosts()
        pts = [
            TestPoint("a", TestPointType.OBSERVATION),
            TestPoint("b", TestPointType.CONTROL_AND),
        ]
        assert costs.total(pts) == pytest.approx(1.5)

    def test_custom(self):
        costs = TestPointCosts(observation=2.0)
        assert costs.of(TestPointType.OBSERVATION) == 2.0

    def test_of_reads_the_field_of_every_kind(self):
        costs = TestPointCosts(0.3, 0.7, 1.1, 0.9)
        fields = {
            TestPointType.OBSERVATION: costs.observation,
            TestPointType.CONTROL_AND: costs.control_and,
            TestPointType.CONTROL_OR: costs.control_or,
            TestPointType.CONTROL_RANDOM: costs.control_random,
        }
        assert set(fields) == set(TestPointType)
        for kind, value in fields.items():
            assert costs.of(kind) == value

    def test_total_sums_per_point_costs(self):
        costs = TestPointCosts(0.3, 0.7, 1.1, 0.9)
        pts = [TestPoint(f"n{i}", kind) for i, kind in enumerate(TestPointType)]
        pts.append(TestPoint("m", TestPointType.OBSERVATION))
        # Left-to-right float sum, exactly as before the lookup changed.
        assert costs.total(pts) == 0 + 0.3 + 0.7 + 1.1 + 0.9 + 0.3
        assert costs.total([]) == 0


class TestProblem:
    def test_threshold_validation(self, and2):
        with pytest.raises(ValueError):
            TPIProblem(circuit=and2, threshold=0.0)
        with pytest.raises(ValueError):
            TPIProblem(circuit=and2, threshold=1.5)

    def test_allowed_types_required(self, and2):
        with pytest.raises(ValueError):
            TPIProblem(circuit=and2, threshold=0.1, allowed_types=())

    def test_from_test_length(self, and2):
        problem = TPIProblem.from_test_length(and2, 4096, escape_budget=0.001)
        assert problem.threshold == pytest.approx(required_threshold(4096, 0.001))

    def test_input_probability_defaults(self, and2):
        problem = TPIProblem(circuit=and2, threshold=0.1)
        assert problem.input_probability("a") == 0.5
        problem2 = TPIProblem(
            circuit=and2, threshold=0.1, input_probabilities={"a": 0.9}
        )
        assert problem2.input_probability("a") == 0.9
        assert problem2.input_probability("b") == 0.5

    def test_control_types_filtering(self, and2):
        problem = TPIProblem(
            circuit=and2,
            threshold=0.1,
            allowed_types=(TestPointType.OBSERVATION, TestPointType.CONTROL_OR),
        )
        assert problem.control_types() == [TestPointType.CONTROL_OR]
        assert problem.observation_allowed

    def test_observation_disallowed(self, and2):
        problem = TPIProblem(
            circuit=and2, threshold=0.1, allowed_types=(TestPointType.CONTROL_OR,)
        )
        assert not problem.observation_allowed


class TestSolution:
    def test_points_sorted_and_partitioned(self):
        pts = [
            TestPoint("b", TestPointType.CONTROL_OR),
            TestPoint("a", TestPointType.OBSERVATION),
        ]
        sol = TPISolution(points=pts, cost=1.5, feasible=True, method="x")
        assert sol.points[0].node == "a"
        assert len(sol.control_points()) == 1
        assert len(sol.observation_points()) == 1

    def test_describe_mentions_points(self):
        sol = TPISolution(
            points=[TestPoint("a", TestPointType.OBSERVATION)],
            cost=0.5,
            feasible=True,
            method="dp",
        )
        text = sol.describe()
        assert "OP @ a" in text and "dp" in text
