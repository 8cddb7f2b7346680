"""FabricChaosSpec: seeded, deterministic, validated fault plans."""

from __future__ import annotations

import pytest

from repro.resilience.chaos import FabricChaosSpec


class TestFabricChaosSpec:
    def test_deterministic_action(self):
        spec = FabricChaosSpec(seed=3, crash=0.25, stall=0.25)
        actions = [spec.action(i, 0) for i in range(50)]
        assert actions == [spec.action(i, 0) for i in range(50)]
        assert any(actions)  # 50% total probability: some job is hit

    def test_first_attempt_only(self):
        spec = FabricChaosSpec(seed=0, forced=((0, "crash"),))
        assert spec.action(0, 0) == "crash"
        assert spec.action(0, 1) is None
        torture = FabricChaosSpec(
            seed=0, forced=((0, "crash"),), first_attempt_only=False
        )
        assert torture.action(0, 1) == "crash"

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FabricChaosSpec(crash=0.7, stall=0.7)

    def test_forced_action_validated(self):
        with pytest.raises(ValueError):
            FabricChaosSpec(forced=((0, "explode"),))
