"""Unit tests for the migrate-vs-remote decision policies."""

import numpy as np
import pytest

from repro.config import MigrationPolicy, PolicyConfig
from repro.core.policy import (
    AdaptivePolicy,
    FirstTouchPolicy,
    StaticAlwaysPolicy,
    StaticOversubPolicy,
    make_policy,
)

from tests.conftest import make_driver, make_vas


@pytest.fixture
def driver():
    return make_driver(make_vas(8), capacity_mb=16)


def blocks(*ids):
    return np.array(ids, dtype=np.int64)


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        (MigrationPolicy.DISABLED, FirstTouchPolicy),
        (MigrationPolicy.ALWAYS, StaticAlwaysPolicy),
        (MigrationPolicy.OVERSUB, StaticOversubPolicy),
        (MigrationPolicy.ADAPTIVE, AdaptivePolicy),
    ])
    def test_make_policy(self, kind, cls):
        pol = make_policy(PolicyConfig(policy=kind))
        assert isinstance(pol, cls)
        assert pol.kind is kind


class TestFirstTouchPolicy(object):
    def test_threshold_one_counter_zero(self, driver):
        pol = FirstTouchPolicy(PolicyConfig())
        td, c0 = pol.decision_state(blocks(0, 1), driver)
        assert list(td) == [1, 1]
        assert list(c0) == [0, 0]


class TestAlwaysPolicy:
    def test_uses_volta_counters(self, driver):
        pol = StaticAlwaysPolicy(PolicyConfig(static_threshold=8))
        driver.counters.add_remote_accesses_unique(blocks(1), np.array([5]))
        driver.counters.add_accesses(blocks(1), np.array([100]))
        td, c0 = pol.decision_state(blocks(0, 1), driver)
        assert list(td) == [8, 8]
        assert list(c0) == [0, 5]  # historic counters ignored


class TestOversubPolicy:
    def test_first_touch_before_pressure(self, driver):
        pol = StaticOversubPolicy(PolicyConfig(static_threshold=8))
        td, c0 = pol.decision_state(blocks(0), driver)
        assert td[0] == 1

    def test_arms_only_for_never_migrated(self, driver):
        pol = StaticOversubPolicy(PolicyConfig(static_threshold=8))
        driver.device.note_pressure()
        driver.ever_migrated[1] = True
        td, _ = pol.decision_state(blocks(0, 1), driver)
        assert td[0] == 8   # never migrated: delayed
        assert td[1] == 1   # device-preferred: first touch


class TestAdaptivePolicy:
    def test_no_oversub_scales_with_occupancy(self, driver):
        pol = AdaptivePolicy(PolicyConfig(static_threshold=8))
        td, _ = pol.decision_state(blocks(0), driver)
        assert td[0] == 1   # empty device
        driver.device.allocate(driver.device.capacity_blocks // 2)
        td, _ = pol.decision_state(blocks(0), driver)
        assert td[0] == 5   # floor(8 * 0.5) + 1

    def test_oversub_uses_roundtrips_and_penalty(self, driver):
        pol = AdaptivePolicy(PolicyConfig(static_threshold=8,
                                          migration_penalty=2))
        driver.device.note_pressure()
        driver.counters.add_roundtrip(blocks(1))
        td, _ = pol.decision_state(blocks(0, 1), driver)
        assert td[0] == 16   # 8 * (0+1) * 2
        assert td[1] == 32   # 8 * (1+1) * 2

    def test_uses_historic_counters(self, driver):
        pol = AdaptivePolicy(PolicyConfig())
        driver.counters.add_accesses(blocks(2), np.array([42]))
        driver.counters.add_remote_accesses_unique(blocks(2), np.array([7]))
        _, c0 = pol.decision_state(blocks(2), driver)
        assert c0[0] == 42   # volta counters ignored
