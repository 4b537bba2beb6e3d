"""Unit tests for the migration-threshold rules (Equation 1)."""

import numpy as np
import pytest

from repro.uvm import thresholds as th

from tests.oracle import dynamic_thresholds_oversub


class TestFirstTouch:
    def test_all_ones(self):
        assert list(th.first_touch_thresholds(3)) == [1, 1, 1]


class TestStatic:
    def test_constant(self):
        assert list(th.static_thresholds(3, 8)) == [8, 8, 8]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            th.static_thresholds(1, 0)


class TestDynamicNoOversub:
    """The worked example in Section IV with ts = 8."""

    def test_below_one_eighth_occupancy_is_first_touch(self):
        assert th.dynamic_threshold_no_oversub(8, 0.0) == 1
        assert th.dynamic_threshold_no_oversub(8, 0.124) == 1

    def test_grows_with_occupancy(self):
        assert th.dynamic_threshold_no_oversub(8, 0.125) == 2
        assert th.dynamic_threshold_no_oversub(8, 0.5) == 5

    def test_just_before_full_equals_ts(self):
        assert th.dynamic_threshold_no_oversub(8, 0.99) == 8

    def test_at_full_capacity_is_ts_plus_one(self):
        assert th.dynamic_threshold_no_oversub(8, 1.0) == 9

    def test_rejects_bad_occupancy(self):
        with pytest.raises(ValueError):
            th.dynamic_threshold_no_oversub(8, 1.5)
        with pytest.raises(ValueError):
            th.dynamic_threshold_no_oversub(8, -0.1)


class TestDynamicOversub:
    """td = ts * (r + 1) * p (Equation 1, second branch), through the
    validated test oracle."""

    def test_no_roundtrips(self):
        td = dynamic_thresholds_oversub(8, np.array([0]), 2)
        assert td[0] == 16  # paper: "migrated after 16th access"

    def test_two_evictions_example(self):
        td = dynamic_thresholds_oversub(8, np.array([2]), 2)
        assert td[0] == 48  # paper: "threshold ... derived as 48"

    def test_vectorized(self):
        td = dynamic_thresholds_oversub(8, np.array([0, 1, 3]), 8)
        assert list(td) == [64, 128, 256]

    def test_monotone_in_roundtrips(self):
        r = np.arange(10)
        td = dynamic_thresholds_oversub(8, r, 4)
        assert np.all(np.diff(td) > 0)

    def test_rejects_negative_roundtrips(self):
        with pytest.raises(ValueError):
            dynamic_thresholds_oversub(8, np.array([-1]), 2)

    def test_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            dynamic_thresholds_oversub(8, np.array([0]), 0)
