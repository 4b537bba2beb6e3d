"""Migration-threshold rules (Equation 1 and the static baselines).

A threshold rule answers: *after how many accesses should a non-resident
basic block be migrated to the device?*  Access number ``td`` triggers the
migration; the ``td - 1`` accesses before it are served remotely (zero
copy).  ``td == 1`` is therefore exactly first-touch migration.
"""

from __future__ import annotations

import math

import numpy as np


def first_touch_thresholds(num_blocks: int) -> np.ndarray:
    """Thresholds for the Baseline/Disabled scheme: always migrate at once."""
    return np.ones(num_blocks, dtype=np.int64)


def static_thresholds(num_blocks: int, ts: int) -> np.ndarray:
    """Volta-style static access-counter threshold (the *Always* scheme)."""
    if ts < 1:
        raise ValueError("static threshold must be >= 1")
    return np.full(num_blocks, ts, dtype=np.int64)


def dynamic_threshold_no_oversub(ts: int, occupancy_fraction: float) -> int:
    """Equation 1, first branch: ``td = floor(ts * allocated/total) + 1``.

    Grows from 1 (below ``1/ts`` occupancy: pure first touch) to ``ts``
    just before the device fills, and ``ts + 1`` exactly at full
    occupancy -- matching the worked example in Section IV (ts=8: td is 1
    below 12.5% occupancy, 8 just before full capacity, 9 at the brink of
    oversubscription).
    """
    if ts < 1:
        raise ValueError("static threshold must be >= 1")
    if not 0.0 <= occupancy_fraction <= 1.0:
        raise ValueError(f"occupancy fraction {occupancy_fraction} outside [0, 1]")
    return int(math.floor(ts * occupancy_fraction)) + 1


def eq1_thresholds(ts: int, penalty: int, oversubscribed: bool,
                   occupancy_fraction: float, n: int,
                   roundtrips: np.ndarray | None = None) -> np.ndarray:
    """Both Equation-1 regimes as one per-wave kernel, validation-free.

    The driver's hot path calls this once per wave with pre-validated
    parameters (``ts >= 1``, ``penalty >= 1`` -- checked when the policy
    is constructed).  Below oversubscription the scalar occupancy
    threshold of :func:`dynamic_threshold_no_oversub` is broadcast over
    ``n`` blocks; above it the per-block thrash penalty
    ``td = ts * (r + 1) * p`` (Equation 1, second branch) applies to
    the counter file's round-trip slice (``roundtrips``, only needed
    then): the more a block has thrashed, the harder it is pinned to
    host memory.
    """
    if oversubscribed:
        return ts * penalty * (roundtrips + 1)
    td = math.floor(ts * occupancy_fraction) + 1
    return np.full(n, td, dtype=np.int64)
