"""Loop-shaped kernels for the ``numba`` backend.

Every function here is the loop twin of the same-named array kernel in
:mod:`repro.accel.kernels` and must produce bit-identical results --
the backend equivalence property tests enforce it.  With numba
installed (the ``repro[accel]`` extra) each function is compiled with
``@njit(cache=True)`` at import; without it (or with
``REPRO_ACCEL_INTERPRET=1``) the same loops run interpreted, which is
slow but keeps the backend selectable -- and testable -- everywhere.

Loop bodies are written in the numba-typable subset: scalar indexing,
explicit output allocation with fixed dtypes, no ``None`` arguments,
no keyword-only numpy features (``max(initial=...)``, ``np.add.at``).
"""

from __future__ import annotations

import math

import numpy as np

from ._compat import njit


# -- decision kernel --------------------------------------------------------

@njit(cache=True)
def eq1_thresholds(ts, penalty, oversubscribed, occupancy_fraction, n,
                   roundtrips):
    out = np.empty(n, dtype=np.int64)
    if oversubscribed:
        for i in range(n):
            out[i] = ts * penalty * (roundtrips[i] + 1)
    else:
        td = np.int64(math.floor(ts * occupancy_fraction) + 1)
        for i in range(n):
            out[i] = td
    return out


@njit(cache=True)
def decide(c0, k, td):
    n = c0.size
    migrate = np.empty(n, dtype=np.bool_)
    slack = np.empty(n, dtype=np.int64)
    for i in range(n):
        slack[i] = td[i] - 1 - c0[i]
        migrate[i] = k[i] > slack[i]
    return migrate, slack


@njit(cache=True)
def remote_counts(migrate, slack, k):
    n = k.size
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        if migrate[i]:
            v = slack[i]
            out[i] = v if v > 0 else 0
        else:
            out[i] = k[i]
    return out


# -- wave grouping and the resident fast path -------------------------------

@njit(cache=True)
def group_sorted(sorted_blocks, sorted_counts, sorted_w):
    n = sorted_blocks.size
    u = 1
    for i in range(1, n):
        if sorted_blocks[i] != sorted_blocks[i - 1]:
            u += 1
    ublocks = np.empty(u, dtype=np.int64)
    totals = np.zeros(u, dtype=np.int64)
    w_counts = np.zeros(u, dtype=np.int64)
    j = -1
    for i in range(n):
        if i == 0 or sorted_blocks[i] != sorted_blocks[i - 1]:
            j += 1
            ublocks[j] = sorted_blocks[i]
        totals[j] += sorted_counts[i]
        w_counts[j] += sorted_w[i]
    return ublocks, totals, w_counts


@njit(cache=True)
def resident_all(resident, blocks):
    # Early exit on the first non-resident block: cheaper than the
    # numpy gather-and-reduce when the fast path misses.
    for i in range(blocks.size):
        if not resident[blocks[i]]:
            return False
    return True


# -- counter file -----------------------------------------------------------

@njit(cache=True)
def scatter_add(target, idx, amounts):
    for i in range(idx.size):
        target[idx[i]] += amounts[i]


@njit(cache=True)
def scatter_add_unique(target, idx, amounts):
    for i in range(idx.size):
        target[idx[i]] += amounts[i]


@njit(cache=True)
def increment(target, idx):
    for i in range(idx.size):
        target[idx[i]] += 1


@njit(cache=True)
def fill_zero(target, idx):
    for i in range(idx.size):
        target[idx[i]] = 0


@njit(cache=True)
def halve_while_ge(counts, blocks, limit):
    h = 0
    while True:
        m = np.int64(0)
        for i in range(blocks.size):
            v = counts[blocks[i]]
            if v > m:
                m = v
        if m < limit:
            return h
        for j in range(counts.size):
            counts[j] >>= 1
        h += 1


@njit(cache=True)
def halve_while_gt(counts, blocks, limit):
    h = 0
    while True:
        m = np.int64(0)
        for i in range(blocks.size):
            v = counts[blocks[i]]
            if v > m:
                m = v
        if m <= limit:
            return h
        for j in range(counts.size):
            counts[j] >>= 1
        h += 1
