"""Pure-numpy reference kernels for the per-wave hot loop.

This module is the ``python`` backend: every function is the exact
array expression the driver, counter file, eviction selector and
prefetch tree historically ran inline.  :mod:`repro.accel.jit` holds
the loop-shaped twins that numba compiles; the backend equivalence
property tests pin the two modules to bit-identical results, so either
namespace can be handed to the driver as ``kernels``.

Contracts shared by both backends (callers guarantee them, kernels do
not re-check on the hot path):

* index arrays are ``int64``; count/threshold arrays are ``int64``;
* ``increment``/``fill_zero`` indices are distinct (eviction victims
  and migrating blocks are unique by construction);
* ``group_sorted`` input is non-empty and sorted;
* ``halve_while_*`` mutate their counter array in place and return the
  number of global halvings applied (the caller emits the events).

Imports nothing from the rest of the package (only numpy), so any
module -- including :mod:`repro.uvm` -- can use it as a default
without import cycles.
"""

from __future__ import annotations

import math

import numpy as np

# -- decision kernel (UvmDriver._handle_far_accesses) -----------------------

def eq1_thresholds(ts: int, penalty: int, oversubscribed: bool,
                   occupancy_fraction: float, n: int,
                   roundtrips: np.ndarray) -> np.ndarray:
    """Both Equation-1 regimes, validation-free (mirrors
    :func:`repro.uvm.thresholds.eq1_thresholds`; ``roundtrips`` may be
    empty when not oversubscribed)."""
    if oversubscribed:
        return ts * penalty * (roundtrips + 1)
    return np.full(n, math.floor(ts * occupancy_fraction) + 1,
                   dtype=np.int64)


def decide(c0: np.ndarray, k: np.ndarray, td: np.ndarray) -> np.ndarray:
    """Migrate mask: the wave's accesses reach each block's threshold."""
    return (c0 + k) >= td


def remote_counts(migrate: np.ndarray, td: np.ndarray, c0: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """Accesses served remotely per block (all ``k`` for non-migrators).

    Computed *after* fault injection may have flipped entries of
    ``migrate``, which is why this is a separate kernel from
    :func:`decide`.
    """
    if not migrate.any():
        return k
    # np.clip(td - 1 - c0, 0, k - 1) without its dispatch overhead; k >= 1,
    # so the bounds never cross and the result is the same.
    r = td - 1
    r -= c0
    np.maximum(r, 0, out=r)
    np.minimum(r, k - 1, out=r)
    return np.where(migrate, r, k)


# -- wave grouping and the resident fast path (UvmDriver.process_wave) ------

def group_sorted(sorted_blocks: np.ndarray, sorted_counts: np.ndarray,
                 sorted_w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment-reduce a block-sorted wave into unique blocks + totals."""
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_blocks[1:] != sorted_blocks[:-1])))
    return (sorted_blocks[starts],
            np.add.reduceat(sorted_counts, starts),
            np.add.reduceat(sorted_w, starts))


def resident_all(resident: np.ndarray, blocks: np.ndarray) -> bool:
    """Whether every accessed block is already device-resident."""
    return bool(resident[blocks].all())


# -- counter file (AccessCounterFile) ---------------------------------------

def scatter_add(target: np.ndarray, idx: np.ndarray,
                amounts: np.ndarray) -> None:
    """``target[idx] += amounts`` with duplicate indices accumulated."""
    np.add.at(target, idx, amounts)


def scatter_add_unique(target: np.ndarray, idx: np.ndarray,
                       amounts: np.ndarray) -> None:
    """``target[idx] += amounts`` for *distinct* indices.

    Equals :func:`scatter_add` on duplicate-free index arrays, but a
    plain fancy add skips ``np.add.at``'s unbuffered-accumulation
    machinery (an order of magnitude on small updates).
    """
    target[idx] += amounts


def increment(target: np.ndarray, idx: np.ndarray) -> None:
    """``target[idx] += 1`` (indices must be distinct)."""
    target[idx] += 1


def fill_zero(target: np.ndarray, idx: np.ndarray) -> None:
    """``target[idx] = 0`` (Volta counter reset on migration)."""
    target[idx] = 0


def halve_while_ge(counts: np.ndarray, blocks: np.ndarray,
                   limit: np.int64) -> int:
    """Global halvings while any just-updated block is ``>= limit``."""
    h = 0
    while counts[blocks].max(initial=np.int64(0)) >= limit:
        counts >>= 1
        h += 1
    return h


def halve_while_gt(counts: np.ndarray, blocks: np.ndarray,
                   limit: np.int64) -> int:
    """Global halvings while any just-updated block is ``> limit``."""
    h = 0
    while counts[blocks].max(initial=np.int64(0)) > limit:
        counts >>= 1
        h += 1
    return h


# -- victim selection (uvm.eviction) ----------------------------------------

def lfu_key(heat: np.ndarray, dirty_any: np.ndarray,
            last_touch: np.ndarray) -> np.ndarray:
    """(heat bucket, dirty, last_touch) packed into one 64-bit key."""
    return ((heat << np.int64(33)) | (dirty_any << np.int64(32))
            | last_touch)


# -- prefetch tree bulk ops (uvm.tree) --------------------------------------

def leaf_bits(leaves: np.ndarray) -> np.int64:
    """Bitmask with the given leaf positions set (leaves < 32)."""
    bits = 0
    for leaf in leaves.tolist():
        bits |= 1 << leaf
    return np.int64(bits)


def tree_bulk_set(tree: np.ndarray, anc: np.ndarray, leaves: np.ndarray,
                  leaf_base: int, leaf_value: int, delta: int) -> None:
    """Set distinct leaf slots and propagate ``delta`` up all ancestors."""
    tree[leaf_base + leaves] = leaf_value
    np.add.at(tree, anc[leaves].ravel(), delta)
