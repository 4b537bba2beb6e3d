"""Numpy kernels for the per-wave hot loop.

Every function is an array expression the driver and counter file run
on the per-wave hot path.  :class:`repro.uvm.driver.UvmDriver`,
:func:`repro.uvm.driver.group_wave` and
:class:`repro.uvm.counters.AccessCounterFile` call them as attributes
of this module, so a wrapper installed on the module sees every call.

Contracts (callers guarantee them, kernels do not re-check on the hot
path):

* index arrays are ``int64``; count/threshold arrays are ``int64``;
* ``increment``/``fill_zero`` indices are distinct (eviction victims
  and migrating blocks are unique by construction);
* ``group_sorted`` input is non-empty and sorted;
* ``halve_while_*`` mutate their counter array in place and return the
  number of global halvings applied (the caller emits the events).

Imports nothing from the rest of the package (only numpy), so any
module -- including :mod:`repro.uvm` -- can use it without import
cycles.
"""

from __future__ import annotations

import numpy as np

# -- decision kernel (UvmDriver._handle_far_accesses) -----------------------

def decide(c0: np.ndarray, k: np.ndarray, td: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Migrate mask and slack: the wave's accesses reach the threshold.

    ``slack = td - 1 - c0`` is how many of a block's accesses stay
    below its threshold; the block migrates when its ``k`` accesses
    exceed it (``c0 + k >= td``).
    """
    slack = td - 1
    slack -= c0
    return k > slack, slack


def remote_counts(migrate: np.ndarray, slack: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """Accesses served remotely per block (all ``k`` for non-migrators).

    A migrator serves its accesses below the threshold remotely, the
    fault then migrates it: ``max(slack, 0)``, which never exceeds
    ``k - 1`` because :func:`decide` only sets ``migrate`` where
    ``slack < k``.  Computed *after* fault injection and pinned-host
    hints may have cleared entries of ``migrate``, which is why this is
    a separate kernel.
    """
    return np.where(migrate, np.maximum(slack, 0), k)


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
