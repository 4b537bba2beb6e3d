"""Tree-based neighborhood prefetcher (Section II-B; Ganguly et al. ISCA'19).

Each logical chunk of a managed allocation (2MB, or a power-of-two
remainder) owns one *full binary tree* whose leaves are 64KB basic
blocks.  Leaves are populated by fault-driven migration; a node's
occupancy is the number of resident leaves below it.  Whenever the occupancy
of a non-leaf node becomes *strictly greater than 50%*, the prefetcher
balances that node by scheduling every still-absent leaf in its subtree
for prefetch, then continues evaluating up the tree with the updated
occupancy.  Prefetch therefore never crosses a chunk boundary and issues
transfers between 64KB and half the chunk (1MB for a full chunk).

For a sequential sweep this faults on leaves 0, 1, 2, 4, 8, 16 of a
32-leaf chunk and prefetches the rest -- the behaviour published for the
CUDA driver's prefetcher.

Representation
--------------
A chunk holds at most 32 leaves, so leaf residency is a Python int
bitmask (:attr:`PrefetchTree.mask`), the tree's only state: subtree
occupancy is one ``bit_count`` of a masked range.  The per-fault
balancing walk is then a pure function of (tree size, mask, faulting
leaf), memoized in a bounded LRU cache shared by every tree: replayed
and thrashing runs fault on the same states over and over.  The walk
returns its prefetched leaves as a tuple of ints
(:meth:`PrefetchTree.fault`, the driver's drain), so a fault does no
NumPy work; :meth:`PrefetchTree.on_fault`, the prefetch strategies'
interface, returns them as an array.  The driver also reads the mask as
the chunk's residency index.  The heap-indexed occupancy-count array
that mirrors the hardware structure lives on only in the test oracle
(``tests/oracle.py``'s ``ReferenceTree``), whose masks the property
suites compare with this one's.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

#: Shared empty result for prefetch-free faults.
_NO_PREFETCH: np.ndarray = np.empty(0, dtype=np.int64)
_NO_PREFETCH.flags.writeable = False

#: Fault walks the memo keeps, least recently used dropped first.  A
#: replayed pass of every paper figure at small scale (seed 1) makes
#: 242,636 walks over 32,701 distinct states; at this bound 78% of them
#: hit and the memo holds about 2 MiB (twice the bound: 81% and 4 MiB).
FAULT_WALK_CACHE_SIZE = 1 << 13


def _bits_ascending(bits: int) -> list[int]:
    """Set-bit positions of ``bits``, lowest first."""
    out: list[int] = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _bits_of(leaves: np.ndarray) -> int:
    """Bitmask with the given leaf positions set."""
    bits = 0
    for leaf in leaves.tolist():
        bits |= 1 << leaf
    return bits


@functools.cache
def _leaf_submasks(num_leaves: int) -> list[list[tuple[int, int]]]:
    """The fault walk's lookup table for one tree size.

    One tree exists per chunk, so thousands of instances share a table.
    Per leaf, ``(node_mask, span // 2)`` of each of its ancestors,
    nearest first, where ``node_mask`` is the bitmask of the leaf range
    under the ancestor (the >50% test is ``popcount(mask & node_mask) >
    span // 2``).
    """
    out = []
    for leaf in range(num_leaves):
        row = []
        span = 2
        while span <= num_leaves:
            first = leaf - leaf % span
            row.append((((1 << span) - 1) << first, span >> 1))
            span *= 2
        out.append(row)
    return out


@functools.lru_cache(maxsize=FAULT_WALK_CACHE_SIZE)
def _fault_walk(num_leaves: int, mask: int, leaf: int
                ) -> tuple[int, tuple[int, ...]]:
    """The >50% balancing walk of a fault on absent ``leaf``.

    Sets the leaf's bit in ``mask``, then walks from its parent to the
    root; at every ancestor whose occupancy strictly exceeds half its
    span, all absent leaves of that subtree join the prefetch set (and
    count as resident for the levels above).  Returns the new mask and
    the prefetched leaves in ascending order per level, as a tuple that
    every fault on the same state shares.
    """
    mask |= 1 << leaf
    prefetched: list[int] = []
    for submask, half in _leaf_submasks(num_leaves)[leaf]:
        # Subtree occupancy is one popcount of the masked leaf range.
        if (mask & submask).bit_count() > half:
            absent = submask & ~mask
            if absent:
                mask |= absent
                prefetched += _bits_ascending(absent)
    return mask, tuple(prefetched)


class PrefetchTree:
    """Occupancy tree for one chunk, held as a leaf-residency bitmask."""

    __slots__ = ("num_leaves", "mask")

    def __init__(self, num_leaves: int) -> None:
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise ValueError(f"num_leaves must be a power of two, got {num_leaves}")
        self.num_leaves = num_leaves
        #: Leaf residency, bit ``i`` = leaf ``i`` resident.  Read it
        #: freely; only the methods below change it.
        self.mask = 0

    # -- bookkeeping -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of resident leaves in the chunk."""
        return self.mask.bit_count()

    def is_resident(self, leaf: int) -> bool:
        """Whether leaf ``leaf`` (0-based within the chunk) is resident."""
        self._check_leaf(leaf)
        return bool((self.mask >> leaf) & 1)

    def resident_leaves(self) -> np.ndarray:
        """Indices of resident leaves."""
        return np.array(_bits_ascending(self.mask), dtype=np.int64)

    def clear(self) -> None:
        """Reset the tree after the chunk is evicted."""
        self.mask = 0

    def remove(self, leaf: int) -> None:
        """Evict a single leaf (64KB-granular eviction support).

        Later faults' balancing walks see the reduced residency.
        """
        self._check_leaf(leaf)
        bit = 1 << leaf
        if not self.mask & bit:
            raise RuntimeError(f"leaf {leaf} is not resident")
        self.mask ^= bit

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(f"leaf {leaf} outside chunk of {self.num_leaves} leaves")

    def install_leaves(self, leaves: np.ndarray) -> None:
        """Mark many *distinct* leaves resident in one pass.

        Equivalent to calling :meth:`mark_resident` on each leaf in
        turn; callers must not pass duplicate leaves.
        """
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.size == 0:
            return
        if leaves.min() < 0 or leaves.max() >= self.num_leaves:
            raise IndexError(
                f"leaves outside chunk of {self.num_leaves} leaves")
        bits = _bits_of(leaves)
        if self.mask & bits:
            raise RuntimeError("bulk install of an already-resident leaf")
        self.mask |= bits

    def remove_leaves(self, leaves: np.ndarray) -> None:
        """Evict many *distinct* leaves in one pass (bulk :meth:`remove`)."""
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.size == 0:
            return
        if leaves.min() < 0 or leaves.max() >= self.num_leaves:
            raise IndexError(
                f"leaves outside chunk of {self.num_leaves} leaves")
        bits = _bits_of(leaves)
        if (self.mask & bits) != bits:
            raise RuntimeError("bulk removal of a non-resident leaf")
        self.mask ^= bits

    # -- driver entry points ----------------------------------------------

    def mark_resident(self, leaf: int) -> None:
        """Install a leaf without running the prefetch heuristic.

        Used for the leaves the prefetcher itself pulls in and for tests.
        """
        self._check_leaf(leaf)
        bit = 1 << leaf
        if self.mask & bit:
            raise RuntimeError(f"leaf {leaf} already resident")
        self.mask |= bit

    def fault(self, leaf: int) -> tuple[int, ...]:
        """Handle a first-touch fault on ``leaf``.

        Marks the leaf resident and runs the balancing walk
        (:func:`_fault_walk`): every ancestor whose occupancy strictly
        exceeds half its span has all absent leaves of its subtree
        prefetched and marked resident.

        Returns the prefetched leaf indices (possibly none), excluding
        the faulting leaf itself, as a tuple of ints shared with other
        faults on the same state.
        """
        # A NumPy integer leaf would make the memoized mask a NumPy
        # integer too, and hand it to every later fault on that state.
        leaf = operator.index(leaf)
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(
                f"leaf {leaf} outside chunk of {self.num_leaves} leaves")
        if (self.mask >> leaf) & 1:
            raise RuntimeError(f"leaf {leaf} already resident")
        self.mask, prefetched = _fault_walk(self.num_leaves, self.mask, leaf)
        return prefetched

    def on_fault(self, leaf: int) -> np.ndarray:
        """:meth:`fault`, returning the prefetched leaves as an array.

        The array is read-only; a fault that prefetches nothing returns
        the shared empty one.
        """
        prefetched = self.fault(leaf)
        if not prefetched:
            return _NO_PREFETCH
        leaves = np.array(prefetched, dtype=np.int64)
        leaves.flags.writeable = False
        return leaves

    # -- invariants (the driver audit and the property tests) --------------

    def check_invariants(self) -> None:
        """Verify the residency mask holds only leaves of this chunk."""
        if type(self.mask) is not int or not (
                0 <= self.mask < 1 << self.num_leaves):
            raise AssertionError(
                f"residency mask {self.mask!r} outside a chunk of "
                f"{self.num_leaves} leaves")
