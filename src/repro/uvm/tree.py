"""Tree-based neighborhood prefetcher (Section II-B; Ganguly et al. ISCA'19).

Each logical chunk of a managed allocation (2MB, or a power-of-two
remainder) owns one *full binary tree* whose leaves are 64KB basic
blocks.  Leaves are populated by fault-driven migration; internal nodes
cache the number of resident leaves below them.  Whenever the occupancy
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
A chunk holds at most 32 leaves, so leaf residency is authoritatively a
Python int bitmask: subtree occupancy is one ``bit_count`` of a masked
range.  The per-fault balancing walk is then a pure function of (tree
size, mask, faulting leaf), memoized in a bounded LRU cache shared by
every tree: replayed and thrashing runs fault on the same states over
and over.  The heap-indexed occupancy-count array that mirrors the hardware structure
is kept too -- bulk installs propagate counts level-by-level with a
single ``np.add.at`` -- but it is maintained lazily: the scalar fault
path only touches the bitmask and the counts are rebuilt from it on the
next bulk or introspection access.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from ..accel import kernels as _py_kernels

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


@functools.cache
def _tables(num_leaves: int) -> tuple:
    """The heap-geometry lookup tables for one tree size.

    One tree exists per chunk, so thousands of instances share a table.
    Returns ``(anc, leaf_submasks)``:

    * ``anc`` -- (num_leaves, levels) heap indices of each leaf's
      ancestors, nearest first (for heap index ``i`` the level-``l``
      ancestor is ``((i + 1) >> l) - 1``);
    * ``leaf_submasks`` -- per leaf, ``(node_mask, span // 2)`` of each
      of its ancestors, nearest first, where ``node_mask`` is the
      bitmask of the leaf range under the ancestor (the fault walk's
      working set; the >50% test is ``popcount(mask & node_mask) > span
      // 2``).
    """
    levels = num_leaves.bit_length() - 1
    shifts = np.arange(1, levels + 1, dtype=np.int64)[:, None]
    leaf_ids = np.arange(num_leaves, dtype=np.int64)
    anc = np.ascontiguousarray(((num_leaves + leaf_ids) >> shifts).T - 1)
    node_mask: list[int] = []
    node_span: list[int] = []
    for node in range(2 * num_leaves - 1):
        first, span = node, 1
        while first < num_leaves - 1:
            first = 2 * first + 1
            span *= 2
        node_mask.append(((1 << span) - 1) << (first - (num_leaves - 1)))
        node_span.append(span)
    leaf_submasks = [[(node_mask[a], node_span[a] >> 1)
                      for a in row.tolist()] for row in anc]
    return anc, leaf_submasks


@functools.lru_cache(maxsize=FAULT_WALK_CACHE_SIZE)
def _fault_walk(num_leaves: int, mask: int, leaf: int
                ) -> tuple[int, np.ndarray]:
    """The >50% balancing walk of a fault on absent ``leaf``.

    Sets the leaf's bit in ``mask``, then walks from its parent to the
    root; at every ancestor whose occupancy strictly exceeds half its
    span, all absent leaves of that subtree join the prefetch set (and
    count as resident for the levels above).  Returns the new mask and
    the prefetched leaves in ascending order per level, as a read-only
    array that every fault on the same state shares.
    """
    mask |= 1 << leaf
    prefetched: list[int] = []
    for submask, half in _tables(num_leaves)[1][leaf]:
        # Subtree occupancy is one popcount of the masked leaf range.
        if (mask & submask).bit_count() > half:
            absent = submask & ~mask
            if absent:
                mask |= absent
                prefetched += _bits_ascending(absent)
    if not prefetched:
        return mask, _NO_PREFETCH
    leaves = np.array(prefetched, dtype=np.int64)
    leaves.flags.writeable = False
    return mask, leaves


class PrefetchTree:
    """Occupancy tree for one chunk; heap-indexed full binary tree."""

    __slots__ = ("num_leaves", "_mask", "_tree", "_counts_valid", "_anc",
                 "_kern")

    def __init__(self, num_leaves: int, kernels=None) -> None:
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise ValueError(f"num_leaves must be a power of two, got {num_leaves}")
        #: Backend namespace for the bulk install/remove ops (the
        #: scalar fault walk stays pure python -- it is bitmask
        #: arithmetic, not array work).  See :mod:`repro.accel`.
        self._kern = kernels if kernels is not None else _py_kernels
        self.num_leaves = num_leaves
        #: Authoritative leaf residency, bit ``i`` = leaf ``i`` resident.
        self._mask = 0
        # Heap layout: node i has children 2i+1, 2i+2; leaves occupy
        # indices [num_leaves-1, 2*num_leaves-1).
        self._tree = np.zeros(2 * num_leaves - 1, dtype=np.int32)
        self._counts_valid = True
        self._anc = _tables(num_leaves)[0]

    # -- bookkeeping -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of resident leaves in the chunk."""
        return self._mask.bit_count()

    def is_resident(self, leaf: int) -> bool:
        """Whether leaf ``leaf`` (0-based within the chunk) is resident."""
        self._check_leaf(leaf)
        return bool((self._mask >> leaf) & 1)

    def resident_leaves(self) -> np.ndarray:
        """Indices of resident leaves."""
        return np.array(_bits_ascending(self._mask), dtype=np.int64)

    def clear(self) -> None:
        """Reset the tree after the chunk is evicted."""
        self._mask = 0
        self._tree[:] = 0
        self._counts_valid = True

    def remove(self, leaf: int) -> None:
        """Evict a single leaf (64KB-granular eviction support).

        Decrements occupancy along the leaf's path so the balancing
        heuristic sees the reduced residency on later faults.
        """
        self._check_leaf(leaf)
        bit = 1 << leaf
        if not self._mask & bit:
            raise RuntimeError(f"leaf {leaf} is not resident")
        self._mask ^= bit
        if self._counts_valid:
            self._tree[self.num_leaves - 1 + leaf] = 0
            # A single leaf's ancestors are distinct, so one
            # fancy-indexed subtract propagates the whole path.
            self._tree[self._anc[leaf]] -= 1

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(f"leaf {leaf} outside chunk of {self.num_leaves} leaves")

    def _set_leaf(self, leaf: int) -> None:
        """Mark one leaf resident and propagate occupancy to the root."""
        bit = 1 << leaf
        if self._mask & bit:
            raise RuntimeError(f"leaf {leaf} already resident")
        self._mask |= bit
        if self._counts_valid:
            self._tree[self.num_leaves - 1 + leaf] = 1
            self._tree[self._anc[leaf]] += 1

    def _counts(self) -> np.ndarray:
        """The occupancy-count heap, rebuilt from the bitmask if stale."""
        if not self._counts_valid:
            self._tree[:] = 0
            resident = _bits_ascending(self._mask)
            if resident:
                leaves = np.array(resident, dtype=np.int64)
                self._kern.tree_bulk_set(self._tree, self._anc, leaves,
                                         self.num_leaves - 1, 1, 1)
            self._counts_valid = True
        return self._tree

    def install_leaves(self, leaves: np.ndarray) -> None:
        """Mark many *distinct* leaves resident in one pass.

        Occupancy propagates through all ancestor levels with a single
        ``np.add.at`` instead of one root-walk per leaf, so installing a
        whole prefetch batch (or rebuilding a chunk's tree from the
        residency map) costs O(levels) vectorized work rather than
        O(leaves * levels) scalar walks.  Equivalent to calling
        :meth:`mark_resident` on each leaf in turn; callers must not
        pass duplicate leaves.
        """
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.size == 0:
            return
        if leaves.min() < 0 or leaves.max() >= self.num_leaves:
            raise IndexError(
                f"leaves outside chunk of {self.num_leaves} leaves")
        bits = int(self._kern.leaf_bits(leaves))
        if self._mask & bits:
            raise RuntimeError("bulk install of an already-resident leaf")
        self._mask |= bits
        if self._counts_valid:
            self._kern.tree_bulk_set(self._tree, self._anc, leaves,
                                     self.num_leaves - 1, 1, 1)

    def remove_leaves(self, leaves: np.ndarray) -> None:
        """Evict many *distinct* leaves in one pass (bulk :meth:`remove`)."""
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.size == 0:
            return
        if leaves.min() < 0 or leaves.max() >= self.num_leaves:
            raise IndexError(
                f"leaves outside chunk of {self.num_leaves} leaves")
        bits = int(self._kern.leaf_bits(leaves))
        if (self._mask & bits) != bits:
            raise RuntimeError("bulk removal of a non-resident leaf")
        self._mask ^= bits
        if self._counts_valid:
            self._kern.tree_bulk_set(self._tree, self._anc, leaves,
                                     self.num_leaves - 1, 0, -1)

    # -- driver entry points ----------------------------------------------

    def mark_resident(self, leaf: int) -> None:
        """Install a leaf without running the prefetch heuristic.

        Used for the leaves the prefetcher itself pulls in and for tests.
        """
        self._check_leaf(leaf)
        self._set_leaf(leaf)

    def on_fault(self, leaf: int) -> np.ndarray:
        """Handle a first-touch fault on ``leaf``.

        Marks the leaf resident and runs the balancing walk
        (:func:`_fault_walk`): every ancestor whose occupancy strictly
        exceeds half its span has all absent leaves of its subtree
        prefetched and marked resident.

        Returns the prefetched leaf indices (possibly empty), excluding
        the faulting leaf itself, as a read-only array shared with other
        faults on the same state.
        """
        # A NumPy integer leaf would make the memoized mask a NumPy
        # integer too, and hand it to every later fault on that state.
        leaf = operator.index(leaf)
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(
                f"leaf {leaf} outside chunk of {self.num_leaves} leaves")
        if (self._mask >> leaf) & 1:
            raise RuntimeError(f"leaf {leaf} already resident")
        # The count heap goes stale; it is rebuilt lazily from the mask.
        self._counts_valid = False
        self._mask, prefetched = _fault_walk(self.num_leaves, self._mask,
                                             leaf)
        return prefetched

    # -- invariants (used by property tests) -------------------------------

    def check_invariants(self) -> None:
        """Verify internal-node counts equal the sum of their children."""
        tree = self._counts()
        for node in range(self.num_leaves - 1):
            left, right = 2 * node + 1, 2 * node + 2
            if tree[node] != tree[left] + tree[right]:
                raise AssertionError(f"occupancy mismatch at node {node}")
        leaf_bits = tree[self.num_leaves - 1:]
        if not np.all((leaf_bits == 0) | (leaf_bits == 1)):
            raise AssertionError("leaf occupancy must be 0 or 1")
        mask = 0
        for leaf in np.flatnonzero(leaf_bits).tolist():
            mask |= 1 << leaf
        if mask != self._mask:
            raise AssertionError("count heap disagrees with residency mask")
