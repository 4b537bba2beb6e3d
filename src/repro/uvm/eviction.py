"""Page replacement: 2MB-granular LRU and the framework's simplified LFU.

Replacement works on large chunks (Section II-C): a chunk is preferred as
a victim only when it is fully populated and not addressed by currently
scheduled warps (modelled as the chunks the in-flight wave touches).  If
no full, unpinned chunk exists the selector falls back to partially
populated chunks, and finally to pinned ones, so forward progress is
always possible.

Victim ordering:

* **LRU** (baseline): oldest ``last_touch`` first.
* **LFU** (framework, Section IV "Access Counter Based Page Replacement"):
  coldest aggregate access count first, read-only (clean) chunks before
  dirty ones, ties broken by ``last_touch`` -- which makes the policy
  degenerate to LRU for regular applications whose counters are uniform.
"""

from __future__ import annotations

import numpy as np

from ..accel import kernels as _py_kernels
from ..config import ReplacementPolicy
from ..memory.allocation import ChunkSpan


class ChunkDirectory:
    """Vectorized per-chunk residency metadata for the whole VA space."""

    def __init__(self, chunks: tuple[ChunkSpan, ...], total_blocks: int) -> None:
        if not chunks:
            raise ValueError("VA space has no chunks")
        self.num_chunks = len(chunks)
        self.first_block = np.array([c.first_block for c in chunks], dtype=np.int64)
        self.num_blocks = np.array([c.num_blocks for c in chunks], dtype=np.int64)
        #: Resident basic blocks per chunk.
        self.occupancy = np.zeros(self.num_chunks, dtype=np.int64)
        #: Logical timestamp of the most recent touch (LRU key).
        self.last_touch = np.zeros(self.num_chunks, dtype=np.int64)
        #: Map basic block -> owning chunk (-1 in alignment gaps).
        self.chunk_of_block = np.full(total_blocks, -1, dtype=np.int64)
        for cid, span in enumerate(chunks):
            if span.chunk_id != cid:
                raise ValueError("chunks must be passed in chunk-id order")
            self.chunk_of_block[span.first_block:span.last_block] = cid
        # Chunk geometry is immutable, so the per-chunk block-index
        # arrays and the gap mask are built once and shared (read-only)
        # instead of being reallocated on every eviction/rebuild.
        self._valid_block = self.chunk_of_block >= 0
        self._valid_block.flags.writeable = False
        self._valid_chunk_ids = self.chunk_of_block[self._valid_block]
        self._valid_chunk_ids.flags.writeable = False
        self._chunk_blocks: list[np.ndarray | None] = [None] * self.num_chunks

    def blocks_of_chunk(self, chunk_id: int) -> np.ndarray:
        """Global basic-block indices of one chunk (shared, read-only)."""
        blocks = self._chunk_blocks[chunk_id]
        if blocks is None:
            first = self.first_block[chunk_id]
            blocks = np.arange(first, first + self.num_blocks[chunk_id],
                               dtype=np.int64)
            blocks.flags.writeable = False
            self._chunk_blocks[chunk_id] = blocks
        return blocks

    def touch(self, chunk_ids: np.ndarray, now: int) -> None:
        """Refresh the LRU position of accessed chunks."""
        self.last_touch[chunk_ids] = now

    def resident_heat(self, counters: np.ndarray,
                      resident: np.ndarray) -> np.ndarray:
        """Per-chunk sum of access counts over device-resident blocks.

        The driver builds this once per wave and then maintains it
        incrementally across installs and evictions (integer-valued
        float64 arithmetic, so the running sums stay exact).
        """
        valid = self._valid_block & resident
        return np.bincount(self.chunk_of_block[valid],
                           weights=counters[valid].astype(np.float64),
                           minlength=self.num_chunks)

    def heat_buckets_from_sums(self, heat_sum: np.ndarray) -> np.ndarray:
        """LFU ordering key: log2 bucket of per-block access density.

        ``heat_sum`` holds each chunk's access counts summed over its
        device-resident blocks (:meth:`resident_heat`, maintained by the
        driver), so only the pages an eviction would actually displace
        contribute, and density is taken over the chunk's current
        occupancy.

        The paper's simplified LFU must degenerate to LRU when "pages are
        accessed with almost the same frequency" (regular applications).
        Comparing raw sums would break ties on incidental mid-sweep count
        skew, so chunks are ranked by the binary order of magnitude of
        their mean per-block access count; within a bucket the LRU
        timestamp decides.
        """
        density = heat_sum / np.maximum(self.occupancy, 1)
        return np.floor(np.log2(np.maximum(density, 1.0))).astype(np.int64)

    def chunk_dirty(self, dirty: np.ndarray) -> np.ndarray:
        """True per chunk when any resident block is dirty."""
        counts = np.bincount(self._valid_chunk_ids,
                             weights=dirty[self._valid_block]
                             .astype(np.float64),
                             minlength=self.num_chunks)
        return counts > 0


_I64_MAX = np.int64(np.iinfo(np.int64).max)

#: Fallback tiers, packed above the ordering key (which stays below bit
#: 61: LFU buckets and the LRU clock are small): unpinned full chunks
#: (tier 0), then unpinned partially populated ones, then pinned ones.
_PARTIAL = np.int64(1 << 61)
_PINNED = np.int64(2 << 61)


def _victim_key(directory: ChunkDirectory,
                policy: ReplacementPolicy,
                heat: np.ndarray | None,
                dirty_any: np.ndarray | None,
                kern) -> np.ndarray:
    """Per-chunk eviction-ordering key, smallest evicts first.

    LFU packs (heat bucket, dirty, last_touch) into one 64-bit composite
    instead of a three-pass lexsort: heat buckets are small non-negative
    ints and the LRU clock counts waves, so heat is the primary key and
    ``last_touch`` breaks ties.  LRU is just ``last_touch``.
    """
    if policy is ReplacementPolicy.LFU:
        if heat is None or dirty_any is None:
            raise ValueError("LFU selection needs heat and dirty information")
        return kern.lfu_key(heat, dirty_any, directory.last_touch)
    return directory.last_touch


def select_victims(directory: ChunkDirectory,
                   needed_blocks: int,
                   policy: ReplacementPolicy,
                   pinned: np.ndarray,
                   heat: np.ndarray | None = None,
                   dirty_any: np.ndarray | None = None,
                   never: int | None = None,
                   kern=None) -> list[int]:
    """Choose chunks to evict until ``needed_blocks`` frames are freed.

    ``pinned`` chunks (addressed by scheduled warps) are avoided but may
    be reclaimed as a last resort; chunk ``never`` (the chunk a
    migration is currently filling) is excluded unconditionally.

    Every chunk gets one composite int64 key: its fallback tier in the
    high bits above the LRU/LFU ordering key, and int64 max for chunks
    that cannot be taken (unpopulated, or ``never``).  Victims are the
    shortest prefix of the stably sorted keys whose occupancy covers the
    deficit, so a one-frame deficit -- the common case, a single fault
    block needing room -- is one argmin (first occurrence, as in the
    stable sort).

    ``kern`` selects the backend kernel namespace for the LFU key
    (:mod:`repro.accel`; default: numpy reference).

    Returns chunk ids in eviction order.  Raises ``RuntimeError`` if even
    evicting everything cannot free enough space (capacity misconfigured).
    """
    if needed_blocks <= 0:
        return []
    if kern is None:
        kern = _py_kernels
    occ = directory.occupancy
    key = (occ < directory.num_blocks) * _PARTIAL
    key[pinned] = _PINNED
    key |= _victim_key(directory, policy, heat, dirty_any, kern)
    key[occ == 0] = _I64_MAX
    if never is not None:
        key[never] = _I64_MAX

    if needed_blocks == 1:
        victim = int(key.argmin())
        if key[victim] == _I64_MAX:
            raise RuntimeError("cannot free 1 block: nothing resident")
        return [victim]

    order = key.argsort(kind="stable")
    cut = int(occ[order].cumsum().searchsorted(needed_blocks))
    if cut == order.size or key[order[cut]] == _I64_MAX:
        freed = int(occ[key != _I64_MAX].sum())
        raise RuntimeError(
            f"cannot free {needed_blocks} blocks: only {freed} resident"
        )
    return order[:cut + 1].tolist()
