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

Both orders and the fallback tiers pack into one int64 key per chunk
(:meth:`ChunkDirectory.victim_key`).  The driver builds it once per wave,
at the wave's first pressure event, keeps it current as installs and
evictions change chunks, and :func:`select_victims` only picks from it.
"""

from __future__ import annotations

import numpy as np

from ..config import ReplacementPolicy
from ..memory.allocation import ChunkSpan

#: Composite victim-key layout, smallest key evicts first.  Bits 0-31
#: hold ``last_touch`` (the LRU clock counts waves); LFU adds the dirty
#: flag at bit 32 and the heat bucket from bit 33 up.  The fallback tier
#: sits above the ordering key: unpinned full chunks (tier 0), then
#: unpinned partially populated ones, then pinned ones.  Chunks that
#: cannot be taken (unpopulated) get the int64 maximum.
DIRTY = 1 << 32
BUCKET_SHIFT = 33
PARTIAL = 1 << 61
PINNED = 2 << 61
KEY_MAX = (1 << 63) - 1


def heat_bucket(heat_sum: float, occupancy: int) -> int:
    """One chunk's LFU heat bucket, in plain Python scalars.

    The bucket of :meth:`ChunkDirectory.heat_buckets_from_sums`,
    ``floor(log2(max(heat_sum / max(occupancy, 1), 1)))``, for the
    driver's per-chunk key updates.  For a density of at least one,
    ``floor(log2(density))`` is the position of the top bit of
    ``int(density)``; heat sums are integers and occupancy is at most
    32, so no density lies close enough below a power of two for
    ``log2`` to round up to it.
    """
    density = heat_sum / max(occupancy, 1)
    return int(density).bit_length() - 1 if density >= 1.0 else 0


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

    def resident_heat(self, counters: np.ndarray,
                      resident: np.ndarray) -> np.ndarray:
        """Per-chunk sum of access counts over device-resident blocks.

        The driver builds this at a wave's first pressure event and then
        keeps each chunk's sum current across installs and evictions
        (integer-valued float arithmetic, so the running sums stay
        exact).
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
        timestamp decides.  :func:`heat_bucket` is the same bucket for
        one chunk in plain Python scalars.
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

    def victim_key(self, policy: ReplacementPolicy, pinned: np.ndarray,
                   heat_sum: np.ndarray | None = None,
                   dirty_any: np.ndarray | None = None) -> np.ndarray:
        """Per-chunk composite eviction key, smallest evicts first.

        Each chunk's fallback tier (``pinned`` chunks are addressed by
        the scheduled warps) sits above its ordering key, in the layout
        of :data:`KEY_MAX` and friends.  LRU orders by ``last_touch``.
        LFU packs (heat bucket, dirty, ``last_touch``) into the key
        instead of a three-pass lexsort: the bucket of ``heat_sum``
        (:meth:`heat_buckets_from_sums`) is the primary key, clean
        chunks (``dirty_any`` false) go before dirty ones, and
        ``last_touch`` breaks ties.  Unpopulated chunks get
        :data:`KEY_MAX`.

        The driver calls this once per wave, at the wave's first
        pressure event, and then rewrites single entries as chunks
        change; :func:`select_victims` picks from the result.
        """
        occ = self.occupancy
        key = (occ < self.num_blocks) * PARTIAL
        key[pinned] = PINNED
        if policy is ReplacementPolicy.LFU:
            if heat_sum is None or dirty_any is None:
                raise ValueError(
                    "LFU selection needs heat and dirty information")
            key |= self.heat_buckets_from_sums(heat_sum) << BUCKET_SHIFT
            key |= dirty_any * DIRTY
        key |= self.last_touch
        key[occ == 0] = KEY_MAX
        return key


def select_victims(directory: ChunkDirectory,
                   needed_blocks: int,
                   key: np.ndarray,
                   never: int | None = None) -> list[int]:
    """Choose chunks to evict until ``needed_blocks`` frames are freed.

    ``key`` is the per-chunk composite key of
    :meth:`ChunkDirectory.victim_key`; chunk ``never`` (the chunk a
    migration is currently filling) is excluded unconditionally.
    Victims are the shortest prefix of the stably sorted keys whose
    occupancy covers the deficit, so a one-frame deficit -- the common
    case, a single fault block needing room -- is one argmin (first
    occurrence, as in the stable sort).  ``key`` is left as it was.

    Returns chunk ids in eviction order.  Raises ``RuntimeError`` if even
    evicting everything cannot free enough space (capacity misconfigured).
    """
    if needed_blocks <= 0:
        return []
    if needed_blocks == 1:
        if never is None:
            victim = int(key.argmin())
            best = key[victim]
        else:
            held = key[never]
            key[never] = KEY_MAX
            victim = int(key.argmin())
            best = key[victim]
            key[never] = held
        if best == KEY_MAX:
            raise RuntimeError("cannot free 1 block: nothing resident")
        return [victim]

    key = key.copy()
    if never is not None:
        key[never] = KEY_MAX
    occ = directory.occupancy
    order = key.argsort(kind="stable")
    cut = int(occ[order].cumsum().searchsorted(needed_blocks))
    if cut == order.size or key[order[cut]] == KEY_MAX:
        freed = int(occ[key != KEY_MAX].sum())
        raise RuntimeError(
            f"cannot free {needed_blocks} blocks: only {freed} resident"
        )
    return order[:cut + 1].tolist()
