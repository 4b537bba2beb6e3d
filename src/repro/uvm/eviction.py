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

    def chunk_heat(self, counters: np.ndarray) -> np.ndarray:
        """Aggregate access count per chunk from the per-block counter file."""
        return np.bincount(self._valid_chunk_ids,
                           weights=counters[self._valid_block]
                           .astype(np.float64),
                           minlength=self.num_chunks)

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
        """LFU ordering buckets from maintained resident-heat sums.

        Density is taken over the chunk's current occupancy; see
        :meth:`chunk_heat_buckets` for the bucketing rationale.
        """
        density = heat_sum / np.maximum(self.occupancy, 1)
        return np.floor(np.log2(np.maximum(density, 1.0))).astype(np.int64)

    def chunk_heat_buckets(self, counters: np.ndarray,
                           resident: np.ndarray | None = None) -> np.ndarray:
        """LFU ordering key: log2 bucket of per-block access density.

        The paper's simplified LFU must degenerate to LRU when "pages are
        accessed with almost the same frequency" (regular applications).
        Comparing raw sums would break ties on incidental mid-sweep count
        skew, so chunks are ranked by the binary order of magnitude of
        their mean per-block access count; within a bucket the LRU
        timestamp decides.

        When ``resident`` is given, only device-resident blocks
        contribute -- what matters is the hotness of the pages an
        eviction would actually displace.
        """
        if resident is not None:
            valid = self._valid_block & resident
            ids = self.chunk_of_block[valid]
        else:
            valid = self._valid_block
            ids = self._valid_chunk_ids
        heat = np.bincount(ids,
                           weights=counters[valid].astype(np.float64),
                           minlength=self.num_chunks)
        denom = (np.maximum(self.occupancy, 1) if resident is not None
                 else np.maximum(self.num_blocks, 1))
        density = heat / denom
        return np.floor(np.log2(np.maximum(density, 1.0))).astype(np.int64)

    def chunk_dirty(self, dirty: np.ndarray) -> np.ndarray:
        """True per chunk when any resident block is dirty."""
        counts = np.bincount(self._valid_chunk_ids,
                             weights=dirty[self._valid_block]
                             .astype(np.float64),
                             minlength=self.num_chunks)
        return counts > 0


_I64_MAX = np.int64(np.iinfo(np.int64).max)


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
                   never: np.ndarray | None = None,
                   order: np.ndarray | None = None,
                   kern=None) -> list[int]:
    """Choose chunks to evict until ``needed_blocks`` frames are freed.

    ``pinned`` chunks (addressed by scheduled warps) are avoided but may
    be reclaimed as a last resort; ``never`` chunks (the chunk a
    migration is currently filling) are excluded unconditionally.
    ``order`` optionally supplies a precomputed victim ordering (the
    driver caches the LRU argsort across a wave); it must match what
    this function would compute from the current metadata.

    ``kern`` selects the backend kernel namespace for the ordering-key
    and argmin steps (:mod:`repro.accel`; default: numpy reference).

    Returns chunk ids in eviction order.  Raises ``RuntimeError`` if even
    evicting everything cannot free enough space (capacity misconfigured).
    """
    if needed_blocks <= 0:
        return []
    if kern is None:
        kern = _py_kernels
    occ = directory.occupancy
    populated = occ > 0
    if never is not None:
        populated = populated & ~never
    full = occ == directory.num_blocks

    if needed_blocks == 1:
        # Any populated chunk covers a one-frame deficit -- the common
        # case when a single fault block needs room -- so the best
        # victim is an argmin over the ordering key, no sort at all.
        # np.argmin's first-occurrence tie-break matches the stable
        # argsort the general path uses.
        key = _victim_key(directory, policy, heat, dirty_any, kern)
        # Each fallback tier is built only when the one before is empty.
        unpinned = populated & ~pinned
        tier = unpinned & full
        if not tier.any():
            tier = unpinned
            if not tier.any():
                tier = populated
                if not tier.any():
                    raise RuntimeError("cannot free 1 block: nothing resident")
        return [int(kern.masked_argmin(key, tier))]

    if order is None:
        key = _victim_key(directory, policy, heat, dirty_any, kern)
        order = np.argsort(key, kind="stable")
    victims: list[int] = []
    chosen = np.zeros(directory.num_chunks, dtype=bool)
    freed = 0
    # Candidate tiers: (full, unpinned) -> (partial, unpinned) -> (any populated).
    for tier_mask in (populated & full & ~pinned,
                      populated & ~pinned,
                      populated):
        if freed >= needed_blocks:
            break
        # Walk the tier's candidates in eviction order, taking chunks
        # until their cumulative occupancy covers the deficit.
        cands = order[(tier_mask & ~chosen)[order]]
        if cands.size == 0:
            continue
        cum = freed + np.cumsum(occ[cands])
        cut = int(np.searchsorted(cum, needed_blocks, side="left"))
        take = cands[:min(cut + 1, cands.size)]
        victims.extend(int(c) for c in take)
        chosen[take] = True
        freed = int(cum[take.size - 1])
    if freed < needed_blocks:
        raise RuntimeError(
            f"cannot free {needed_blocks} blocks: only {freed} resident"
        )
    return victims
