"""Unit tests for the chunk directory and victim selection."""

import numpy as np
import pytest

from repro.config import ReplacementPolicy
from repro.memory.allocation import ChunkSpan
from repro.uvm.eviction import ChunkDirectory, select_victims


def make_directory(chunk_blocks=(32, 32, 32), gap_blocks=0):
    """Directory over contiguous chunks (optionally a trailing gap)."""
    spans = []
    cursor = 0
    for cid, n in enumerate(chunk_blocks):
        spans.append(ChunkSpan(chunk_id=cid, first_block=cursor, num_blocks=n))
        cursor += n
    return ChunkDirectory(tuple(spans), cursor + gap_blocks)


class TestDirectory:
    def test_block_mapping(self):
        d = make_directory((32, 16))
        assert d.chunk_of_block[0] == 0
        assert d.chunk_of_block[31] == 0
        assert d.chunk_of_block[32] == 1
        assert d.chunk_of_block[47] == 1

    def test_gap_blocks_unowned(self):
        d = make_directory((32,), gap_blocks=4)
        assert np.all(d.chunk_of_block[32:] == -1)

    def test_blocks_of_chunk(self):
        d = make_directory((4, 8))
        assert list(d.blocks_of_chunk(1)) == list(range(4, 12))

    def test_heat_buckets_quantize(self):
        d = make_directory((4, 4))
        d.occupancy[:] = (4, 4)
        # densities 2.5 vs 3.0 land in the same log2 bucket (1).
        buckets = d.heat_buckets_from_sums(np.array([10.0, 12.0]))
        assert buckets[0] == buckets[1] == 1

    def test_heat_buckets_separate_orders_of_magnitude(self):
        d = make_directory((4, 4))
        d.occupancy[:] = (4, 4)
        buckets = d.heat_buckets_from_sums(np.array([4.0, 400.0]))
        assert buckets[0] < buckets[1]

    def test_heat_buckets_take_density_over_resident_blocks(self):
        d = make_directory((4, 4))
        # The same sum over fewer resident blocks is a hotter chunk, and
        # an empty chunk is as cold as an idle one.
        d.occupancy[:] = (4, 1)
        buckets = d.heat_buckets_from_sums(np.array([8.0, 8.0]))
        assert list(buckets) == [1, 3]
        d.occupancy[:] = (0, 4)
        assert list(d.heat_buckets_from_sums(np.zeros(2))) == [0, 0]

    def test_resident_heat_sums_resident_blocks(self):
        d = make_directory((4, 4))
        counters = np.array([1, 2, 3, 4, 10, 0, 0, 0], dtype=np.int64)
        resident = np.array([True, False, True, False,
                             True, True, False, False])
        assert list(d.resident_heat(counters, resident)) == [4.0, 10.0]

    def test_chunk_dirty(self):
        d = make_directory((4, 4))
        dirty = np.array([False, True, False, False,
                          False, False, False, False])
        flags = d.chunk_dirty(dirty)
        assert flags[0] and not flags[1]

    def test_rejects_out_of_order_chunks(self):
        spans = (ChunkSpan(chunk_id=1, first_block=0, num_blocks=4),)
        with pytest.raises(ValueError):
            ChunkDirectory(spans, 4)


class TestVictimSelection:
    def _directory(self):
        d = make_directory((32, 32, 32, 32))
        d.occupancy[:] = (32, 32, 16, 0)
        d.last_touch[:] = (3, 1, 2, 0)
        return d

    def _lru(self, d, needed, pinned=np.zeros(4, bool), never=None):
        key = d.victim_key(ReplacementPolicy.LRU, pinned)
        return select_victims(d, needed, key, never)

    def _lfu(self, d, needed, heat_sum, dirty):
        key = d.victim_key(ReplacementPolicy.LFU, np.zeros(4, bool),
                           np.asarray(heat_sum, dtype=np.float64),
                           np.asarray(dirty))
        return select_victims(d, needed, key)

    def test_zero_needed_returns_empty(self):
        d = self._directory()
        assert self._lru(d, 0) == []

    def test_lru_prefers_oldest_full_chunk(self):
        d = self._directory()
        assert self._lru(d, 1) == [1]

    def test_lru_falls_back_to_partial(self):
        d = self._directory()
        d.occupancy[:] = (0, 0, 16, 0)   # no full chunk exists
        assert self._lru(d, 1) == [2]

    def test_pinned_avoided_when_possible(self):
        d = self._directory()
        pinned = np.array([False, True, False, False])
        assert self._lru(d, 1, pinned) == [0]  # oldest *unpinned* full chunk

    def test_pinned_used_as_last_resort(self):
        d = self._directory()
        assert self._lru(d, 1, np.ones(4, dtype=bool)) == [1]

    def test_never_mask_is_absolute(self):
        d = self._directory()
        victims = self._lru(d, 1, np.ones(4, bool), never=1)
        assert 1 not in victims
        victims = self._lru(d, 40, never=1)
        assert victims == [0, 2]
        with pytest.raises(RuntimeError, match="only 48 resident"):
            self._lru(d, 49, never=1)

    def test_selection_leaves_the_key_as_it_was(self):
        d = self._directory()
        key = d.victim_key(ReplacementPolicy.LRU, np.zeros(4, bool))
        before = key.copy()
        assert select_victims(d, 1, key, never=1) == [0]
        assert select_victims(d, 40, key, never=1) == [0, 2]
        assert np.array_equal(key, before)

    def test_accumulates_until_enough(self):
        d = self._directory()
        assert self._lru(d, 40) == [1, 0]  # 32 + 32 >= 40

    def test_impossible_raises(self):
        d = self._directory()
        with pytest.raises(RuntimeError):
            self._lru(d, 1000)

    def test_lfu_prefers_cold(self):
        d = self._directory()
        # Chunk 1 averages 1024 accesses per block (bucket 10).
        victims = self._lfu(d, 1, [0, 32 * 1024, 0, 0], [False] * 4)
        assert victims == [0]  # colder than chunk 1 despite newer touch

    def test_lfu_prefers_clean_on_heat_tie(self):
        d = self._directory()
        victims = self._lfu(d, 1, [5 * 32, 5 * 32, 0, 0],
                            [True, False, False, False])
        assert victims == [1]

    def test_lfu_degenerates_to_lru_on_full_tie(self):
        d = self._directory()
        victims = self._lfu(d, 1, [5 * 32, 5 * 32, 0, 0], [False] * 4)
        assert victims == [1]  # older of the two equal-heat chunks

    def test_lfu_requires_heat(self):
        d = self._directory()
        with pytest.raises(ValueError):
            d.victim_key(ReplacementPolicy.LFU, np.zeros(4, bool))
