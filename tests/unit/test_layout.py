"""Unit tests for page/block/chunk geometry."""

import pytest

from repro.memory import layout


class TestConstants:
    def test_basic_sizes(self):
        assert layout.PAGE_SIZE == 4096
        assert layout.BASIC_BLOCK_SIZE == 64 * 1024
        assert layout.CHUNK_SIZE == 2 * 1024 * 1024

    def test_derived_ratios(self):
        assert layout.PAGES_PER_BLOCK == 16
        assert layout.BLOCKS_PER_CHUNK == 32
        assert layout.PAGES_PER_CHUNK == 512

    def test_shifts_match_ratios(self):
        assert 1 << layout.PAGE_SHIFT == layout.PAGE_SIZE
        assert 1 << layout.BLOCK_SHIFT == layout.PAGES_PER_BLOCK
        assert 1 << layout.CHUNK_BLOCK_SHIFT == layout.BLOCKS_PER_CHUNK


class TestConversions:
    def test_bytes_to_blocks_rounds_up(self):
        assert layout.bytes_to_blocks(1) == 1
        assert layout.bytes_to_blocks(64 * 1024 + 1) == 2

    def test_page_block_mapping(self):
        assert layout.page_to_block(0) == 0
        assert layout.page_to_block(15) == 0
        assert layout.page_to_block(16) == 1
        assert layout.page_to_block(32) == 2


class TestRounding:
    def test_round_up_small_is_one_block(self):
        assert layout.round_up_pow2_blocks(1) == layout.BASIC_BLOCK_SIZE

    def test_round_up_exact_power(self):
        assert layout.round_up_pow2_blocks(128 * 1024) == 128 * 1024

    def test_round_up_to_next_power(self):
        # 3 blocks -> 4 blocks
        assert layout.round_up_pow2_blocks(3 * 64 * 1024) == 4 * 64 * 1024

    def test_round_up_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            layout.round_up_pow2_blocks(0)


class TestChunkSplit:
    def test_paper_example(self):
        """4MB + 168KB -> two 2MB chunks + one 256KB chunk (Section II-B)."""
        sizes = layout.split_into_chunks(4 * 1024 * 1024 + 168 * 1024)
        assert sizes == [layout.CHUNK_SIZE, layout.CHUNK_SIZE, 256 * 1024]

    def test_exact_chunks(self):
        assert layout.split_into_chunks(4 * layout.CHUNK_SIZE) == \
            [layout.CHUNK_SIZE] * 4

    def test_small_allocation_single_chunk(self):
        assert layout.split_into_chunks(100) == [layout.BASIC_BLOCK_SIZE]

    def test_remainder_is_power_of_two_blocks(self):
        for extra_kb in (1, 65, 130, 1025):
            sizes = layout.split_into_chunks(
                layout.CHUNK_SIZE + extra_kb * 1024)
            rem_blocks = sizes[-1] // layout.BASIC_BLOCK_SIZE
            assert rem_blocks & (rem_blocks - 1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            layout.split_into_chunks(0)
