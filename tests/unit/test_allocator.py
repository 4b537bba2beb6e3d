"""Unit tests for the VA space and managed allocations."""

import numpy as np
import pytest

from repro.memory import layout
from repro.memory.allocator import VirtualAddressSpace


class TestMallocManaged:
    def test_rounds_to_blocks(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 100)
        assert a.rounded_bytes == layout.BASIC_BLOCK_SIZE
        assert a.num_pages == layout.PAGES_PER_BLOCK

    def test_paper_chunking_example(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * 1024 * 1024 + 168 * 1024)
        assert [c.size_bytes for c in a.chunks] == \
            [layout.CHUNK_SIZE, layout.CHUNK_SIZE, 256 * 1024]
        # Chunks tile the allocation contiguously.
        cursor = a.first_block
        for c in a.chunks:
            assert c.first_block == cursor
            cursor = c.last_block

    def test_allocations_chunk_aligned_and_disjoint(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 3 * layout.BASIC_BLOCK_SIZE)
        b = vas.malloc_managed("b", layout.CHUNK_SIZE + 1)
        assert a.first_page % layout.PAGES_PER_CHUNK == 0
        assert b.first_page % layout.PAGES_PER_CHUNK == 0
        assert b.first_page >= a.last_page

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VirtualAddressSpace().malloc_managed("x", 0)

    def test_footprint_sums_rounded(self):
        vas = VirtualAddressSpace()
        vas.malloc_managed("a", 100)
        vas.malloc_managed("b", layout.CHUNK_SIZE)
        assert vas.footprint_bytes == layout.BASIC_BLOCK_SIZE + layout.CHUNK_SIZE

    def test_chunk_ids_monotonic(self):
        vas = VirtualAddressSpace()
        vas.malloc_managed("a", 5 * layout.CHUNK_SIZE)
        vas.malloc_managed("b", layout.CHUNK_SIZE)
        assert [c.chunk_id for c in vas.chunks] == list(range(6))


class TestAllocationAddressing:
    def test_page_of_offset(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.CHUNK_SIZE)
        assert a.page(0) == a.first_page
        assert a.page(layout.PAGE_SIZE) == a.first_page + 1

    def test_page_rejects_out_of_range(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.BASIC_BLOCK_SIZE)
        with pytest.raises(IndexError):
            a.page(a.rounded_bytes)

    def test_pages_of_vectorized(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.CHUNK_SIZE)
        offs = np.array([0, layout.PAGE_SIZE, 3 * layout.PAGE_SIZE])
        assert list(a.pages_of(offs)) == \
            [a.first_page, a.first_page + 1, a.first_page + 3]

    def test_pages_of_rejects_out_of_range(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.BASIC_BLOCK_SIZE)
        with pytest.raises(IndexError):
            a.pages_of(np.array([a.rounded_bytes]))

    def test_page_range_full(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.BASIC_BLOCK_SIZE)
        pages = a.page_range()
        assert pages[0] == a.first_page
        assert pages.size == layout.PAGES_PER_BLOCK

    def test_page_range_partial(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.CHUNK_SIZE)
        pages = a.page_range(layout.PAGE_SIZE, 3 * layout.PAGE_SIZE)
        assert list(pages) == [a.first_page + 1, a.first_page + 2]

    def test_page_range_invalid(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", layout.BASIC_BLOCK_SIZE)
        with pytest.raises(IndexError):
            a.page_range(10, 5)
