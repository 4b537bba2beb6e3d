"""Property-based tests for the VA allocator and layout rules."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memory import layout
from repro.memory.allocator import VirtualAddressSpace
from repro.uvm.eviction import ChunkDirectory

sizes = st.integers(min_value=1, max_value=16 * layout.CHUNK_SIZE)


@given(st.lists(sizes, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_allocations_disjoint_and_aligned(sz_list):
    vas = VirtualAddressSpace()
    allocs = [vas.malloc_managed(f"a{i}", s) for i, s in enumerate(sz_list)]
    for a in allocs:
        assert a.first_page % layout.PAGES_PER_CHUNK == 0
        assert a.rounded_bytes >= a.requested_bytes
        assert a.rounded_bytes % layout.BASIC_BLOCK_SIZE == 0
    spans = sorted((a.first_page, a.last_page) for a in allocs)
    for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
        assert hi1 <= lo2, "allocations overlap"


@given(sizes)
@settings(max_examples=200, deadline=None)
def test_chunks_tile_allocation_exactly(size):
    vas = VirtualAddressSpace()
    a = vas.malloc_managed("a", size)
    total = sum(c.size_bytes for c in a.chunks)
    assert total == a.rounded_bytes
    cursor = a.first_block
    for c in a.chunks:
        assert c.first_block == cursor
        nb = c.num_blocks
        assert nb & (nb - 1) == 0, "chunk block count must be a power of two"
        assert nb <= layout.BLOCKS_PER_CHUNK
        cursor += nb


@given(sizes)
@settings(max_examples=200, deadline=None)
def test_rounding_is_minimal(size):
    """Rounded size never exceeds requested by more than the rule allows."""
    vas = VirtualAddressSpace()
    a = vas.malloc_managed("a", size)
    full_chunks = size // layout.CHUNK_SIZE
    remainder = size - full_chunks * layout.CHUNK_SIZE
    if remainder == 0:
        assert a.rounded_bytes == size
    else:
        assert a.rounded_bytes < full_chunks * layout.CHUNK_SIZE + \
            2 * max(remainder, layout.BASIC_BLOCK_SIZE)


@given(st.lists(sizes, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_block_ownership_maps_are_consistent(sz_list):
    vas = VirtualAddressSpace()
    for i, s in enumerate(sz_list):
        vas.malloc_managed(f"a{i}", s)
    alloc_ids = np.full(vas.total_blocks, -1)
    chunk_ids = np.full(vas.total_blocks, -1)
    for a in vas.allocations:
        alloc_ids[a.first_block:a.first_block + a.num_blocks] = a.alloc_id
        for span in a.chunks:
            chunk_ids[span.first_block:span.last_block] = span.chunk_id
    # A block belongs to an allocation iff it belongs to a chunk.
    assert ((alloc_ids >= 0) == (chunk_ids >= 0)).all()
    # The driver's block -> chunk map is the one the allocations tile.
    directory = ChunkDirectory(vas.chunks, vas.total_blocks)
    assert np.array_equal(directory.chunk_of_block, chunk_ids)
