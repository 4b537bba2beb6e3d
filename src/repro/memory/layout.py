"""Page and address geometry for the simulated CPU-GPU memory system.

The Unified Memory subsystem described in the paper operates on three
granularities (Section II-B):

* 4KB **small pages** -- the unit of GMMU address translation and the
  granularity at which the workload issues memory accesses;
* 64KB **basic blocks** -- the unit of fault-driven migration, prefetching
  and (in this work) access counting;
* 2MB **large chunks** -- the unit of page replacement and the span of one
  tree-based-prefetcher full binary tree.

All sizes are powers of two, so conversions are shifts.  Throughout the
code base, addresses are *page indices* in a flat virtual address space
managed by :class:`repro.memory.allocator.VirtualAddressSpace`; byte
addresses appear only at API boundaries.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

#: Size of a small page in bytes (GMMU translation granularity).
PAGE_SIZE: int = 4 * KB

#: Size of a basic block in bytes (migration / prefetch / counter unit).
BASIC_BLOCK_SIZE: int = 64 * KB

#: Size of a large chunk in bytes (eviction unit, one prefetch tree).
CHUNK_SIZE: int = 2 * MB

#: Pages per basic block (16).
PAGES_PER_BLOCK: int = BASIC_BLOCK_SIZE // PAGE_SIZE

#: Basic blocks per full 2MB chunk (32).
BLOCKS_PER_CHUNK: int = CHUNK_SIZE // BASIC_BLOCK_SIZE

#: Pages per full 2MB chunk (512).
PAGES_PER_CHUNK: int = CHUNK_SIZE // PAGE_SIZE

#: log2 helpers for shift-based conversions.
PAGE_SHIFT: int = PAGE_SIZE.bit_length() - 1
BLOCK_SHIFT: int = (PAGES_PER_BLOCK).bit_length() - 1        # pages -> blocks
CHUNK_BLOCK_SHIFT: int = (BLOCKS_PER_CHUNK).bit_length() - 1  # blocks -> chunks


def bytes_to_blocks(n_bytes: int) -> int:
    """Return the number of whole basic blocks covering ``n_bytes``."""
    return -(-n_bytes // BASIC_BLOCK_SIZE)


def page_to_block(page_index: int) -> int:
    """Map a global page index to its basic-block index."""
    return page_index >> BLOCK_SHIFT


def round_up_pow2_blocks(n_bytes: int) -> int:
    """Round an allocation size up to the next ``2**i * 64KB`` bytes.

    This is the CUDA runtime's managed-allocation rounding described in
    Section II-B of the paper: a user-specified size is rounded to the
    next power-of-two multiple of the 64KB basic block before the chunk
    trees are built.
    """
    if n_bytes <= 0:
        raise ValueError(f"allocation size must be positive, got {n_bytes}")
    blocks = bytes_to_blocks(n_bytes)
    pow2 = 1 << (blocks - 1).bit_length() if blocks > 1 else 1
    return pow2 * BASIC_BLOCK_SIZE


def split_into_chunks(n_bytes: int) -> list[int]:
    """Split a (rounded) allocation into logical chunk sizes in bytes.

    Per the paper's example, ``4MB + 168KB`` becomes two 2MB chunks plus
    one 256KB chunk: full 2MB chunks are carved off first and the
    remainder is rounded up to the next power-of-two multiple of 64KB so
    that every chunk hosts a *full* binary tree.

    Returns a list of chunk byte sizes, each either ``CHUNK_SIZE`` or a
    smaller power-of-two multiple of ``BASIC_BLOCK_SIZE``.
    """
    if n_bytes <= 0:
        raise ValueError(f"allocation size must be positive, got {n_bytes}")
    chunks = [CHUNK_SIZE] * (n_bytes // CHUNK_SIZE)
    remainder = n_bytes % CHUNK_SIZE
    if remainder:
        chunks.append(round_up_pow2_blocks(remainder))
    return chunks
