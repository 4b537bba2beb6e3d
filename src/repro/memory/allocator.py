"""Flat virtual address space and managed-memory allocator.

Models the UVM single-pointer virtual address space shared by the host and
the device (Section III-C).  Allocations are laid out contiguously, each
aligned to a 2MB chunk boundary so that one prefetch tree never spans two
allocations (true of the real driver because trees are built per
allocation).

The allocator is deliberately simple -- there is no free list because the
simulated workloads allocate up front and run to completion, exactly like
the benchmarks in the paper.
"""

from __future__ import annotations

import numpy as np

from . import layout
from .advice import Advice
from .allocation import ChunkSpan, ManagedAllocation


class VirtualAddressSpace:
    """Assigns page ranges and chunk decompositions to managed allocations."""

    def __init__(self) -> None:
        self._allocations: list[ManagedAllocation] = []
        self._next_page: int = 0
        self._next_chunk_id: int = 0
        self._chunks: list[ChunkSpan] = []

    def malloc_managed(self, name: str, size_bytes: int,
                       read_only: bool = False,
                       advice: Advice = Advice.NONE) -> ManagedAllocation:
        """Allocate a managed region (``cudaMallocManaged`` analogue).

        The requested size is rounded up to full 2MB chunks plus one
        power-of-two remainder chunk (Section II-B), and the allocation is
        placed at the next chunk-aligned virtual address.  ``advice``
        attaches a programmer placement hint (Section III-C).
        """
        if size_bytes <= 0:
            raise ValueError(f"allocation {name!r}: size must be positive")
        chunk_sizes = layout.split_into_chunks(size_bytes)
        rounded = sum(chunk_sizes)

        first_page = self._next_page
        chunks: list[ChunkSpan] = []
        block_cursor = layout.page_to_block(first_page)
        for csize in chunk_sizes:
            nblocks = csize // layout.BASIC_BLOCK_SIZE
            span = ChunkSpan(chunk_id=self._next_chunk_id,
                             first_block=block_cursor, num_blocks=nblocks)
            chunks.append(span)
            self._chunks.append(span)
            self._next_chunk_id += 1
            block_cursor += nblocks

        num_pages = rounded // layout.PAGE_SIZE
        alloc = ManagedAllocation(
            alloc_id=len(self._allocations), name=name,
            requested_bytes=size_bytes, rounded_bytes=rounded,
            first_page=first_page, num_pages=num_pages,
            read_only=read_only, chunks=tuple(chunks), advice=advice,
        )
        self._allocations.append(alloc)
        # Advance to the next 2MB boundary so the following allocation
        # starts a fresh chunk.
        end_page = first_page + num_pages
        rem = end_page % layout.PAGES_PER_CHUNK
        self._next_page = end_page + (layout.PAGES_PER_CHUNK - rem if rem else 0)
        return alloc

    @property
    def allocations(self) -> tuple[ManagedAllocation, ...]:
        """All allocations in creation order."""
        return tuple(self._allocations)

    @property
    def chunks(self) -> tuple[ChunkSpan, ...]:
        """All chunk spans in global chunk-id order."""
        return tuple(self._chunks)

    @property
    def total_pages(self) -> int:
        """Pages spanned by the VA space (including alignment gaps)."""
        return self._next_page

    @property
    def total_blocks(self) -> int:
        """Basic blocks spanned by the VA space."""
        return self._next_page // layout.PAGES_PER_BLOCK

    @property
    def footprint_bytes(self) -> int:
        """Sum of rounded allocation sizes (the device working set)."""
        return sum(a.rounded_bytes for a in self._allocations)

    def block_advice(self, advice: Advice) -> np.ndarray:
        """Per-basic-block mask of blocks carrying the given hint."""
        mask = np.zeros(self.total_blocks, dtype=bool)
        for alloc in self._allocations:
            if alloc.advice is advice:
                mask[alloc.first_block:
                     alloc.first_block + alloc.num_blocks] = True
        return mask
