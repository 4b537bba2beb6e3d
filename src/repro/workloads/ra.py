"""ra (HPC Challenge RandomAccess / GUPS).

The paper's most extreme irregular workload: uniformly random
read-modify-write updates to one huge table, with **no data reuse at
all** -- which makes it "a perfect candidate for zero-copy host-pinned
memory access" (Section VI-C).  Under first-touch migration every update
to a non-resident 64KB block drags the whole block (plus prefetch) over
PCIe just to serve a single 8-byte update, then thrashes it back out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Category, KernelLaunch, Wave, Workload
from .util import coalesced_page_offsets_batch


@dataclass(frozen=True)
class RaParams:
    """Table size and update volume for RandomAccess."""

    #: Number of 8-byte table entries (HPCC uses a power of two).
    table_entries: int = 1 << 23
    #: Total random updates (HPCC mandates 4x table size; we scale down
    #: to keep simulation time bounded -- the access pattern is what
    #: matters, not the absolute update count).
    updates: int = 1 << 18
    updates_per_wave: int = 2048
    #: Arithmetic intensity: compute cycles per coalesced access
    #: (a single xor per update).
    compute_per_access: float = 0.5

    @property
    def table_bytes(self) -> int:
        """Bytes of the update table."""
        return self.table_entries * 8


PRESETS: dict[str, RaParams] = {
    "tiny": RaParams(table_entries=1 << 21, updates=1 << 14,
                     updates_per_wave=128),
    "small": RaParams(table_entries=1 << 23, updates=1 << 16,
                      updates_per_wave=512),
    "medium": RaParams(table_entries=1 << 24, updates=1 << 17,
                       updates_per_wave=1024),
}


class RandomAccess(Workload):
    """GUPS: xor-update random table entries."""

    name = "ra"
    category = Category.IRREGULAR

    def __init__(self, params: RaParams | None = None) -> None:
        super().__init__()
        self.params = params or RaParams()
        self._rng: np.random.Generator | None = None

    def _allocate(self, vas, rng) -> None:
        p = self.params
        self.table = self._register(
            vas.malloc_managed("ra.table", p.table_bytes))
        self._rng = np.random.default_rng(rng.integers(0, 2**63))

    #: Waves of update indices drawn per bulk RNG call.  One bulk
    #: ``integers`` consumes the PCG64 stream element by element exactly
    #: like the per-wave draws it replaces, so wave content is unchanged
    #: while the RNG call overhead amortizes across the chunk.
    _DRAW_WAVES = 16

    def _updates(self) -> Iterator[Wave]:
        """Waves of random read-modify-write updates."""
        p = self.params
        rng = self._rng
        done = 0
        while done < p.updates:
            span = min(p.updates_per_wave * self._DRAW_WAVES,
                       p.updates - done)
            idx = rng.integers(0, p.table_entries, size=span,
                               dtype=np.int64)
            bounds = np.append(np.arange(0, span, p.updates_per_wave), span)
            # 8-byte entries; each update is one read plus one write of
            # the sector.
            rel_pages, counts, page_bounds = coalesced_page_offsets_batch(
                idx, bounds, 8, accesses_per_sector=2)
            pages = self.table.first_page + rel_pages
            is_write = np.ones(pages.shape, dtype=bool)
            edges = page_bounds.tolist()
            for w, n in enumerate(np.diff(bounds).tolist()):
                lo, hi = edges[w], edges[w + 1]
                yield Wave(pages[lo:hi], is_write[lo:hi],
                           counts=counts[lo:hi],
                           compute_cycles=p.compute_per_access * 2 * n)
            done += span

    def kernels(self) -> Iterator[KernelLaunch]:
        yield KernelLaunch("ra.update", 0, self._updates)
