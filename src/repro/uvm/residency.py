"""Per-basic-block residency and dirty state (the simulated page table).

The GMMU's page table is modelled at basic-block (64KB) granularity, the
unit at which the driver migrates, prefetches and counts accesses.  Each
block is either HOST-backed or DEVICE-resident; DEVICE-resident blocks
carry a dirty bit that forces a write-back on eviction (the long-latency
write-backs Section III-A blames for regular apps' oversubscription
overhead).
"""

from __future__ import annotations

import numpy as np


class ResidencyMap:
    """Vectorized residency/dirty state for the whole VA space."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise ValueError("VA space must contain at least one block")
        #: True when the block is resident in device memory.
        self.resident = np.zeros(total_blocks, dtype=bool)
        #: True when the device copy has been written since migration.
        self.dirty = np.zeros(total_blocks, dtype=bool)

    @property
    def resident_count(self) -> int:
        """Number of device-resident blocks."""
        return int(np.count_nonzero(self.resident))

    def mark_dirty(self, blocks: np.ndarray) -> None:
        """Record device-local writes; caller guarantees residency."""
        self.dirty[blocks] = True

    def evict(self, blocks: np.ndarray) -> int:
        """Remove device mappings; returns the number of dirty blocks.

        The dirty count drives write-back traffic accounting.  Dirty bits
        are cleared because the host copy becomes authoritative again.
        """
        n_dirty = int(np.count_nonzero(self.dirty[blocks]))
        self.resident[blocks] = False
        self.dirty[blocks] = False
        return n_dirty
