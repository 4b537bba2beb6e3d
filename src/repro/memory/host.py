"""Host memory backing store bookkeeping.

In UVM the host holds the authoritative copy of every page that is not
resident on the device (Section III-C: a single physical copy exists at
any time), so which blocks are host-backed is exactly the complement of
:attr:`repro.uvm.residency.ResidencyMap.resident`.  The simulator does
not move real data, so this module only tracks the *protocol*: which
host-backed blocks have a remote (zero-copy) mapping established by the
device.  The driver's consistency checks assert that no remote-mapped
block is device-resident.
"""

from __future__ import annotations

import numpy as np


class HostMemory:
    """Host-side mapping state for every basic block in the VA space."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise ValueError("VA space must contain at least one block")
        #: True when the device has established a remote zero-copy mapping
        #: to the host copy (so further remote accesses need no fault).
        self.remote_mapped = np.zeros(total_blocks, dtype=bool)

    def map_remote(self, blocks: np.ndarray) -> None:
        """Establish device->host zero-copy mappings for host-backed blocks.

        Callers pass blocks that are not device-resident; the driver's
        ``check_consistency`` audit (``--debug-invariants``) verifies it.
        """
        self.remote_mapped[blocks] = True
