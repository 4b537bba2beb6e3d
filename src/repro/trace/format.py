"""On-disk trace format (single ``.npz`` file).

A trace captures everything the simulator consumes from a workload: the
managed-allocation table and the full wave stream (pages, write flags,
coalesced access counts, compute estimates), grouped by kernel launch.
Traces let a workload's access pattern be generated once and re-simulated
under many configurations, or be produced by external tools.

Arrays stored:

========================  =====================================================
``alloc_names``           allocation names (unicode)
``alloc_sizes``           requested bytes per allocation (int64)
``alloc_read_only``       read-only flags (bool)
``alloc_advice``          advice codes (unicode, ``Advice.value``)
``kernel_names``          one entry per kernel launch (unicode)
``kernel_iterations``     iteration id per launch (int64)
``wave_kernel``           launch index per wave (int64)
``wave_offsets``          CSR offsets into the flattened access arrays
``wave_compute``          compute-cycles override per wave (NaN = default)
``pages`` / ``is_write`` / ``counts``   flattened access stream
``groups``                version 2: every wave's per-block grouping
========================  =====================================================

``groups`` packs four int64 arrays end to end (:func:`pack_groups`):
``group_offsets``, CSR offsets of each wave's groups (one per wave plus
a sentinel), then ``group_blocks``, ``group_totals`` and
``group_writes``, each wave's distinct 64KB blocks in ascending order
with the accesses and the write accesses to each -- what
:func:`repro.uvm.driver.group_wave` returns for the wave.  One packed
array rather than four keeps a trace directory at one more file to
open per replay.  Version-1 traces, and external traces that omit
``groups``, load unchanged and replay through the driver's own
grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..memory import layout
from ..memory.allocator import VirtualAddressSpace

#: Format version written into every trace file.
TRACE_VERSION = 2

#: Versions :meth:`TraceData.validate` accepts (version 1 has no groups).
SUPPORTED_VERSIONS = (1, TRACE_VERSION)

#: The grouped arrays, in their packed order.
GROUP_FIELDS = ("group_offsets", "group_blocks", "group_totals",
                "group_writes")


@dataclass
class TraceData:
    """In-memory representation of a recorded trace."""

    alloc_names: list[str]
    alloc_sizes: np.ndarray
    alloc_read_only: np.ndarray
    alloc_advice: list[str]
    kernel_names: list[str]
    kernel_iterations: np.ndarray
    wave_kernel: np.ndarray
    wave_offsets: np.ndarray
    wave_compute: np.ndarray
    pages: np.ndarray
    is_write: np.ndarray
    counts: np.ndarray
    version: int = TRACE_VERSION
    meta: dict = field(default_factory=dict)
    #: Per-wave grouping (version 2); all four or none (:data:`GROUP_FIELDS`).
    group_offsets: np.ndarray | None = None
    group_blocks: np.ndarray | None = None
    group_totals: np.ndarray | None = None
    group_writes: np.ndarray | None = None

    @property
    def num_waves(self) -> int:
        """Number of recorded waves."""
        return self.wave_kernel.size

    @property
    def num_launches(self) -> int:
        """Number of recorded kernel launches."""
        return len(self.kernel_names)

    @property
    def num_accesses(self) -> int:
        """Total coalesced accesses in the trace."""
        return int(self.counts.sum())

    @property
    def grouped(self) -> bool:
        """Whether the trace stores every wave's per-block grouping."""
        return self.group_offsets is not None

    def layout(self) -> VirtualAddressSpace:
        """The virtual address space the allocation table lays out.

        The allocator is deterministic, so its allocations hold the
        recorded page ids.
        """
        vas = VirtualAddressSpace()
        for name, size in zip(self.alloc_names, self.alloc_sizes):
            vas.malloc_managed(name, int(size))
        return vas

    def validate(self) -> None:
        """Check structural invariants of the trace.

        One scan of ``counts`` and of ``pages``; a grouped trace adds
        one more scan of ``counts`` (each wave's total) and a few of
        the grouped arrays, whose offsets are checked per wave.  A page
        or block id outside the virtual address space the allocations
        lay out, and a wave whose grouping does not fit its accesses,
        are rejected with an error that names the first such wave.
        """
        if self.version not in SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported trace version {self.version}")
        if self.wave_offsets[0] != 0 or self.wave_offsets[-1] != self.pages.size:
            raise ValueError("wave offsets do not cover the access stream")
        if np.any(np.diff(self.wave_offsets) < 0):
            raise ValueError("wave offsets must be nondecreasing")
        if self.wave_offsets.size != self.num_waves + 1:
            raise ValueError("need one offset per wave plus a sentinel")
        if not (self.pages.size == self.is_write.size == self.counts.size):
            raise ValueError("access arrays must be parallel")
        if self.wave_kernel.size and (
                self.wave_kernel.min() < 0
                or self.wave_kernel.max() >= self.num_launches):
            raise ValueError("wave kernel index out of range")
        if self.counts.size and self.counts.min() < 1:
            raise ValueError("counts must be >= 1")
        if len(self.alloc_names) != self.alloc_sizes.size:
            raise ValueError("allocation table arrays must be parallel")
        pages = self.layout().total_pages
        _check_ids(self.wave_offsets, self.pages, pages, "page")
        self._validate_groups(pages >> layout.BLOCK_SHIFT)

    def _validate_groups(self, blocks: int) -> None:
        present = [getattr(self, name) is not None for name in GROUP_FIELDS]
        if not any(present):
            return
        if not all(present):
            raise ValueError(f"grouped arrays {', '.join(GROUP_FIELDS)} "
                             "come together")
        go, gb = self.group_offsets, self.group_blocks
        if not (gb.size == self.group_totals.size == self.group_writes.size):
            raise ValueError("grouped arrays must be parallel")
        if go.size != self.num_waves + 1 or go[0] != 0 or go[-1] != gb.size:
            raise ValueError("group offsets do not cover the grouped arrays")
        groups = np.diff(go)
        entries = np.diff(self.wave_offsets)
        bad = (groups < 0) | (groups > entries) | ((groups == 0)
                                                   != (entries == 0))
        if bad.any():
            raise ValueError(f"wave {int(np.argmax(bad))}: group offsets do "
                             "not match the wave's accesses")
        _check_ids(go, gb, blocks, "block")
        if not gb.size:
            return
        # Replay trusts these arrays in place of the page stream: each
        # wave's blocks must be distinct and ascending (the driver's
        # unique adds and run compression rely on it), and its totals
        # must add up to its counts.
        starts = go[:-1][groups > 0]
        rising = gb[1:] > gb[:-1]
        rising[starts[1:] - 1] = True  # a wave's first block may drop
        if not rising.all():
            _reject(go, 1 + int(np.argmin(rising)),
                    "blocks do not strictly ascend")
        gt, gw = self.group_totals, self.group_writes
        if gt.min() < 1:
            _reject(go, int(np.argmax(gt < 1)), "group totals must be >= 1")
        if gw.min() < 0 or (gw > gt).any():
            _reject(go, int(np.argmax((gw < 0) | (gw > gt))),
                    "group writes must lie in [0, totals]")
        nonempty = entries > 0
        sums = (np.add.reduceat(self.counts, self.wave_offsets[:-1][nonempty],
                                dtype=np.int64)
                != np.add.reduceat(gt, starts, dtype=np.int64))
        if sums.any():
            wave = int(np.flatnonzero(nonempty)[np.argmax(sums)])
            raise ValueError(f"wave {wave}: group totals do not add up to "
                             "the wave's counts")


def _wave_of(offsets: np.ndarray, index: int) -> int:
    """The wave whose CSR range (``offsets``) holds entry ``index``."""
    return int(np.searchsorted(offsets, index, "right")) - 1


def _reject(offsets: np.ndarray, index: int, what: str) -> None:
    """Reject a trace for its entry ``index``, naming that entry's wave."""
    raise ValueError(f"wave {_wave_of(offsets, index)}: {what}")


def _check_ids(offsets: np.ndarray, ids: np.ndarray, limit: int,
               kind: str) -> None:
    """Reject ids outside ``[0, limit)``, naming the first wave with one.

    ``offsets`` are the CSR offsets of ``ids`` per wave.  One scan
    checks both bounds: viewed as unsigned, a negative id exceeds any
    limit.
    """
    if not ids.size or (np.asarray(ids, dtype=np.int64).view(np.uint64)
                        .max() < limit):
        return
    index = int(np.argmax((ids < 0) | (ids >= limit)))
    value = int(ids[index])
    where = ("negative" if value < 0 else
             f"past the {limit} {kind}s the allocations lay out")
    raise ValueError(f"wave {_wave_of(offsets, index)}: {kind} id {value} "
                     f"is {where}")


def pack_groups(data: TraceData) -> np.ndarray:
    """``data``'s grouped arrays as the one array a trace file stores."""
    return np.concatenate([np.asarray(getattr(data, name), dtype=np.int64)
                           for name in GROUP_FIELDS])


def unpack_groups(packed: np.ndarray, num_waves: int) -> dict:
    """Split a stored ``groups`` array into the :data:`GROUP_FIELDS`.

    The parts are views of ``packed``, so a memory-mapped array stays
    mapped.
    """
    n, rem = divmod(packed.size - (num_waves + 1), 3)
    if n < 0 or rem:
        raise ValueError(f"groups array of {packed.size} entries does not "
                         f"fit {num_waves} waves")
    cuts = np.cumsum([num_waves + 1, n, n])
    return dict(zip(GROUP_FIELDS, np.split(packed, cuts)))
