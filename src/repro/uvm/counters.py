"""Access counter file (Section IV, "Access Counter Maintenance").

The paper keeps one 32-bit register per 64KB basic block: the low 27 bits
count accesses (both device-local and remote -- unlike Volta hardware,
which counts only remote accesses) and the top 5 bits count round trips,
i.e. how many times the block has been evicted.  When either field of any
block saturates, the framework *halves* that field across all blocks
instead of resetting, preserving the relative hotness ordering across
allocations.
"""

from __future__ import annotations

import numpy as np

from ..accel import kernels
from ..obs.events import CounterHalving


class AccessCounterFile:
    """Vectorized per-basic-block access and round-trip counters.

    ``bus`` optionally connects the file to the observability event bus:
    every global halving then emits a
    :class:`~repro.obs.events.CounterHalving` event (halvings are rare
    and change the relative hotness resolution, so they are worth
    tracing when debugging threshold behaviour).

    Each field keeps a running upper bound on its maximum, raised by
    every update, and scans the updated blocks for saturation only once
    that bound reaches the field's limit.  The fields change only
    through this file (:attr:`counts` and :attr:`roundtrips` are
    read-only views), so the bounds stay sound.
    """

    def __init__(self, total_blocks: int, counter_bits: int = 27,
                 roundtrip_bits: int = 5, bus=None) -> None:
        if total_blocks <= 0:
            raise ValueError("need at least one basic block")
        self.bus = bus
        if counter_bits + roundtrip_bits != 32:
            raise ValueError("counter register must total 32 bits")
        self.counter_max = np.int64((1 << counter_bits) - 1)
        self.roundtrip_max = np.int64((1 << roundtrip_bits) - 1)
        # Stored wider than the architectural registers so a vectorized
        # bulk add cannot wrap before the saturation check runs.  int64
        # (rather than uint64) keeps the fields in the native dtype of
        # the driver's wave arithmetic, so the per-wave bulk adds and the
        # policies' counter gathers never pay a dtype-conversion copy.
        self._counts = np.zeros(total_blocks, dtype=np.int64)
        self._roundtrips = np.zeros(total_blocks, dtype=np.int64)
        self._counts_view = self._counts.view()
        self._counts_view.flags.writeable = False
        self._roundtrips_view = self._roundtrips.view()
        self._roundtrips_view.flags.writeable = False
        # Upper bounds on each field's maximum (see the class docstring).
        self._counts_bound = 0
        self._roundtrips_bound = 0
        #: Volta-hardware-style counters: remote accesses since the block
        #: last migrated (reset on migration).  The static Always/Oversub
        #: schemes consult these; the paper's framework uses the historic
        #: ``counts`` above instead -- that difference is Section IV's
        #: "Access Counter Maintenance" contribution.
        self.volta_counts = np.zeros(total_blocks, dtype=np.int64)
        #: Number of times each field has been globally halved (statistic).
        self.count_halvings = 0
        self.roundtrip_halvings = 0
        #: Whether any block has ever taken an eviction round trip; lets
        #: the driver skip thrash accounting until the first eviction.
        self.has_roundtrips = False

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the access-count field."""
        return self._counts_view

    @property
    def roundtrips(self) -> np.ndarray:
        """Read-only view of the round-trip field."""
        return self._roundtrips_view

    def add_accesses(self, blocks: np.ndarray, amounts: np.ndarray,
                     total: int | None = None) -> None:
        """Accumulate per-block access counts (local and remote alike).

        ``blocks`` may contain duplicates; the non-negative ``amounts``
        are added per entry, and ``total`` is their sum when the caller
        already has it.  Saturation of any block halves the
        access-count field of *all* blocks, as described in the paper.
        """
        kernels.scatter_add(self._counts, blocks,
                            amounts.astype(np.int64, copy=False))
        self._halve_saturated_counts(blocks, amounts, total)

    def add_accesses_unique(self, blocks: np.ndarray, amounts: np.ndarray,
                            total: int | None = None) -> None:
        """:meth:`add_accesses` for *distinct* blocks.

        A grouped wave's blocks (:func:`~repro.uvm.driver.group_wave`)
        are duplicate-free, so a plain fancy add replaces the
        duplicate-safe scatter.  Bit-identical to :meth:`add_accesses`
        on such input.
        """
        kernels.scatter_add_unique(self._counts, blocks,
                                   amounts.astype(np.int64, copy=False))
        self._halve_saturated_counts(blocks, amounts, total)

    def _halve_saturated_counts(self, blocks: np.ndarray, amounts: np.ndarray,
                                total: int | None) -> None:
        # No block grows by more than the update's total, so while the
        # bound stays below the limit no block can have saturated.
        self._counts_bound += int(amounts.sum()) if total is None else total
        if self._counts_bound < self.counter_max:
            return
        # Only just-updated blocks can newly saturate (counts never grow
        # elsewhere), so the check scans the update, not the whole file.
        n = kernels.halve_while_ge(self._counts, blocks, self.counter_max)
        self._counts_bound = int(self._counts.max())
        for _ in range(n):
            self.count_halvings += 1
            if self.bus is not None and self.bus.enabled:
                self.bus.emit(CounterHalving(wave=self.bus.wave,
                                             field="counts",
                                             halvings=self.count_halvings))

    def add_roundtrip(self, blocks: np.ndarray) -> None:
        """Record an eviction round trip for each *distinct* block."""
        kernels.increment(self._roundtrips, blocks)
        self.has_roundtrips = True
        # Distinct blocks each step by one, so the bound does too.
        self._roundtrips_bound += 1
        if self._roundtrips_bound <= self.roundtrip_max:
            return
        n = kernels.halve_while_gt(self._roundtrips, blocks,
                                   self.roundtrip_max)
        self._roundtrips_bound = int(self._roundtrips.max())
        for _ in range(n):
            self.roundtrip_halvings += 1
            if self.bus is not None and self.bus.enabled:
                self.bus.emit(CounterHalving(
                    wave=self.bus.wave, field="roundtrips",
                    halvings=self.roundtrip_halvings))

    def add_remote_accesses_unique(self, blocks: np.ndarray,
                                   amounts: np.ndarray) -> None:
        """Accumulate the Volta-style remote-access counters of
        *distinct* blocks (the driver resets them on migration)."""
        kernels.scatter_add_unique(self.volta_counts, blocks, amounts)
