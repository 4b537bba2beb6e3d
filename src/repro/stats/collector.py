"""Run statistics: counters, per-page histograms, and access traces.

The collector sits next to the driver and records what the paper's
figures need:

* cumulative event totals (runtime components, thrash counts) for
  Figures 1 and 4--8;
* optional per-page read/write access histograms, grouped per managed
  allocation, for the Figure 2 access-distribution plots;
* optional sampled ``(cycle, page, is_write)`` traces tagged with kernel
  name and iteration for the Figure 3 access-pattern visualizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..memory.allocator import VirtualAddressSpace


@dataclass
class TraceRecord:
    """One sampled wave for access-pattern plots (Figure 3)."""

    cycle: float
    kernel: str
    iteration: int
    pages: np.ndarray
    is_write: np.ndarray


@dataclass
class KernelStats:
    """Aggregated cycles and accesses per kernel name."""

    cycles: float = 0.0
    accesses: int = 0
    launches: int = 0


class StatsCollector:
    """Optional heavyweight instrumentation toggled by the config.

    A collector **accumulates** across every run it observes: feeding a
    second engine run into the same instance sums its page histograms,
    extends its trace, and merges per-kernel stats by
    kernel name (``launches`` keeps growing).  That is the right
    behaviour for a multi-kernel workload within one run, but reusing
    one collector across repeated ``Simulator``/engine runs silently
    aggregates them -- call :meth:`reset` between runs when per-run
    stats are wanted.
    """

    def __init__(self, vas: VirtualAddressSpace,
                 histogram: bool = False, trace: bool = False,
                 trace_sample: int = 512) -> None:
        self.vas = vas
        self.histogram_enabled = histogram
        self.trace_enabled = trace
        self.trace_sample = trace_sample
        n = vas.total_pages
        self.page_reads = np.zeros(n, dtype=np.int64) if histogram else None
        self.page_writes = np.zeros(n, dtype=np.int64) if histogram else None
        self.trace: list[TraceRecord] = []
        self.kernels: dict[str, KernelStats] = {}

    def reset(self) -> None:
        """Clear all accumulated state so the collector can be reused.

        Zeroes the page histograms in place and empties the trace and
        the per-kernel aggregates.  The enabled/disabled
        switches and the bound address space are untouched, so the
        collector observes its next run exactly as a fresh instance
        would.
        """
        if self.histogram_enabled:
            self.page_reads[:] = 0
            self.page_writes[:] = 0
        self.trace.clear()
        self.kernels.clear()

    def on_wave(self, kernel: str, iteration: int, cycle: float,
                pages: np.ndarray, is_write: np.ndarray,
                counts: np.ndarray | None = None) -> None:
        """Record one wave before the driver consumes it."""
        if counts is None:
            counts = np.ones(pages.shape, dtype=np.int64)
        if self.histogram_enabled:
            np.add.at(self.page_reads, pages[~is_write], counts[~is_write])
            np.add.at(self.page_writes, pages[is_write], counts[is_write])
        if self.trace_enabled and pages.size:
            if pages.size > self.trace_sample:
                idx = np.linspace(0, pages.size - 1, self.trace_sample,
                                  dtype=np.int64)
                rec_pages, rec_writes = pages[idx], is_write[idx]
            else:
                rec_pages, rec_writes = pages.copy(), is_write.copy()
            self.trace.append(TraceRecord(cycle, kernel, iteration,
                                          rec_pages, rec_writes))

    def on_kernel_end(self, kernel: str, cycles: float, accesses: int) -> None:
        """Accumulate per-kernel totals."""
        ks = self.kernels.setdefault(kernel, KernelStats())
        ks.cycles += cycles
        ks.accesses += accesses
        ks.launches += 1

    # -- Figure 2 helpers ---------------------------------------------------

    def allocation_histogram(self, name: str) -> dict[str, np.ndarray]:
        """Per-page read/write counts of one allocation, requested pages only."""
        if not self.histogram_enabled:
            raise RuntimeError("histogram collection was not enabled")
        alloc = next(a for a in self.vas.allocations if a.name == name)
        lo, hi = alloc.first_page, alloc.last_page
        return {
            "reads": self.page_reads[lo:hi].copy(),
            "writes": self.page_writes[lo:hi].copy(),
        }

    def allocation_summary(self) -> list[dict]:
        """Access totals per allocation (hot/cold, RO/RW classification)."""
        if not self.histogram_enabled:
            raise RuntimeError("histogram collection was not enabled")
        rows = []
        for alloc in self.vas.allocations:
            lo, hi = alloc.first_page, alloc.last_page
            reads = int(self.page_reads[lo:hi].sum())
            writes = int(self.page_writes[lo:hi].sum())
            pages = hi - lo
            rows.append({
                "name": alloc.name,
                "pages": pages,
                "reads": reads,
                "writes": writes,
                "accesses_per_page": (reads + writes) / pages,
                "read_only": writes == 0,
            })
        return rows
