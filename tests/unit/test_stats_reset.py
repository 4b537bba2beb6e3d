"""Regression tests: StatsCollector reuse across runs.

The collector accumulates by design (multi-kernel workloads), but that
meant reusing one instance across repeated Simulator/engine runs
silently aggregated per-kernel stats, histograms, and traces across the
runs.  ``reset()`` restores a fresh-instance view between runs.
"""

import numpy as np

from repro.memory.allocator import VirtualAddressSpace
from repro.memory.layout import MB
from repro.stats.collector import StatsCollector


def _vas():
    vas = VirtualAddressSpace()
    vas.malloc_managed("a", 2 * MB)
    return vas


def _feed_run(collector):
    """Simulate what one engine run feeds the collector."""
    pages = np.array([0, 1, 2], dtype=np.int64)
    writes = np.array([False, True, False])
    collector.on_wave("k", 0, 0.0, pages, writes)
    collector.on_kernel_end("k", 100.0, 3)


class TestReset:
    def test_reuse_without_reset_accumulates(self):
        c = StatsCollector(_vas(), histogram=True, trace=True)
        _feed_run(c)
        _feed_run(c)
        # documented accumulation semantics: everything doubles up
        assert c.kernels["k"].launches == 2
        assert c.kernels["k"].cycles == 200.0
        assert int(c.page_reads.sum()) == 4
        assert len(c.trace) == 2

    def test_reset_restores_fresh_instance_behaviour(self):
        c = StatsCollector(_vas(), histogram=True, trace=True)
        _feed_run(c)
        c.reset()
        _feed_run(c)

        fresh = StatsCollector(_vas(), histogram=True, trace=True)
        _feed_run(fresh)

        assert c.kernels["k"].launches == fresh.kernels["k"].launches == 1
        assert c.kernels["k"].cycles == fresh.kernels["k"].cycles
        assert np.array_equal(c.page_reads, fresh.page_reads)
        assert np.array_equal(c.page_writes, fresh.page_writes)
        assert len(c.trace) == len(fresh.trace) == 1

    def test_reset_keeps_switches_and_vas(self):
        vas = _vas()
        c = StatsCollector(vas, histogram=True)
        _feed_run(c)
        c.reset()
        assert c.histogram_enabled and c.vas is vas
        assert int(c.page_reads.sum()) == 0

    def test_reset_with_histogram_disabled(self):
        c = StatsCollector(_vas())
        c.on_kernel_end("k", 1.0, 1)
        c.reset()  # must not touch the absent histogram arrays
        assert c.page_reads is None and not c.kernels
