"""Unit tests for placement advice and 64KB-granular eviction."""

import numpy as np
import pytest

from repro.config import EvictionGranularity, MigrationPolicy, SimulationConfig
from repro.memory.advice import Advice
from repro.memory.allocator import VirtualAddressSpace
from repro.memory.layout import MB, PAGES_PER_BLOCK
from repro.uvm.driver import UvmDriver


def driver_for(vas, policy=MigrationPolicy.DISABLED, capacity_mb=16,
               granularity=EvictionGranularity.CHUNK_2MB):
    cfg = SimulationConfig().with_policy(policy)
    cfg = cfg.with_device_capacity(int(capacity_mb * MB))
    cfg = cfg.with_eviction_granularity(granularity)
    return UvmDriver(vas, cfg)


class TestAdvice:
    def test_allocation_carries_advice(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 2 * MB, advice=Advice.PINNED_HOST)
        assert a.advice is Advice.PINNED_HOST
        assert vas.block_advice(Advice.PINNED_HOST)[a.first_block]

    def test_pinned_host_never_migrates(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * MB, advice=Advice.PINNED_HOST)
        drv = driver_for(vas)
        out = drv.process_wave(a.page_range(),
                               np.zeros(a.num_pages, dtype=bool))
        assert out.fault_migrations == 0
        assert out.n_remote == a.num_pages
        assert drv.device.used_blocks == 0

    def test_pinned_host_remote_writes_allowed(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 2 * MB, advice=Advice.PINNED_HOST)
        drv = driver_for(vas)
        out = drv.process_wave(a.page_range(),
                               np.ones(a.num_pages, dtype=bool))
        assert out.n_remote == a.num_pages
        assert out.writeback_blocks == 0  # host copy updated in place

    def test_preferred_host_delays_migration(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 2 * MB, advice=Advice.PREFERRED_HOST)
        drv = driver_for(vas)  # DISABLED policy would migrate instantly
        page = np.array([a.first_page])
        for _ in range(7):   # ts - 1 accesses stay remote
            out = drv.process_wave(page, np.array([False]))
            assert out.fault_migrations == 0
        out = drv.process_wave(page, np.array([False]))
        assert out.fault_migrations == 1

    def test_unadvised_allocation_unaffected(self):
        vas = VirtualAddressSpace()
        vas.malloc_managed("pinned", 2 * MB, advice=Advice.PINNED_HOST)
        b = vas.malloc_managed("plain", 2 * MB)
        drv = driver_for(vas)
        out = drv.process_wave(np.array([b.first_page]), np.array([False]))
        assert out.fault_migrations == 1


class TestBlockGranularEviction:
    def _flood(self, drv, alloc, write=True):
        pages = alloc.page_range()
        drv.process_wave(pages, np.full(pages.shape, write, dtype=bool))

    def test_evicts_only_what_is_needed(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * MB)
        drv = driver_for(vas, capacity_mb=2,
                         granularity=EvictionGranularity.BLOCK_64KB)
        self._flood(drv, a)
        # Device stays exactly full: block eviction frees single frames.
        assert drv.device.used_blocks == drv.device.capacity_blocks
        drv.check_consistency()

    def test_partial_chunks_remain(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * MB)
        drv = driver_for(vas, capacity_mb=2,
                         granularity=EvictionGranularity.BLOCK_64KB)
        self._flood(drv, a)
        # Re-touch one absent block: a single frame is reclaimed,
        # leaving its chunk partially resident (impossible with 2MB
        # granularity, where whole chunks are drained).
        absent = int(np.flatnonzero(~drv.residency.resident)[0])
        drv.process_wave(np.array([absent * PAGES_PER_BLOCK]),
                         np.array([False]))
        occ = drv.directory.occupancy
        assert np.any((occ > 0) & (occ < drv.directory.num_blocks))

    def test_tree_tracks_partial_eviction(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * MB)
        drv = driver_for(vas, capacity_mb=2,
                         granularity=EvictionGranularity.BLOCK_64KB)
        self._flood(drv, a)
        for cid in range(drv.directory.num_chunks):
            drv.trees[cid].check_invariants()

    def test_coldest_blocks_evicted_first(self):
        # 6MB working set over 4MB capacity so victim selection has a
        # genuinely cold chunk to prefer over the hot one.
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 6 * MB)
        drv = driver_for(vas, MigrationPolicy.ADAPTIVE, capacity_mb=4,
                         granularity=EvictionGranularity.BLOCK_64KB)
        hot = np.array([a.first_page])
        # Make block 0 hot, then flood to force eviction.
        for _ in range(5):
            drv.process_wave(hot, np.array([False]),
                             counts=np.array([1000]))
        self._flood(drv, a, write=False)
        assert drv.residency.resident[a.first_block]

    def test_writebacks_counted(self):
        vas = VirtualAddressSpace()
        a = vas.malloc_managed("a", 4 * MB)
        drv = driver_for(vas, capacity_mb=2,
                         granularity=EvictionGranularity.BLOCK_64KB)
        self._flood(drv, a)
        assert drv.stats.totals.writeback_blocks > 0
        assert drv.stats.totals.evicted_blocks > 0
