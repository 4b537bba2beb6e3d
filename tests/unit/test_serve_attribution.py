"""Unit tests for tenant attribution and driver chunk teardown."""

import numpy as np
import pytest

from repro.config import MigrationPolicy
from repro.memory.layout import MB
from repro.uvm.attribution import TenantAttribution

from tests.conftest import make_driver, make_vas


def make_attr(owners=(0, 0, 1, 1, -1), n=2):
    return TenantAttribution(np.array(owners, dtype=np.int64), n)


class TestTenantAttribution:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            make_attr(n=0)
        with pytest.raises(ValueError):
            make_attr(owners=(0, 5), n=2)

    def test_evictions_charged_to_owners(self):
        a = make_attr()
        a.on_evict(np.array([0, 1, 2, 4]))
        assert a.evicted_blocks.tolist() == [2, 1]

    def test_self_eviction_is_not_interference(self):
        a = make_attr()
        a.current = 0
        a.on_evict(np.array([0, 1, 2, 3]))
        assert a.evicted_blocks.tolist() == [2, 2]
        assert a.cross_evictions.tolist() == [0, 2]

    def test_eviction_without_context_is_all_interference(self):
        a = make_attr()
        a.on_evict(np.array([0, 2]))
        assert a.cross_evictions.tolist() == [1, 1]

    def test_thrash_charged_to_data_owner(self):
        a = make_attr()
        a.current = 1  # thrash charges the *data's* owner, not current
        a.on_thrash(np.array([0, 0, 4]))
        assert a.thrash_migrations.tolist() == [2, 0]
        assert a.thrash_of(0) == 2


def _touch_all(driver, n_blocks, write=True):
    """Fault every block of the address space in one sweep."""
    from repro.memory.layout import PAGES_PER_BLOCK
    for b in range(0, n_blocks, 8):
        blocks = np.arange(b, min(b + 8, n_blocks))
        pages = blocks * PAGES_PER_BLOCK
        driver.process_wave(pages, np.full(pages.size, write))


class TestReleaseChunks:
    def _driver(self, capacity_mb=16):
        vas = make_vas(4, 4)
        drv = make_driver(vas, MigrationPolicy.ADAPTIVE,
                          capacity_mb=capacity_mb)
        return vas, drv

    def test_release_frees_device_blocks(self):
        vas, drv = self._driver()
        _touch_all(drv, vas.total_blocks)
        assert drv.device.used_blocks > 0
        alloc = vas.allocations[0]
        chunk_ids = [span.chunk_id for span in alloc.chunks]
        before_free = drv.device.free_blocks
        freed, _ = drv.release_chunks(chunk_ids)
        assert freed > 0
        assert drv.device.free_blocks == before_free + freed
        blocks = np.arange(alloc.first_block,
                           alloc.first_block + alloc.num_blocks)
        assert not drv.residency.resident[blocks].any()

    def test_release_counts_dirty_writebacks(self):
        vas, drv = self._driver()
        _touch_all(drv, vas.total_blocks, write=True)
        chunk_ids = [span.chunk_id for a in vas.allocations
                     for span in a.chunks]
        freed, writebacks = drv.release_chunks(chunk_ids)
        assert 0 < writebacks <= freed

    def test_release_adds_no_roundtrips(self):
        """Teardown is free: unlike eviction, no round-trip pollution."""
        vas, drv = self._driver(capacity_mb=64)  # no eviction pressure
        _touch_all(drv, vas.total_blocks)
        assert not drv.counters.has_roundtrips
        chunk_ids = [span.chunk_id for a in vas.allocations
                     for span in a.chunks]
        drv.release_chunks(chunk_ids)
        assert not drv.counters.has_roundtrips
        assert int(drv.counters.roundtrips.sum()) == 0

    def test_release_drops_remote_mappings(self):
        vas, drv = self._driver(capacity_mb=4)  # heavy remote traffic
        _touch_all(drv, vas.total_blocks)
        chunk_ids = [span.chunk_id for a in vas.allocations
                     for span in a.chunks]
        drv.release_chunks(chunk_ids)
        assert not drv.host.remote_mapped.any()

    def test_release_emits_no_eviction_events(self):
        from repro.config import SimulationConfig
        from repro.obs import Observability, RingBufferSink
        from repro.obs.events import Eviction
        from repro.uvm.driver import UvmDriver
        vas = make_vas(4)
        obs = Observability()
        ring = RingBufferSink(4096)
        obs.bus.attach(ring)
        cfg = SimulationConfig().with_policy(
            MigrationPolicy.DISABLED).with_device_capacity(2 * MB)
        drv = UvmDriver(vas, cfg, obs=obs)
        _touch_all(drv, vas.total_blocks)
        pressure_evictions = sum(
            1 for e in ring if isinstance(e, Eviction))
        assert pressure_evictions > 0  # the run itself did evict
        before = len(ring)
        drv.release_chunks([s.chunk_id for a in vas.allocations
                            for s in a.chunks])
        assert len(ring) == before  # teardown emitted nothing

    def test_released_range_can_be_refaulted(self):
        vas, drv = self._driver()
        _touch_all(drv, vas.total_blocks)
        chunk_ids = [span.chunk_id for a in vas.allocations
                     for span in a.chunks]
        drv.release_chunks(chunk_ids)
        _touch_all(drv, vas.total_blocks)  # must not raise
        assert drv.device.used_blocks > 0
