"""Unit tests for DeviceMemory, HostMemory and ResidencyMap."""

import numpy as np
import pytest

from repro.config import MigrationPolicy
from repro.memory.device import DeviceMemory
from repro.memory.host import HostMemory
from repro.memory.layout import CHUNK_SIZE, PAGES_PER_BLOCK
from repro.uvm.driver import WaveOutcome
from repro.uvm.residency import ResidencyMap

from tests.conftest import make_driver, make_vas


class TestDeviceMemory:
    def test_capacity_blocks(self):
        dev = DeviceMemory(2 * CHUNK_SIZE)
        assert dev.capacity_blocks == 64
        assert dev.capacity_bytes == 2 * CHUNK_SIZE

    def test_allocate_release_cycle(self):
        dev = DeviceMemory(CHUNK_SIZE)
        dev.allocate(10)
        assert dev.used_blocks == 10
        assert dev.free_blocks == 22
        dev.release(4)
        assert dev.used_blocks == 6

    def test_occupancy_fraction(self):
        dev = DeviceMemory(CHUNK_SIZE)
        dev.allocate(16)
        assert dev.occupancy == pytest.approx(0.5)

    def test_overflow_raises(self):
        dev = DeviceMemory(CHUNK_SIZE)
        with pytest.raises(RuntimeError):
            dev.allocate(33)

    def test_release_too_much_raises(self):
        dev = DeviceMemory(CHUNK_SIZE)
        dev.allocate(2)
        with pytest.raises(ValueError):
            dev.release(3)

    def test_pressure_flag_sticks(self):
        dev = DeviceMemory(CHUNK_SIZE)
        assert not dev.oversubscribed
        dev.note_pressure()
        assert dev.oversubscribed

    def test_peak_tracking(self):
        dev = DeviceMemory(CHUNK_SIZE)
        dev.allocate(20)
        dev.release(15)
        dev.allocate(5)
        assert dev.peak_used_blocks == 20

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            DeviceMemory(CHUNK_SIZE - 1)


def _driver_with_resident_block():
    """A driver whose block 0 is device-resident after one wave."""
    drv = make_driver(make_vas(4), MigrationPolicy.DISABLED)
    drv.process_wave(np.array([0]), np.array([False]))
    assert drv.residency.resident[0]
    return drv


class TestHostMemory:
    """Host-backed means not device-resident: the host keeps no flag of
    its own, and the driver's audits check that a remote mapping only
    ever covers a block that is not device-resident."""

    def test_initially_unmapped(self):
        host = HostMemory(8)
        assert host.remote_mapped.shape == (8,)
        assert not host.remote_mapped.any()

    def test_migrate_invalidates_and_unmaps(self):
        """A block the driver migrates loses its remote mapping."""
        drv = make_driver(make_vas(4), MigrationPolicy.ALWAYS, ts=8)
        pages = np.array([PAGES_PER_BLOCK, 2 * PAGES_PER_BLOCK])
        drv.process_wave(pages, np.array([False, False]))
        assert drv.host.remote_mapped[[1, 2]].all()
        drv.process_wave(pages[:1], np.array([False]),
                         counts=np.array([20]))
        assert drv.residency.resident[1]
        assert not drv.host.remote_mapped[1]
        assert drv.host.remote_mapped[2]

    def test_evicted_block_may_map_remote(self):
        drv = _driver_with_resident_block()
        drv._evict_chunk(0, WaveOutcome())
        drv.host.map_remote(np.array([0]))
        drv.check_consistency()

    def test_remote_map_requires_host_valid(self):
        drv = _driver_with_resident_block()
        drv.host.map_remote(np.array([0]))
        with pytest.raises(AssertionError, match="remote-mapped"):
            drv.check_consistency()

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            HostMemory(0)


class TestResidencyMap:
    def test_mark_and_count(self):
        res = ResidencyMap(10)
        res.resident[[2, 5]] = True
        assert res.resident_count == 2
        assert res.resident[2] and res.resident[5]

    def test_reinstalled_block_is_clean(self):
        """Eviction clears a written block's dirty bit, so the driver's
        install of it again starts clean."""
        drv = _driver_with_resident_block()
        drv.process_wave(np.array([0]), np.array([True]))
        assert drv.residency.dirty[0]
        drv._evict_chunk(0, WaveOutcome())
        assert not drv.residency.dirty[0]
        drv.process_wave(np.array([0]), np.array([False]))
        assert drv.residency.resident[0] and not drv.residency.dirty[0]
        drv.check_consistency()

    def test_evict_returns_dirty_count(self):
        res = ResidencyMap(6)
        blocks = np.array([0, 1, 2])
        res.resident[blocks] = True
        res.mark_dirty(np.array([0, 2]))
        assert res.evict(blocks) == 2
        assert res.resident_count == 0
        assert not res.dirty.any()

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            ResidencyMap(0)
