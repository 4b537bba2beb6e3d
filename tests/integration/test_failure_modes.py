"""Failure-injection and error-contract tests.

These pin down how the system behaves at its edges: degenerate
capacities, accesses outside managed allocations, corrupted traces, and
graceful degradation paths that must not deadlock or corrupt state.
"""

import numpy as np
import pytest

from repro.config import MigrationPolicy, SimulationConfig
from repro.memory.allocator import VirtualAddressSpace
from repro.memory.layout import CHUNK_SIZE, MB, PAGES_PER_BLOCK
from repro.uvm.driver import UvmDriver

from tests.conftest import make_driver, make_vas


class TestDegenerateCapacity:
    def test_single_chunk_capacity_makes_progress(self):
        """Capacity of one 2MB chunk: everything thrashes, nothing breaks."""
        drv = make_driver(make_vas(8), capacity_mb=2)
        pages = np.arange(8 * MB // 4096, dtype=np.int64)
        out = drv.process_wave(pages, np.zeros(pages.shape, dtype=bool))
        served = out.n_local + out.n_remote + out.fault_migrations
        assert served == out.n_accesses
        drv.check_consistency()

    def test_fallback_to_remote_when_no_victim(self):
        """If the only chunk is the one being filled, the faulting
        access degrades to remote service instead of deadlocking."""
        vas = make_vas(4)
        drv = make_driver(vas, capacity_mb=2)
        # Fill the single resident chunk from allocation chunk 0.
        first_chunk_pages = np.arange(512, dtype=np.int64)
        drv.process_wave(first_chunk_pages,
                         np.zeros(512, dtype=bool))
        # Touch a block of chunk 1: its chunk is 'never'-protected and
        # chunk 0 is evictable, so this still migrates ...
        out = drv.process_wave(np.array([512]), np.array([False]))
        assert out.fault_migrations == 1
        drv.check_consistency()

    def test_wave_larger_than_capacity(self):
        drv = make_driver(make_vas(16), capacity_mb=2)
        pages = np.arange(16 * MB // 4096, dtype=np.int64)
        out = drv.process_wave(pages, np.ones(pages.shape, dtype=bool))
        assert drv.device.used_blocks <= drv.device.capacity_blocks
        assert out.n_accesses == pages.size


class TestInvalidAccesses:
    def test_alignment_gap_page_rejected(self):
        """Accessing a page no allocation owns is a workload bug: loud."""
        vas = VirtualAddressSpace()
        vas.malloc_managed("a", 64 * 1024)  # leaves a gap to next chunk
        vas.malloc_managed("b", 64 * 1024)
        drv = make_driver(vas, capacity_mb=4)
        gap_page = PAGES_PER_BLOCK + 1  # inside a's alignment padding
        with pytest.raises(RuntimeError):
            drv.process_wave(np.array([gap_page]), np.array([False]))

    def test_negative_counts_rejected(self):
        """Zero and negative counts fail the wave, both driver entry
        points and the driver's counters alike, before any state moves."""
        from repro.workloads.base import Wave
        drv = make_driver(make_vas(4), capacity_mb=4)
        for bad in (0, -1, -5):
            counts = np.array([bad])
            with pytest.raises(ValueError, match="counts must be >= 1"):
                Wave(np.array([0]), np.array([False]), counts)
            with pytest.raises(ValueError, match="counts must be >= 1"):
                drv.process_wave(np.array([0]), np.array([False]),
                                 counts=counts)
            with pytest.raises(ValueError, match="counts must be >= 1"):
                drv.process_wave_batch(
                    [(np.array([0, 16]), np.array([False, True]),
                      np.array([3, bad]))])
        assert drv.stats.waves == 0
        assert not drv.counters.counts.any()
        assert not drv.residency.resident.any()


class TestTraceCorruption:
    def test_truncated_file(self, tmp_path):
        from repro.trace import load_trace
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"PK\x03\x04 corrupted")
        with pytest.raises(Exception):
            load_trace(bad)

    def test_tampered_offsets(self, tmp_path):
        from repro.trace import load_trace, record_trace, save_trace
        from repro.workloads import make_workload
        import numpy as np
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        data.wave_offsets = data.wave_offsets.copy()
        data.wave_offsets[-1] += 5
        with pytest.raises(ValueError):
            save_trace(data, tmp_path / "x.npz")


class TestConfigMisuse:
    def test_oversub_run_with_explicit_tiny_capacity(self):
        """Explicit capacities below one chunk are rejected up front."""
        with pytest.raises(ValueError):
            SimulationConfig().with_device_capacity(CHUNK_SIZE - 1)

    def test_simulator_rejects_bad_oversubscription(self):
        from repro import Simulator
        from tests.conftest import StreamWorkload
        with pytest.raises(ValueError):
            Simulator(SimulationConfig()).run(StreamWorkload(size_mb=4),
                                              oversubscription=-1.0)

    def test_driver_requires_allocations(self):
        with pytest.raises(ValueError):
            UvmDriver(VirtualAddressSpace(), SimulationConfig())


class TestDeterministicDegradation:
    def test_thrash_storm_is_reproducible(self):
        """Even pathological thrashing is exactly reproducible."""
        def run():
            drv = make_driver(make_vas(8), MigrationPolicy.ADAPTIVE,
                              capacity_mb=2)
            rng = np.random.default_rng(99)
            for _ in range(10):
                pages = rng.integers(0, 8 * MB // 4096, size=300)
                drv.process_wave(pages, rng.random(300) < 0.5)
            t = drv.stats.totals
            return (t.thrash_migrations, t.evicted_blocks,
                    t.n_remote, t.fault_migrations)
        assert run() == run()
