"""Unit tests for the UVM driver mechanics."""

import numpy as np
import pytest

from repro.config import MigrationPolicy
from repro.memory.layout import MB, PAGES_PER_BLOCK, PAGES_PER_CHUNK
from repro.uvm.driver import UvmDriver, group_wave

from tests.conftest import make_driver, make_vas


def pages_of_blocks(*blocks):
    """First page of each given block index."""
    return np.array([b * PAGES_PER_BLOCK for b in blocks], dtype=np.int64)


class TestFirstTouch:
    def test_first_access_migrates(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out.fault_migrations == 1
        assert out.migrated_blocks == 1
        assert out.n_remote == 0
        assert drv.residency.resident[0]
        drv.check_consistency()

    def test_second_access_is_local(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        drv.process_wave(pages_of_blocks(0), np.array([False]))
        out = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out.fault_migrations == 0
        assert out.n_local == 1

    def test_write_sets_dirty(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        drv.process_wave(pages_of_blocks(0), np.array([True]))
        drv.process_wave(pages_of_blocks(0), np.array([True]))
        assert drv.residency.dirty[0]

    def test_counts_weighting(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]),
                               counts=np.array([10]))
        assert out.n_accesses == 10
        # first access faults; the rest hit locally after migration
        assert out.n_local == 9
        assert drv.counters.counts[0] == 10

    def test_empty_wave(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        out = drv.process_wave(np.empty(0, dtype=np.int64),
                               np.empty(0, dtype=bool))
        assert out.n_accesses == 0

    def test_shape_mismatch_rejected(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        with pytest.raises(ValueError):
            drv.process_wave(pages_of_blocks(0), np.array([False, True]))


class TestPrefetcher:
    def test_sequential_pages_trigger_prefetch(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        # Touch first pages of blocks 0..4 of one chunk in sequence.
        for b in range(5):
            drv.process_wave(pages_of_blocks(b), np.array([False]))
        assert drv.stats.totals.prefetched_blocks > 0
        drv.check_consistency()

    def test_disabled_prefetcher_never_prefetches(self):
        drv = make_driver(make_vas(8), capacity_mb=16, prefetcher=False)
        for b in range(32):
            drv.process_wave(pages_of_blocks(b), np.array([False]))
        assert drv.stats.totals.prefetched_blocks == 0
        assert drv.stats.totals.fault_migrations == 32

    def test_prefetched_block_hits_locally(self):
        drv = make_driver(make_vas(8), capacity_mb=16)
        for b in (0, 1, 2):   # prefetches block 3
            drv.process_wave(pages_of_blocks(b), np.array([False]))
        assert drv.residency.resident[3]
        out = drv.process_wave(pages_of_blocks(3), np.array([False]))
        assert out.fault_migrations == 0
        assert out.n_local == 1


class TestEvictionPath:
    def test_oversubscription_evicts_whole_chunks(self):
        # 4MB capacity, 8MB allocation: fills then evicts.
        drv = make_driver(make_vas(8), capacity_mb=4)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        for start in range(0, vas_pages.size, PAGES_PER_CHUNK):
            chunk_pages = vas_pages[start:start + PAGES_PER_CHUNK]
            drv.process_wave(chunk_pages,
                             np.zeros(chunk_pages.shape, dtype=bool))
        assert drv.device.oversubscribed
        assert drv.stats.totals.evicted_chunks >= 2
        assert drv.device.used_blocks <= drv.device.capacity_blocks
        drv.check_consistency()

    def test_dirty_eviction_writes_back(self):
        drv = make_driver(make_vas(8), capacity_mb=4)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        drv.process_wave(vas_pages, np.ones(vas_pages.shape, dtype=bool))
        assert drv.stats.totals.writeback_blocks > 0

    def test_clean_eviction_no_writeback(self):
        drv = make_driver(make_vas(8), capacity_mb=4)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        drv.process_wave(vas_pages, np.zeros(vas_pages.shape, dtype=bool))
        assert drv.stats.totals.writeback_blocks == 0

    def test_roundtrips_recorded_on_eviction(self):
        drv = make_driver(make_vas(8), capacity_mb=4)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        drv.process_wave(vas_pages, np.zeros(vas_pages.shape, dtype=bool))
        assert drv.counters.roundtrips.max() >= 1

    def test_thrash_counted_on_remigration(self):
        drv = make_driver(make_vas(8), capacity_mb=4)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        zeros = np.zeros(vas_pages.shape, dtype=bool)
        drv.process_wave(vas_pages, zeros)
        first_pass = drv.stats.totals.thrash_migrations
        drv.process_wave(vas_pages, zeros)   # second sweep re-migrates
        assert drv.stats.totals.thrash_migrations > first_pass
        assert drv.stats.thrashed.any()


class TestRemotePath:
    def test_always_policy_serves_below_threshold_remotely(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS,
                          capacity_mb=16, ts=8)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]),
                               counts=np.array([3]))
        assert out.n_remote == 3
        assert out.fault_migrations == 0
        assert out.mapping_faults == 1
        assert not drv.residency.resident[0]
        assert drv.host.remote_mapped[0]

    def test_always_policy_migrates_at_threshold(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS,
                          capacity_mb=16, ts=8)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]),
                               counts=np.array([20]))
        # 7 remote accesses, the 8th migrates, the rest are local.
        assert out.n_remote == 7
        assert out.fault_migrations == 1
        assert out.n_local == 12
        assert drv.residency.resident[0]

    def test_volta_counter_accumulates_across_waves(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS,
                          capacity_mb=16, ts=8)
        for _ in range(7):
            drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert not drv.residency.resident[0]
        out = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out.fault_migrations == 1

    def test_mapping_fault_only_once(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS,
                          capacity_mb=16, ts=8)
        out1 = drv.process_wave(pages_of_blocks(0), np.array([False]))
        out2 = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out1.mapping_faults == 1
        assert out2.mapping_faults == 0


class TestOversubPolicy:
    def test_first_touch_before_pressure(self):
        drv = make_driver(make_vas(8), MigrationPolicy.OVERSUB,
                          capacity_mb=16, ts=8)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out.fault_migrations == 1
        assert out.n_remote == 0

    def test_previously_migrated_blocks_keep_device_preference(self):
        drv = make_driver(make_vas(8), MigrationPolicy.OVERSUB,
                          capacity_mb=4, ts=8, prefetcher=False)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        zeros = np.zeros(vas_pages.shape, dtype=bool)
        drv.process_wave(vas_pages, zeros)   # floods memory, evicts
        assert drv.device.oversubscribed
        # An already-migrated-and-evicted block re-migrates at first touch.
        evicted = int(np.flatnonzero(~drv.residency.resident
                                     & drv.ever_migrated)[0])
        out = drv.process_wave(pages_of_blocks(evicted), np.array([False]))
        assert out.fault_migrations == 1
        assert out.n_remote == 0


class TestAdaptivePolicy:
    def test_first_touch_at_low_occupancy(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ADAPTIVE,
                          capacity_mb=64, ts=8, p=8)
        out = drv.process_wave(pages_of_blocks(0), np.array([False]))
        assert out.fault_migrations == 1  # td == 1 below 1/8 occupancy

    def test_oversub_threshold_uses_roundtrips(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ADAPTIVE,
                          capacity_mb=4, ts=8, p=8, prefetcher=False)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        zeros = np.zeros(vas_pages.shape, dtype=bool)
        drv.process_wave(vas_pages, zeros)
        assert drv.device.oversubscribed
        evicted = int(np.flatnonzero(~drv.residency.resident)[0])
        c0 = int(drv.counters.counts[evicted])
        td = 8 * (int(drv.counters.roundtrips[evicted]) + 1) * 8
        need = td - c0
        assert need > 1
        # One access below the threshold: stays remote.
        out = drv.process_wave(pages_of_blocks(evicted), np.array([False]))
        assert out.fault_migrations == 0
        assert out.n_remote == 1

    def test_historic_counters_eventually_migrate(self):
        drv = make_driver(make_vas(8), MigrationPolicy.ADAPTIVE,
                          capacity_mb=4, ts=8, p=2, prefetcher=False)
        vas_pages = np.arange(8 * MB // 4096, dtype=np.int64)
        zeros = np.zeros(vas_pages.shape, dtype=bool)
        drv.process_wave(vas_pages, zeros)
        evicted = int(np.flatnonzero(~drv.residency.resident)[0])
        out = drv.process_wave(pages_of_blocks(evicted), np.array([False]),
                               counts=np.array([10_000]))
        assert out.fault_migrations == 1


class TestConsistency:
    def test_invariants_after_random_traffic(self):
        rng = np.random.default_rng(3)
        drv = make_driver(make_vas(16), MigrationPolicy.ADAPTIVE,
                          capacity_mb=8)
        total_pages = 16 * MB // 4096
        for _ in range(30):
            pages = rng.integers(0, total_pages, size=200, dtype=np.int64)
            writes = rng.random(200) < 0.3
            drv.process_wave(pages, writes)
        drv.check_consistency()
        assert drv.device.used_blocks <= drv.device.capacity_blocks

    @staticmethod
    def _audited_driver():
        """Blocks 0 (chunk 0, written) and 32 (chunk 1) resident, block 5
        remote-mapped, after one wave; the audit passes."""
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS,
                          capacity_mb=16, ts=8)
        drv.process_wave(pages_of_blocks(0, 32, 5),
                         np.array([True, False, False]),
                         counts=np.array([20, 20, 1]))
        assert np.flatnonzero(drv.residency.resident).tolist() == [0, 32]
        assert np.flatnonzero(drv.host.remote_mapped).tolist() == [5]
        drv.check_consistency()
        return drv

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(
            lambda drv: setattr(drv.device, "_used_blocks", 3),
            "residency map holds 2 resident blocks but the device ledger "
            "charges 3", id="ledger"),
        pytest.param(
            lambda drv: setattr(drv.device, "_capacity_blocks", 1),
            "the device ledger charges 2 blocks, over the device capacity "
            "of 1 blocks", id="capacity"),
        pytest.param(
            lambda drv: drv.directory.occupancy.__setitem__(2, 1),
            "chunk occupancy sums to 3 but the device ledger charges 2",
            id="occupancy-total"),
        pytest.param(
            lambda drv: drv.directory.occupancy.__setitem__(
                [0, 1], [2, 0]),
            "occupancy of chunk 0 is 2, it holds 1 resident blocks",
            id="chunk-occupancy"),
        pytest.param(
            lambda drv: drv.host.remote_mapped.__setitem__(32, True),
            "block 32 is both device-resident and remote-mapped",
            id="remote-mapped"),
        pytest.param(
            lambda drv: setattr(drv.trees[0], "mask", 0b1001),
            r"tree of chunk 0 holds leaves \[0, 3\], its resident blocks "
            r"are leaves \[0\]", id="tree-leaves"),
        pytest.param(
            lambda drv: setattr(drv.trees[1], "mask", 1 | 1 << 32),
            "tree of chunk 1: residency mask .* outside a chunk of 32 "
            "leaves", id="tree-range"),
        pytest.param(
            lambda drv: drv.residency.dirty.__setitem__(5, True),
            "block 5 is dirty but not device-resident", id="dirty"),
    ])
    def test_audit_names_each_broken_invariant(self, corrupt, message):
        """One corrupted array fails the audit, which names the
        structure and the wave."""
        drv = self._audited_driver()
        corrupt(drv)
        with pytest.raises(AssertionError, match=f"^wave 1: {message}"):
            drv.check_consistency()

    def test_debug_invariants_audits_every_wave(self):
        drv = self._audited_driver()
        drv.debug_invariants = True
        drv.host.remote_mapped[32] = True
        with pytest.raises(AssertionError,
                           match="^wave 2: block 32 is both"):
            drv.process_wave(pages_of_blocks(0), np.array([False]))


class TestGroupWave:
    """``group_wave`` against an ``np.unique`` + ``bincount`` reference."""

    @staticmethod
    def _reference(blocks, is_write, counts):
        ublocks, inverse = np.unique(blocks, return_inverse=True)
        totals = np.bincount(inverse, weights=counts,
                             minlength=ublocks.size)
        writes = np.bincount(inverse, weights=counts * is_write,
                             minlength=ublocks.size)
        return ublocks, totals.astype(np.int64), writes.astype(np.int64)

    @pytest.mark.parametrize("shape", ["sorted", "unsorted", "empty",
                                       "one", "duplicates"])
    def test_matches_reference(self, shape):
        rng = np.random.default_rng(7)
        size = {"empty": 0, "one": 1}.get(shape, 500)
        high = 4 if shape == "duplicates" else 10_000
        blocks = rng.integers(0, high, size=size, dtype=np.int64)
        if shape == "sorted":
            blocks.sort()
        is_write = rng.random(size) < 0.3
        counts = rng.integers(1, 33, size=size, dtype=np.int64)
        got = group_wave(blocks, is_write, counts)
        for g, want in zip(got, self._reference(blocks, is_write, counts)):
            assert g.dtype == np.int64
            assert np.array_equal(g, want)
        if shape == "duplicates":
            assert got[0].size <= 4

    def test_inputs_untouched(self):
        blocks = np.array([5, 1, 5, 3], dtype=np.int64)
        is_write = np.array([True, False, False, True])
        counts = np.array([2, 1, 4, 1], dtype=np.int64)
        ublocks, totals, writes = group_wave(blocks, is_write, counts)
        assert ublocks.tolist() == [1, 3, 5]
        assert totals.tolist() == [1, 1, 6]
        assert writes.tolist() == [0, 1, 2]
        assert blocks.tolist() == [5, 1, 5, 3]
