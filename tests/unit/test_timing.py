"""Unit tests for the PCIe and wave timing models."""

import dataclasses

import pytest

from repro.config import GpuConfig, InterconnectConfig, SimulationConfig
from repro.gpu.timing import TimingModel, WaveTiming
from repro.interconnect.pcie import PcieModel
from repro.memory.layout import BASIC_BLOCK_SIZE
from repro.uvm.driver import WaveOutcome


@pytest.fixture
def pcie():
    return PcieModel(InterconnectConfig(), GpuConfig())


@pytest.fixture
def timing(pcie):
    return TimingModel(SimulationConfig(), pcie)


class TestPcieModel:
    def test_bytes_per_cycle(self, pcie):
        assert pcie.bytes_per_cycle == pytest.approx(16e9 / 1481e6)

    def test_fault_batch_cycles_is_45us(self, pcie):
        assert pcie.fault_batch_cycles == round(45 * 1481)

    def test_migration_cost_scales_with_blocks(self, pcie):
        one = pcie.migration_cycles(1)
        ten = pcie.migration_cycles(10)
        assert ten == pytest.approx(10 * one)
        assert one > BASIC_BLOCK_SIZE / pcie.bytes_per_cycle

    def test_zero_transfers_free(self, pcie):
        assert pcie.migration_cycles(0) == 0.0
        assert pcie.writeback_cycles(0) == 0.0
        assert pcie.remote_cycles(0) == 0.0
        assert pcie.fault_handling_cycles(0) == 0.0

    def test_fault_batching(self, pcie):
        batch = pcie.config.fault_batch_size
        assert pcie.fault_handling_cycles(1) == pcie.fault_batch_cycles
        assert pcie.fault_handling_cycles(batch) == pcie.fault_batch_cycles
        assert pcie.fault_handling_cycles(batch + 1) == \
            2 * pcie.fault_batch_cycles

    def test_remote_access_slower_than_local_but_much_cheaper_than_block(
            self, pcie):
        assert pcie.remote_access_cycles > 1
        assert pcie.remote_access_cycles < pcie.block_transfer_cycles


class TestTimingModel:
    def test_pure_compute_wave(self, timing):
        out = WaveOutcome(n_accesses=100, n_local=100)
        t = timing.wave_cycles(out, compute_cycles=5000)
        assert t.compute == 5000
        assert t.total == pytest.approx(max(5000, t.local))

    def test_compute_overlaps_local_traffic(self, timing):
        out = WaveOutcome(n_accesses=100, n_local=100)
        t = timing.wave_cycles(out, compute_cycles=1.0)
        assert t.total == pytest.approx(t.local)

    def test_fault_serializes(self, timing):
        quiet = timing.wave_cycles(WaveOutcome(n_accesses=10, n_local=10),
                                   compute_cycles=100)
        faulty = timing.wave_cycles(
            WaveOutcome(n_accesses=10, n_local=9, fault_migrations=1,
                        migrated_blocks=1), compute_cycles=100)
        assert faulty.total > quiet.total + timing.pcie.fault_batch_cycles

    def test_writeback_adds_cost(self, timing):
        base = WaveOutcome(n_accesses=1, n_local=0, fault_migrations=1,
                           migrated_blocks=1)
        dirty = WaveOutcome(n_accesses=1, n_local=0, fault_migrations=1,
                            migrated_blocks=1, writeback_blocks=2)
        assert timing.wave_cycles(dirty).total > timing.wave_cycles(base).total

    def test_default_compute_estimate(self, timing):
        out = WaveOutcome(n_accesses=1000, n_local=1000)
        t = timing.wave_cycles(out)
        tc = timing.config.timing
        assert t.compute == pytest.approx(
            1000 * tc.compute_cycles_per_access + tc.wave_overhead_cycles)

    def test_wave_total_cycles_matches_breakdown(self, timing):
        # The scalar serve charge is wave_cycles' total.
        outcomes = [
            WaveOutcome(n_accesses=100, n_local=100),
            WaveOutcome(n_accesses=50, n_local=20, n_remote=30,
                        mapping_faults=4),
            WaveOutcome(n_accesses=10, n_local=9, fault_migrations=1,
                        migrated_blocks=1, writeback_blocks=2),
            WaveOutcome(n_accesses=8, n_local=0, n_remote=8,
                        retried_transfers=2, retry_backoff_us=3.5),
        ]
        for out in outcomes:
            for cc in (None, 123.0):
                assert (timing.wave_total_cycles(out, cc)
                        == timing.wave_cycles(out, cc).total)

    def test_merge_accumulates(self):
        a = WaveTiming(compute=1, local=2, total=3)
        b = WaveTiming(compute=10, local=20, total=30)
        a.merge(b)
        assert a.compute == 11 and a.local == 22 and a.total == 33

    def test_merge_adds_every_field(self):
        fields = [f.name for f in dataclasses.fields(WaveTiming)]
        a = WaveTiming(**{name: 1.0 for name in fields})
        a.merge(WaveTiming(**{name: 2.0 ** i
                              for i, name in enumerate(fields, 1)}))
        assert [getattr(a, name) for name in fields] == [
            1.0 + 2.0 ** i for i in range(1, len(fields) + 1)]


class TestOutcomeMerge:
    def test_merge(self):
        a = WaveOutcome(n_accesses=1, n_local=1)
        b = WaveOutcome(n_accesses=2, fault_migrations=3)
        a.merge(b)
        assert a.n_accesses == 3
        assert a.fault_migrations == 3

    def test_derived_properties(self):
        o = WaveOutcome(fault_migrations=2, mapping_faults=3,
                        migrated_blocks=2, prefetched_blocks=5)
        assert o.fault_events == 5
        assert o.h2d_blocks == 7
