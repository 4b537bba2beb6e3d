"""Unit tests for configuration dataclasses and Table I defaults."""

import dataclasses

import pytest

from repro.config import (
    EvictionGranularity,
    GpuConfig,
    InterconnectConfig,
    MemoryConfig,
    MigrationPolicy,
    PolicyConfig,
    ReplacementPolicy,
    SimulationConfig,
    capacity_for_oversubscription,
)
from repro.memory.layout import CHUNK_SIZE, MB


class TestTable1Defaults:
    """The Table I values of the paper must be the defaults."""

    def test_gpu(self):
        g = GpuConfig()
        assert g.num_sms == 28
        assert g.cores_per_sm == 128
        assert g.clock_mhz == pytest.approx(1481.0)
        assert g.dram_latency_cycles == 100
        assert g.page_walk_latency_cycles == 100

    def test_interconnect(self):
        i = InterconnectConfig()
        assert i.bandwidth == pytest.approx(16e9)
        assert i.latency_cycles == 100
        assert i.remote_access_latency_cycles == 200
        assert i.fault_handling_us == pytest.approx(45.0)

    def test_policy(self):
        p = PolicyConfig()
        assert p.static_threshold == 8
        assert p.migration_penalty == 8
        assert p.counter_bits == 27
        assert p.roundtrip_bits == 5
        assert p.counter_max == (1 << 27) - 1
        assert p.roundtrip_max == 31

    def test_memory(self):
        m = MemoryConfig()
        assert m.eviction_granularity is EvictionGranularity.CHUNK_2MB
        assert m.replacement is ReplacementPolicy.LRU


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            PolicyConfig(static_threshold=0)

    def test_bad_penalty(self):
        with pytest.raises(ValueError):
            PolicyConfig(migration_penalty=0)

    def test_counter_bits_must_total_32(self):
        with pytest.raises(ValueError):
            PolicyConfig(counter_bits=20, roundtrip_bits=5)

    def test_capacity_below_chunk(self):
        with pytest.raises(ValueError):
            MemoryConfig(device_capacity=CHUNK_SIZE - 1)

    def test_bad_gpu(self):
        with pytest.raises(ValueError):
            GpuConfig(num_sms=0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            InterconnectConfig(bandwidth=0)


class TestHelpers:
    def test_us_to_cycles(self):
        g = GpuConfig()
        assert g.us_to_cycles(45.0) == round(45.0 * 1481.0)

    def test_with_policy_switches_replacement(self):
        cfg = SimulationConfig()
        assert cfg.with_policy(MigrationPolicy.DISABLED).memory.replacement \
            is ReplacementPolicy.LRU
        for pol in (MigrationPolicy.ALWAYS, MigrationPolicy.OVERSUB,
                    MigrationPolicy.ADAPTIVE):
            assert cfg.with_policy(pol).memory.replacement \
                is ReplacementPolicy.LFU

    def test_with_policy_sets_knobs(self):
        cfg = SimulationConfig().with_policy(
            MigrationPolicy.ADAPTIVE, static_threshold=16,
            migration_penalty=4)
        assert cfg.policy.static_threshold == 16
        assert cfg.policy.migration_penalty == 4

    def test_with_device_capacity(self):
        cfg = SimulationConfig().with_device_capacity(64 * MB)
        assert cfg.memory.device_capacity == 64 * MB

    def test_replace_preserves_others(self):
        cfg = SimulationConfig().replace(seed=42)
        assert cfg.seed == 42
        assert cfg.gpu == SimulationConfig().gpu


class TestCapacityForOversubscription:
    def test_at_125_percent(self):
        cap = capacity_for_oversubscription(100 * MB, 1.25)
        assert cap % CHUNK_SIZE == 0
        assert cap >= int(100 * MB / 1.25)
        assert cap < int(100 * MB / 1.25) + CHUNK_SIZE

    def test_exactly_fitting_never_evicts(self):
        cap = capacity_for_oversubscription(100 * MB, 1.0)
        assert cap >= 100 * MB

    def test_headroom_factor(self):
        assert capacity_for_oversubscription(80 * MB, 0.8) >= 100 * MB

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            capacity_for_oversubscription(100 * MB, 0.0)

    def test_clamps_to_one_chunk(self):
        assert capacity_for_oversubscription(1, 1.0) == CHUNK_SIZE
