"""Unit tests for the newer configuration helpers and ablation knobs."""

import numpy as np
import pytest

from repro.config import (
    EvictionGranularity,
    MigrationPolicy,
    PolicyConfig,
    PrefetcherKind,
    SimulationConfig,
)
from repro.core.policy import AdaptivePolicy
from repro.uvm.prefetchers import NoPrefetchStrategy

from tests.conftest import make_driver, make_vas


class TestConfigHelpers:
    def test_with_eviction_granularity(self):
        cfg = SimulationConfig().with_eviction_granularity(
            EvictionGranularity.BLOCK_64KB)
        assert cfg.memory.eviction_granularity is \
            EvictionGranularity.BLOCK_64KB

    def test_with_prefetcher_kind(self):
        cfg = SimulationConfig().with_prefetcher(PrefetcherKind.SEQUENTIAL)
        assert cfg.memory.prefetcher is PrefetcherKind.SEQUENTIAL

    def test_with_prefetcher_none_disables(self):
        cfg = SimulationConfig().with_prefetcher(PrefetcherKind.NONE)
        assert cfg.memory.prefetcher is PrefetcherKind.NONE
        drv = make_driver(make_vas(8), capacity_mb=16, prefetcher=False)
        assert isinstance(drv.prefetcher, NoPrefetchStrategy)

    def test_defaults_preserved(self):
        cfg = SimulationConfig().with_prefetcher(PrefetcherKind.RANDOM)
        assert cfg.policy == SimulationConfig().policy


class TestHistoricCountersKnob:
    def test_default_historic(self):
        assert PolicyConfig().historic_counters

    def test_volta_ablation_changes_baseline_counter(self):
        vas = make_vas(8)
        drv = make_driver(vas, MigrationPolicy.ADAPTIVE, capacity_mb=16)
        blocks = np.array([0])
        drv.counters.add_accesses(blocks, np.array([50]))
        drv.counters.add_remote_accesses_unique(blocks, np.array([3]))

        historic = AdaptivePolicy(PolicyConfig(historic_counters=True))
        volta = AdaptivePolicy(PolicyConfig(historic_counters=False))
        _, c_hist = historic.decision_state(blocks, drv)
        _, c_volta = volta.decision_state(blocks, drv)
        assert c_hist[0] == 50
        assert c_volta[0] == 3

    def test_volta_ablation_runs_end_to_end(self):
        import dataclasses
        from repro import Simulator
        from repro.workloads import make_workload
        cfg = SimulationConfig(seed=1).with_policy(MigrationPolicy.ADAPTIVE)
        cfg = dataclasses.replace(cfg, policy=dataclasses.replace(
            cfg.policy, historic_counters=False))
        r = Simulator(cfg).run(make_workload("ra", "tiny"),
                               oversubscription=1.25)
        assert r.total_cycles > 0


class TestThresholdVariantValidation:
    def test_known_variants_accepted(self):
        for v in ("multiplicative", "linear", "exponential",
                  "occupancy-only"):
            PolicyConfig(threshold_variant=v)

    def test_unknown_variant_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PolicyConfig(threshold_variant="quantum")
