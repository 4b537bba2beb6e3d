"""Integration tests: full simulations through the public facade."""

import numpy as np
import pytest

from repro import MigrationPolicy, SimulationConfig, Simulator
from repro.analysis import allocation_totals, sample_waves
from repro.memory.layout import MB
from repro.trace import TraceWorkload, record_trace
from repro.workloads import make_workload

from tests.conftest import RandomWorkload, StreamWorkload


class TestFacade:
    def test_run_returns_result(self):
        cfg = SimulationConfig().with_device_capacity(64 * MB)
        r = Simulator(cfg).run(StreamWorkload(size_mb=4))
        assert r.total_cycles > 0
        assert r.workload == "stream"
        assert r.events.n_accesses > 0
        assert r.footprint_bytes >= 4 * MB

    def test_oversubscription_derives_capacity(self):
        r = Simulator(SimulationConfig()).run(StreamWorkload(size_mb=16),
                                              oversubscription=1.25)
        assert r.oversubscription > 1.1
        assert r.device_capacity_bytes < 16 * MB

    def test_fitting_workload_never_evicts(self):
        r = Simulator(SimulationConfig()).run(StreamWorkload(size_mb=8),
                                              oversubscription=1.0)
        assert r.events.evicted_blocks == 0
        assert r.pages_thrashed == 0

    def test_deterministic_across_runs(self):
        def run():
            cfg = SimulationConfig(seed=11).with_policy(
                MigrationPolicy.ADAPTIVE)
            return Simulator(cfg).run(make_workload("ra", "tiny"),
                                      oversubscription=1.25)
        a, b = run(), run()
        assert a.total_cycles == b.total_cycles
        assert a.events == b.events

    def test_seed_changes_input_dependent_workloads(self):
        def run(seed):
            cfg = SimulationConfig(seed=seed)
            return Simulator(cfg).run(make_workload("bfs", "tiny"),
                                      oversubscription=1.0)
        assert run(1).total_cycles != run(2).total_cycles

    def test_histogram_collection(self):
        """A recording's allocation totals count every access the
        simulation of its replay consumed."""
        trace = record_trace(StreamWorkload(size_mb=4))
        r = Simulator(SimulationConfig()).run(TraceWorkload(trace),
                                              oversubscription=1.0)
        rows = allocation_totals(trace)
        assert rows and rows[0]["reads"] > 0
        assert sum(row["reads"] + row["writes"] for row in rows) \
            == r.events.n_accesses

    def test_trace_collection(self):
        trace = record_trace(StreamWorkload(size_mb=4, iterations=2))
        iters = {sample.iteration
                 for sample in sample_waves(trace, range(3))}
        assert iters == {0, 1}

    def test_empty_workload_rejected(self):
        class Empty(StreamWorkload):
            def _allocate(self, vas, rng):
                pass
        with pytest.raises(ValueError):
            Simulator(SimulationConfig()).run(Empty())


class TestPolicyMatrix:
    @pytest.mark.parametrize("policy", list(MigrationPolicy))
    @pytest.mark.parametrize("oversub", [0.8, 1.25])
    def test_all_policies_complete(self, policy, oversub):
        cfg = SimulationConfig().with_policy(policy)
        r = Simulator(cfg).run(RandomWorkload(size_mb=8), oversub)
        assert r.total_cycles > 0
        served = (r.events.n_local + r.events.n_remote
                  + r.events.fault_migrations)
        assert served == r.events.n_accesses
