"""Unit tests for traffic and bandwidth reporting on RunResult."""

import pytest

from repro import MigrationPolicy, SimulationConfig, Simulator
from repro.config import SimulationConfig as SC
from repro.gpu.timing import WaveTiming
from repro.memory.layout import BASIC_BLOCK_SIZE, CHUNK_SIZE
from repro.sim.results import RunResult
from repro.uvm.driver import WaveOutcome
from repro.workloads import make_workload


def result(cycles=1481e6, **events):
    return RunResult(
        workload="w", config=SC(), total_cycles=cycles,
        timing=WaveTiming(total=cycles), events=WaveOutcome(**events),
        footprint_bytes=CHUNK_SIZE, device_capacity_bytes=CHUNK_SIZE)


class TestTrafficProperties:
    def test_h2d_bytes(self):
        r = result(migrated_blocks=3, prefetched_blocks=2)
        assert r.h2d_bytes == 5 * BASIC_BLOCK_SIZE

    def test_d2h_bytes(self):
        r = result(writeback_blocks=4)
        assert r.d2h_bytes == 4 * BASIC_BLOCK_SIZE

    def test_remote_bytes(self):
        r = result(n_remote=10)
        assert r.remote_bytes == 10 * 128

    def test_utilization_bounds(self):
        # One second of runtime; 1.6 GB moved over a 16 GB/s link = 10%.
        blocks = int(1.6e9 // BASIC_BLOCK_SIZE)
        r = result(migrated_blocks=blocks)
        assert r.pcie_utilization == pytest.approx(0.1, rel=0.01)

    def test_utilization_zero_cycles(self):
        r = result(cycles=0)
        assert r.pcie_utilization == 0.0


class TestEndToEndUtilization:
    def test_thrashing_run_saturates_link(self):
        cfg = SimulationConfig(seed=1).with_policy(MigrationPolicy.DISABLED)
        r = Simulator(cfg).run(make_workload("ra", "tiny"),
                               oversubscription=1.25)
        # Thrash-bound run: the PCIe link is the bottleneck resource,
        # and migrations in outweigh write-backs out.
        assert r.pcie_utilization > 0.3
        assert r.h2d_bytes > r.d2h_bytes > 0

    def test_adaptive_cuts_link_pressure(self):
        def run(policy):
            cfg = SimulationConfig(seed=1).with_policy(policy)
            return Simulator(cfg).run(make_workload("ra", "tiny"),
                                      oversubscription=1.25)
        base = run(MigrationPolicy.DISABLED)
        adap = run(MigrationPolicy.ADAPTIVE)
        assert adap.h2d_bytes < 0.3 * base.h2d_bytes
