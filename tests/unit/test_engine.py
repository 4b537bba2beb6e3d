"""Unit tests for the GPU execution engine."""

import numpy as np

from repro.config import SimulationConfig
from repro.gpu.engine import GpuExecutionEngine
from repro.gpu.timing import TimingModel
from repro.interconnect.pcie import PcieModel
from repro.memory.allocator import VirtualAddressSpace
from repro.obs import Observability, SpanRecorder
from repro.stats.collector import StatsCollector
from repro.uvm.driver import UvmDriver

from tests.conftest import StreamWorkload


def make_engine(workload, collector=False, obs=None):
    cfg = SimulationConfig().with_device_capacity(64 * 2**20)
    vas = VirtualAddressSpace()
    workload.build(vas, np.random.default_rng(0))
    driver = UvmDriver(vas, cfg, obs=obs)
    pcie = PcieModel(cfg.interconnect, cfg.gpu)
    timing = TimingModel(cfg, pcie)
    coll = StatsCollector(vas, histogram=True) if collector else None
    return GpuExecutionEngine(driver, timing, coll, obs=obs), coll


class TestEngine:
    def test_run_advances_clock(self):
        wl = StreamWorkload(size_mb=2, iterations=1)
        engine, _ = make_engine(wl)
        total = engine.run(wl)
        assert total > 0
        assert engine.cycle == total

    def test_totals_accumulate(self):
        wl = StreamWorkload(size_mb=2, iterations=2)
        engine, _ = make_engine(wl)
        engine.run(wl)
        assert engine.driver.stats.totals.n_accesses > 0
        assert engine.total_timing.total == engine.cycle

    def test_kernel_cycles_sum_to_total(self):
        wl = StreamWorkload(size_mb=2, iterations=3)
        engine, _ = make_engine(wl)
        per_kernel = [engine.run_kernel(k) for k in wl.kernels()]
        assert sum(per_kernel) == engine.cycle

    def test_profiled_engine_times_generation_and_timing(self):
        """Every step of ``kernels()`` and of each launch's wave
        iterator is a ``workloads.gen`` span, and every wave's timing a
        ``gpu.timing`` span, inside the ``run`` root; a bare engine and
        its timing model keep their class methods."""
        launches = 3
        wl = StreamWorkload(size_mb=2, iterations=launches)
        bare, _ = make_engine(wl)
        bare.run(wl)
        obs = Observability(profiler=SpanRecorder())
        engine, _ = make_engine(wl, obs=obs)
        assert engine.run(wl) == bare.cycle
        waves = engine.driver.stats.waves
        calls = {name: n for name, (_, n) in obs.profiler.spans.items()}
        assert calls["run"] == 1
        assert calls["gpu.timing"] == waves > 0
        # One step per launch and per wave, plus the step that ends
        # kernels() and each launch's wave iterator.
        assert calls["workloads.gen"] == waves + 2 * launches + 1
        assert "_launches" not in vars(bare)
        assert "wave_cycles" not in vars(bare.timing)

    def test_collector_sees_every_wave(self):
        wl = StreamWorkload(size_mb=2, iterations=1)
        engine, coll = make_engine(wl, collector=True)
        engine.run(wl)
        assert coll.kernels["stream.sweep"].launches == 1
        assert coll.page_reads.sum() + coll.page_writes.sum() == \
            engine.driver.stats.totals.n_accesses
