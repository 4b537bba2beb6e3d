"""Unit tests for the GPU execution engine."""

import numpy as np

from repro.config import SimulationConfig
from repro.gpu.engine import GpuExecutionEngine
from repro.gpu.timing import TimingModel
from repro.interconnect.pcie import PcieModel
from repro.memory.allocator import VirtualAddressSpace
from repro.obs import Observability, SpanRecorder
from repro.trace import TraceWorkload, record_trace
from repro.uvm.driver import UvmDriver

from tests.conftest import StreamWorkload


def make_engine(workload, obs=None):
    cfg = SimulationConfig().with_device_capacity(64 * 2**20)
    vas = VirtualAddressSpace()
    workload.build(vas, np.random.default_rng(0))
    driver = UvmDriver(vas, cfg, obs=obs)
    pcie = PcieModel(cfg.interconnect, cfg.gpu)
    timing = TimingModel(cfg, pcie)
    return GpuExecutionEngine(driver, timing, obs=obs)


class TestEngine:
    def test_run_advances_clock(self):
        wl = StreamWorkload(size_mb=2, iterations=1)
        engine = make_engine(wl)
        total = engine.run(wl)
        assert total > 0
        assert engine.cycle == total

    def test_totals_accumulate(self):
        wl = StreamWorkload(size_mb=2, iterations=2)
        engine = make_engine(wl)
        engine.run(wl)
        assert engine.driver.stats.totals.n_accesses > 0
        assert engine.total_timing.total == engine.cycle

    def test_kernel_cycles_sum_to_total(self):
        wl = StreamWorkload(size_mb=2, iterations=3)
        engine = make_engine(wl)
        per_kernel = [engine.run_kernel(k) for k in wl.kernels()]
        assert sum(per_kernel) == engine.cycle

    def test_profiled_engine_times_generation_and_timing(self):
        """Every step of ``kernels()`` and of each launch's wave
        iterator is a ``workloads.gen`` span, and every wave's timing a
        ``gpu.timing`` span, inside the ``run`` root; a bare engine and
        its timing model keep their class methods."""
        launches = 3
        wl = StreamWorkload(size_mb=2, iterations=launches)
        bare = make_engine(wl)
        bare.run(wl)
        obs = Observability(profiler=SpanRecorder())
        engine = make_engine(wl, obs=obs)
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

    def test_replay_consumes_every_recorded_access(self):
        """Run on the replay of a recording, the engine hands the driver
        every recorded wave and access."""
        trace = record_trace(StreamWorkload(size_mb=2, iterations=2))
        wl = TraceWorkload(trace)
        engine = make_engine(wl)
        engine.run(wl)
        assert engine.driver.stats.waves == trace.num_waves
        assert engine.driver.stats.totals.n_accesses == trace.num_accesses
