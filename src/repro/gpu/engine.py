"""GPU execution engine: drives a workload's kernels through the driver.

The engine is the simulated SM array at wave granularity: it pulls waves
from each kernel launch, hands them to the UVM driver, converts the
resulting event counts to cycles with the timing model, and advances the
global cycle clock.  The run's event totals are the driver's own
(``driver.stats.totals``).  Kernel launches execute back-to-back, as the
benchmarks in the paper do (``cudaDeviceSynchronize`` between launches).
"""

from __future__ import annotations

from ..gpu.timing import TimingModel, WaveTiming
from ..stats.collector import StatsCollector
from ..uvm.driver import UvmDriver
from ..workloads.base import KernelLaunch, Workload


class GpuExecutionEngine:
    """Runs a workload to completion and accumulates its cycles."""

    def __init__(self, driver: UvmDriver, timing: TimingModel,
                 collector: StatsCollector | None = None,
                 obs=None) -> None:
        self.driver = driver
        self.timing = timing
        self.collector = collector
        self.cycle = 0.0
        self.total_timing = WaveTiming()
        #: Optional :class:`repro.obs.Observability` handle.  The engine
        #: contributes the wave-loop rollups: a wave-cycle histogram and
        #: the PCIe-queue-depth / device-occupancy time series; and with
        #: a profiler, :meth:`run` is the ``run`` root span.  All of it
        #: is read-only over simulation state.
        self.obs = obs
        self._m_wave_cycles = None
        if obs is not None and obs.metrics is not None:
            m = obs.metrics
            self._m_wave_cycles = m.histogram("engine.wave_cycles")
            self._m_queue = m.series("pcie.queued_blocks")
            self._m_occupancy = m.series("device.occupancy")
        if obs is not None and obs.profiler is not None:
            obs.profiler.install(self, {"run": "run"})

    def run_kernel(self, launch: KernelLaunch) -> float:
        """Execute one kernel launch; returns its cycle cost."""
        kernel_cycles = 0.0
        kernel_accesses = 0
        # The wave loop is the simulator's innermost Python loop; bound
        # methods are resolved once per launch instead of per wave.
        collector = self.collector
        process_wave = self.driver.process_wave
        wave_cycles = self.timing.wave_cycles
        merge_timing = self.total_timing.merge
        # The global clock advances once per wave; accumulate in a local
        # and publish back to the attribute once per launch (every
        # in-loop consumer below reads the local).
        cycle = self.cycle
        for wave in launch.waves():
            if collector is not None:
                collector.on_wave(launch.name, launch.iteration,
                                  cycle, wave.pages, wave.is_write,
                                  wave.counts)
            outcome = process_wave(wave.pages, wave.is_write, wave.counts,
                                   wave.grouped)
            t = wave_cycles(outcome, wave.compute_cycles)
            merge_timing(t)
            cycle += t.total
            kernel_cycles += t.total
            kernel_accesses += outcome.n_accesses
            if self._m_wave_cycles is not None:
                self._m_wave_cycles.observe(t.total)
                # Link pressure proxy: blocks queued on PCIe this wave
                # (h2d migrations + prefetches + d2h write-backs).
                self._m_queue.append(
                    cycle,
                    outcome.h2d_blocks + outcome.writeback_blocks)
                self._m_occupancy.append(
                    cycle,
                    self.driver.device.used_blocks
                    / self.driver.device.capacity_blocks)
        self.cycle = cycle
        if collector is not None:
            collector.on_kernel_end(launch.name, kernel_cycles,
                                    kernel_accesses)
        return kernel_cycles

    def run(self, workload: Workload) -> float:
        """Execute every kernel of ``workload``; returns total cycles."""
        for launch in workload.kernels():
            self.run_kernel(launch)
        return self.cycle
