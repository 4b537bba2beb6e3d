"""GPU execution engine: drives a workload's kernels through the driver.

The engine is the simulated SM array at wave granularity: it pulls waves
from each kernel launch, hands them to the UVM driver, converts the
resulting event counts to cycles with the timing model, and advances the
global cycle clock.  The run's event totals are the driver's own
(``driver.stats.totals``).  Kernel launches execute back-to-back, as the
benchmarks in the paper do (``cudaDeviceSynchronize`` between launches).
"""

from __future__ import annotations

import dataclasses

from ..gpu.timing import TimingModel, WaveTiming
from ..uvm.driver import UvmDriver
from ..workloads.base import KernelLaunch, Workload

#: Span of wave generation: each step of a workload's ``kernels()`` and
#: of a launch's wave iterator.
GEN_SPAN = "workloads.gen"


class GpuExecutionEngine:
    """Runs a workload to completion and accumulates its cycles."""

    def __init__(self, driver: UvmDriver, timing: TimingModel,
                 obs=None) -> None:
        self.driver = driver
        self.timing = timing
        self.cycle = 0.0
        self.total_timing = WaveTiming()
        #: Optional :class:`repro.obs.Observability` handle.  The engine
        #: contributes the wave-loop rollups: a wave-cycle histogram and
        #: the PCIe-queue-depth / device-occupancy time series; and with
        #: a profiler, its spans (:meth:`_install_spans`).  All of it is
        #: read-only over simulation state.
        self.obs = obs
        self._m_wave_cycles = None
        if obs is not None and obs.metrics is not None:
            m = obs.metrics
            self._m_wave_cycles = m.histogram("engine.wave_cycles")
            self._m_queue = m.series("pcie.queued_blocks")
            self._m_occupancy = m.series("device.occupancy")
        if obs is not None and obs.profiler is not None:
            self._install_spans(obs.profiler)

    def _install_spans(self, prof) -> None:
        """Time this engine on ``prof``: :meth:`run` is the ``run`` root,
        each step of wave generation (:data:`GEN_SPAN`, replayed waves
        included) and each :meth:`TimingModel.wave_cycles` call
        (``gpu.timing``) a span inside it."""
        steps = prof.steps

        def launches(workload):
            for launch in steps(GEN_SPAN, workload.kernels()):
                waves = launch.wave_source
                yield dataclasses.replace(
                    launch,
                    wave_source=lambda waves=waves: steps(GEN_SPAN, waves()))

        self._launches = launches
        prof.install(self.timing, {"wave_cycles": "gpu.timing"})
        prof.install(self, {"run": "run"})

    def run_kernel(self, launch: KernelLaunch) -> float:
        """Execute one kernel launch; returns its cycle cost."""
        kernel_cycles = 0.0
        # The wave loop is the simulator's innermost Python loop; bound
        # methods are resolved once per launch instead of per wave.
        process_wave = self.driver.process_wave
        wave_cycles = self.timing.wave_cycles
        merge_timing = self.total_timing.merge
        # The global clock advances once per wave; accumulate in a local
        # and publish back to the attribute once per launch (every
        # in-loop consumer below reads the local).
        cycle = self.cycle
        for wave in launch.waves():
            outcome = process_wave(wave.pages, wave.is_write, wave.counts,
                                   wave.grouped)
            t = wave_cycles(outcome, wave.compute_cycles)
            merge_timing(t)
            cycle += t.total
            kernel_cycles += t.total
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
        return kernel_cycles

    def run(self, workload: Workload) -> float:
        """Execute every kernel of ``workload``; returns total cycles."""
        for launch in self._launches(workload):
            self.run_kernel(launch)
        return self.cycle

    @staticmethod
    def _launches(workload: Workload):
        """``workload``'s kernel launches in order (a profiled engine
        replaces this on its instance to time wave generation)."""
        return workload.kernels()
