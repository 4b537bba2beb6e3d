"""Top-level simulation facade.

``Simulator`` wires together the VA space, the UVM driver, the PCIe and
timing models, and the execution engine, then runs a workload end to end:

>>> from repro import Simulator, SimulationConfig, MigrationPolicy
>>> from repro.workloads import make_workload
>>> cfg = SimulationConfig().with_policy(MigrationPolicy.ADAPTIVE)
>>> result = Simulator(cfg).run(make_workload("sssp", scale="tiny"))
>>> result.total_cycles > 0
True
"""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig, capacity_for_oversubscription
from ..gpu.engine import GpuExecutionEngine
from ..gpu.timing import TimingModel
from ..interconnect.pcie import PcieModel
from ..memory.allocator import VirtualAddressSpace
from ..obs.events import RunMeta
from ..uvm.driver import UvmDriver
from ..workloads.base import Workload
from .results import RunResult


class Simulator:
    """Runs one workload under one configuration."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self.config = (config or SimulationConfig()).validate()

    def run(self, workload: Workload,
            oversubscription: float | None = None,
            obs=None) -> RunResult:
        """Simulate ``workload`` to completion.

        When ``oversubscription`` is given, the device capacity is derived
        from the workload footprint (the paper's methodology: free space is
        throttled, working sets are not scaled).  Otherwise the configured
        ``memory.device_capacity`` is used as-is.

        ``obs`` optionally wires a :class:`repro.obs.Observability`
        handle through the driver and engine: structured events flow to
        its sinks, rollups to its metrics registry, and the engine's
        ``run`` root span and the driver's spans to its profiler.
        ``None`` (the default) is the zero-overhead path and produces
        bit-identical results to any instrumented run.
        """
        rng = np.random.default_rng(self.config.seed)
        vas = VirtualAddressSpace()
        workload.build(vas, rng)
        if not vas.allocations:
            raise ValueError(f"workload {workload.name!r} allocated nothing")

        config = self.config
        if oversubscription is not None:
            cap = capacity_for_oversubscription(vas.footprint_bytes,
                                                oversubscription)
            config = config.with_device_capacity(cap)

        driver = UvmDriver(vas, config, obs=obs)
        if obs is not None and obs.bus.enabled:
            # Self-describing log header: lets `repro inspect` map
            # per-block events back to managed allocations.
            obs.bus.emit(RunMeta(
                workload=workload.name,
                policy=config.policy.policy.value,
                seed=config.seed,
                total_blocks=vas.total_blocks,
                capacity_blocks=driver.device.capacity_blocks,
                allocations=tuple(
                    (a.name, a.first_block, a.first_block + a.num_blocks)
                    for a in vas.allocations)))
        pcie = PcieModel(config.interconnect, config.gpu)
        timing = TimingModel(config, pcie)
        engine = GpuExecutionEngine(driver, timing, obs=obs)
        total = engine.run(workload)

        if obs is not None and obs.metrics is not None:
            # End-of-run rollup: how much of the wave stream the resident
            # fast path absorbed (see docs/observability.md).
            obs.metrics.gauge("driver.fast_path_hit_rate").set(
                driver.fast_path_hit_rate)
            obs.metrics.counter("driver.fast_path_waves").inc(
                driver.stats.fast_path_waves)
            obs.metrics.counter("driver.waves").inc(driver.stats.waves)

        return RunResult(
            workload=workload.name,
            config=config,
            total_cycles=total,
            timing=engine.total_timing,
            events=driver.stats.totals,
            footprint_bytes=vas.footprint_bytes,
            device_capacity_bytes=driver.device.capacity_bytes,
            unique_thrashed_blocks=int(np.count_nonzero(
                driver.stats.thrashed)),
        )
