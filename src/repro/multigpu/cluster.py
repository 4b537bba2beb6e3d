"""Multi-GPU collaborative execution (the paper's future work).

Section VIII proposes studying the dynamic-threshold heuristic "in
multi-GPU clusters for collaborative applications as a mechanism to
enforce memory throttling and reduce thrashing"; Section VI notes
NVIDIA's guidance to spread working sets across GPUs beyond 125%
oversubscription.  This module implements that system:

* the workload's wave stream is partitioned across ``num_gpus`` devices
  at 2MB-chunk granularity (chunk ``c`` belongs to GPU ``c % N``), the
  data-parallel decomposition a collaborative UVM application uses;
* each GPU runs its own UVM driver (residency, counters, prefetch
  trees, replacement) over its partition, backed by the shared host
  memory;
* kernels are bulk-synchronous: a launch completes when the slowest
  GPU finishes its partition, so the reported makespan is the max over
  devices per kernel, summed over launches;
* an optional **throttle** caps the fraction of each device's memory
  the driver may use -- the knob the paper proposes driving with the
  adaptive threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SimulationConfig, capacity_for_oversubscription
from ..gpu.timing import TimingModel, WaveTiming
from ..interconnect.pcie import PcieModel
from ..memory import layout
from ..memory.allocator import VirtualAddressSpace
from ..sim.results import RunResult
from ..uvm.driver import UvmDriver, WaveOutcome
from ..workloads.base import Workload

#: Wave-stream partition strategies: how virtual pages map to devices.
#:
#: * ``chunk`` -- 2MB chunks round-robin across GPUs (the default; the
#:   data-parallel decomposition a collaborative UVM application uses);
#: * ``block`` -- 64KB basic blocks round-robin, a finer interleave that
#:   spreads hot chunks across devices at the cost of more cross-device
#:   wave splitting;
#: * ``span`` -- contiguous spans: the address space is cut into N
#:   equal chunk ranges, GPU ``g`` owning the ``g``-th range (the
#:   static partitioning of an explicitly-decomposed application).
KNOWN_PARTITIONS: tuple[str, ...] = ("chunk", "block", "span")


@dataclass
class MultiGpuResult:
    """Outcome of a collaborative multi-GPU simulation."""

    workload: str
    num_gpus: int
    #: Bulk-synchronous makespan in GPU core cycles.
    makespan_cycles: float
    #: Per-device busy cycles (sum of that device's kernel times).
    per_gpu_cycles: list[float]
    #: Per-device event totals (each driver's ``stats.totals``).
    per_gpu_events: list[WaveOutcome]
    #: Per-device timing breakdowns.
    per_gpu_timing: list[WaveTiming] = field(repr=False, default=None)
    footprint_bytes: int = 0
    capacity_per_gpu_bytes: int = 0
    #: Partition strategy the wave stream was split with.
    partition: str = "chunk"

    @property
    def total_thrash(self) -> int:
        """Thrash migrations summed over devices."""
        return sum(ev.thrash_migrations for ev in self.per_gpu_events)

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean per-device busy cycles (1.0 = perfectly even)."""
        mean = sum(self.per_gpu_cycles) / self.num_gpus
        return max(self.per_gpu_cycles) / mean if mean else 1.0

    def speedup_over(self, other: "MultiGpuResult | RunResult") -> float:
        """Makespan ratio versus another run."""
        theirs = getattr(other, "makespan_cycles", None)
        if theirs is None:
            theirs = other.total_cycles
        return theirs / self.makespan_cycles


class MultiGpuSimulator:
    """Bulk-synchronous collaborative execution across N devices."""

    def __init__(self, config: SimulationConfig | None = None,
                 num_gpus: int = 2, throttle: float = 1.0,
                 partition: str = "chunk") -> None:
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        if not 0.0 < throttle <= 1.0:
            raise ValueError("throttle must be in (0, 1]")
        if partition not in KNOWN_PARTITIONS:
            raise ValueError(f"unknown partition strategy {partition!r}; "
                             f"choose from {KNOWN_PARTITIONS}")
        self.config = config or SimulationConfig()
        self.num_gpus = num_gpus
        self.throttle = throttle
        self.partition = partition
        #: Chunks in the running workload's address space (set per run;
        #: the ``span`` strategy needs the total to cut equal ranges).
        self._num_chunks = 1

    def run(self, workload: Workload,
            oversubscription: float | None = None) -> MultiGpuResult:
        """Simulate ``workload`` split across the cluster.

        ``oversubscription`` is interpreted per the paper's single-GPU
        methodology: it sets the capacity one device would have.  Adding
        devices adds capacity, so the per-partition pressure drops with
        the cluster size.
        """
        rng = np.random.default_rng(self.config.seed)
        vas = VirtualAddressSpace()
        workload.build(vas, rng)
        if not vas.allocations:
            raise ValueError(f"workload {workload.name!r} allocated nothing")
        self._num_chunks = max(len(vas.chunks), 1)

        config = self.config
        if oversubscription is not None:
            cap = capacity_for_oversubscription(vas.footprint_bytes,
                                                oversubscription)
            config = config.with_device_capacity(cap)
        usable = int(config.memory.device_capacity * self.throttle)
        usable -= usable % layout.CHUNK_SIZE
        usable = max(usable, layout.CHUNK_SIZE)
        config = config.with_device_capacity(usable)

        drivers = [UvmDriver(vas, config) for _ in range(self.num_gpus)]
        timings = [TimingModel(config, PcieModel(config.interconnect,
                                                 config.gpu))
                   for _ in range(self.num_gpus)]
        busy = [0.0] * self.num_gpus
        breakdowns = [WaveTiming() for _ in range(self.num_gpus)]
        makespan = 0.0

        for launch in workload.kernels():
            kernel_busy = [0.0] * self.num_gpus
            for wave in launch.waves():
                owner = self._owners(wave.pages)
                for g in range(self.num_gpus):
                    mask = owner == g
                    if not mask.any():
                        continue
                    out = drivers[g].process_wave(
                        wave.pages[mask], wave.is_write[mask],
                        wave.counts[mask])
                    compute = None
                    if wave.compute_cycles is not None:
                        # Compute splits with the accesses.
                        share = out.n_accesses / max(wave.n_accesses, 1)
                        compute = wave.compute_cycles * share
                    t = timings[g].wave_cycles(out, compute)
                    kernel_busy[g] += t.total
                    breakdowns[g].merge(t)
            for g in range(self.num_gpus):
                busy[g] += kernel_busy[g]
            makespan += max(kernel_busy)

        return MultiGpuResult(
            workload=workload.name,
            num_gpus=self.num_gpus,
            makespan_cycles=makespan,
            per_gpu_cycles=busy,
            per_gpu_events=[d.stats.totals for d in drivers],
            per_gpu_timing=breakdowns,
            footprint_bytes=vas.footprint_bytes,
            capacity_per_gpu_bytes=usable,
            partition=self.partition,
        )

    def _owners(self, pages: np.ndarray) -> np.ndarray:
        """Device owning each accessed page (see :data:`KNOWN_PARTITIONS`)."""
        if self.partition == "block":
            return (pages // layout.PAGES_PER_BLOCK) % self.num_gpus
        chunk_ids = pages // layout.PAGES_PER_CHUNK
        if self.partition == "span":
            owners = chunk_ids * self.num_gpus // self._num_chunks
            return np.minimum(owners, self.num_gpus - 1)
        return chunk_ids % self.num_gpus
