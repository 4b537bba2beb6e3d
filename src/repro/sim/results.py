"""Run results: the quantities the paper's evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..gpu.timing import WaveTiming
from ..stats.collector import StatsCollector
from ..uvm.driver import WaveOutcome


@dataclass
class RunResult:
    """Outcome of simulating one workload under one configuration."""

    workload: str
    config: SimulationConfig
    #: Total kernel execution time in GPU core cycles (the paper's
    #: "runtime"; host-side setup is excluded, as in the paper).
    total_cycles: float
    #: Cycle breakdown summed over all waves.
    timing: WaveTiming
    #: Event totals summed over all waves.
    events: WaveOutcome
    #: Optional heavy instrumentation (histograms/traces).
    stats: StatsCollector | None = field(default=None, repr=False)
    #: Working-set and capacity context.
    footprint_bytes: int = 0
    device_capacity_bytes: int = 0
    #: Number of distinct basic blocks that thrashed at least once.
    unique_thrashed_blocks: int = 0

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock kernel time implied by the core clock."""
        return self.total_cycles / self.config.gpu.clock_hz

    @property
    def oversubscription(self) -> float:
        """Working set as a fraction of device capacity."""
        if self.device_capacity_bytes == 0:
            return 0.0
        return self.footprint_bytes / self.device_capacity_bytes

    @property
    def pages_thrashed(self) -> int:
        """Total thrash migrations (Figure 7's metric, block granularity)."""
        return self.events.thrash_migrations

    @property
    def fault_count(self) -> int:
        """Total far-fault events."""
        return self.events.fault_events

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served device-locally."""
        if self.events.n_accesses == 0:
            return 0.0
        return self.events.n_local / self.events.n_accesses

    # -- traffic and utilization -------------------------------------------

    @property
    def h2d_bytes(self) -> int:
        """Host->device bytes moved (migrations + prefetches)."""
        from ..memory.layout import BASIC_BLOCK_SIZE
        return self.events.h2d_blocks * BASIC_BLOCK_SIZE

    @property
    def d2h_bytes(self) -> int:
        """Device->host bytes moved (dirty write-backs)."""
        from ..memory.layout import BASIC_BLOCK_SIZE
        return self.events.writeback_blocks * BASIC_BLOCK_SIZE

    @property
    def remote_bytes(self) -> int:
        """Payload bytes served by remote zero-copy transactions."""
        return (self.events.n_remote
                * self.config.interconnect.remote_transaction_bytes)

    @property
    def pcie_utilization(self) -> float:
        """Fraction of one PCIe direction's capacity the run consumed.

        Uses the heavier direction (h2d migrations + remote traffic vs
        d2h write-backs) against the link capacity over the whole run.
        """
        if self.total_cycles == 0:
            return 0.0
        bpc = (self.config.interconnect.bandwidth
               / self.config.gpu.clock_hz)
        heavier = max(self.h2d_bytes + self.remote_bytes, self.d2h_bytes)
        return heavier / (self.total_cycles * bpc)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Baseline cycles divided by this run's cycles (>1 means faster)."""
        if self.total_cycles == 0:
            raise ZeroDivisionError("run recorded zero cycles")
        return baseline.total_cycles / self.total_cycles

    def normalized_runtime(self, baseline: "RunResult") -> float:
        """This run's cycles relative to a baseline run (the paper's y-axes)."""
        if baseline.total_cycles == 0:
            raise ZeroDivisionError("baseline recorded zero cycles")
        return self.total_cycles / baseline.total_cycles

    def summary(self) -> dict:
        """Flat dictionary for tabular reporting."""
        ev = self.events
        return {
            "workload": self.workload,
            "policy": self.config.policy.policy.value,
            "cycles": self.total_cycles,
            "runtime_ms": self.runtime_seconds * 1e3,
            "accesses": ev.n_accesses,
            "local": ev.n_local,
            "remote": ev.n_remote,
            "faults": ev.fault_events,
            "migrated_blocks": ev.migrated_blocks,
            "prefetched_blocks": ev.prefetched_blocks,
            "evicted_blocks": ev.evicted_blocks,
            "writeback_blocks": ev.writeback_blocks,
            "thrash_migrations": ev.thrash_migrations,
            "retried_transfers": ev.retried_transfers,
            "degraded_accesses": ev.degraded_accesses,
            "oversubscription": self.oversubscription,
        }
