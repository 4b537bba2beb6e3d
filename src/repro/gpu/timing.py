"""Wave-based GPU timing model.

Converts the event counts of a :class:`repro.uvm.driver.WaveOutcome` into
GPU core cycles.  The model captures the structure the paper's results
depend on, not SM pipeline detail:

* compute and *local* memory traffic overlap (massive TLP hides local
  DRAM latency, Section II-A), so a wave's execution time is the max of
  its compute time and its memory-service time;
* far-fault handling and fault-driven migration **serialize** with
  kernel execution ("the data migration and kernel execution is
  serialized", Section II-A) -- the offending warps stall and the SMs run
  dry while the driver works;
* write-backs serialize before the migrations that needed the space.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationConfig
from ..interconnect.pcie import PcieModel
from ..uvm.driver import WaveOutcome


@dataclass
class WaveTiming:
    """Cycle breakdown of one wave (all floats, GPU core cycles)."""

    compute: float = 0.0
    local: float = 0.0
    remote: float = 0.0
    fault_handling: float = 0.0
    migration: float = 0.0
    writeback: float = 0.0
    total: float = 0.0

    def merge(self, other: "WaveTiming") -> None:
        """Accumulate ``other`` into this breakdown.

        Runs once per wave, so it is field-unrolled like
        :meth:`repro.uvm.driver.WaveOutcome.merge`.
        """
        self.compute += other.compute
        self.local += other.local
        self.remote += other.remote
        self.fault_handling += other.fault_handling
        self.migration += other.migration
        self.writeback += other.writeback
        self.total += other.total


class TimingModel:
    """Maps wave outcomes to cycles using the configured cost constants."""

    def __init__(self, config: SimulationConfig, pcie: PcieModel) -> None:
        self.config = config
        self.pcie = pcie
        gcfg = config.gpu
        #: Device DRAM bytes per core cycle.
        self.dram_bytes_per_cycle = gcfg.dram_bandwidth / gcfg.clock_hz

    def wave_cycles(self, outcome: WaveOutcome,
                    compute_cycles: float | None = None) -> WaveTiming:
        """Cycle cost of one wave.

        ``compute_cycles`` overrides the default arithmetic-intensity
        estimate (``compute_cycles_per_access`` per issued access).
        """
        tcfg = self.config.timing
        t = WaveTiming()
        if compute_cycles is None:
            compute_cycles = (outcome.n_accesses * tcfg.compute_cycles_per_access
                              + tcfg.wave_overhead_cycles)
        t.compute = float(compute_cycles)
        t.local = (outcome.n_local * tcfg.bytes_per_access
                   / self.dram_bytes_per_cycle)
        t.remote = self.pcie.remote_cycles(outcome.n_remote)
        t.fault_handling = self.pcie.fault_handling_cycles(outcome.fault_events)
        t.migration = self.pcie.migration_cycles(outcome.h2d_blocks)
        # Injected transient faults: re-issued transfers occupy the link
        # again, and the retry backoff stalls the SMs like fault handling.
        if outcome.retried_transfers:
            t.migration += self.pcie.retry_cycles(outcome.retried_transfers)
        if outcome.retry_backoff_us:
            t.migration += self.config.gpu.us_to_cycles(
                outcome.retry_backoff_us)
        t.writeback = self.pcie.writeback_cycles(outcome.writeback_blocks)
        # Compute overlaps local+remote traffic; faults, migrations and
        # write-backs stall execution.
        t.total = (max(t.compute, t.local + t.remote)
                   + t.fault_handling + t.migration + t.writeback)
        return t

    def wave_total_cycles(self, outcome: WaveOutcome,
                          compute_cycles: float | None = None) -> float:
        """``wave_cycles(...).total``: the scalar the serve loop charges
        per wave."""
        return self.wave_cycles(outcome, compute_cycles).total
