"""PCIe interconnect cost model (Table I: PCIe 3.0 x16, 8 GT/s per lane).

Translates transfer events into GPU core cycles.  Three traffic classes
cross the link:

* **bulk migration** (host->device): streams at full link bandwidth --
  this is what the tree prefetcher optimizes for;
* **write-back** (device->host): evicted dirty blocks, also at link
  bandwidth, but serialized *before* the migrations that forced the
  eviction (the long-latency write-backs of Section III-A);
* **remote zero-copy transactions**: small (one 128B sector), low
  latency but poor bandwidth efficiency -- the paper's motivation for
  migrating hot data and host-pinning only cold data.

The model is pure: it prices events and keeps no state.  A run's
traffic in bytes derives from its event totals
(:attr:`repro.sim.results.RunResult.h2d_bytes` and its siblings).
"""

from __future__ import annotations

from ..config import GpuConfig, InterconnectConfig
from ..memory.layout import BASIC_BLOCK_SIZE


class PcieModel:
    """Cycle costs of the CPU-GPU interconnect's traffic classes."""

    def __init__(self, icfg: InterconnectConfig, gcfg: GpuConfig) -> None:
        self.config = icfg
        #: Link payload bytes per GPU core cycle, per direction.
        self.bytes_per_cycle = icfg.bandwidth / gcfg.clock_hz
        #: Cycles to resolve one far-fault batch (page-table walk and
        #: driver handling, 45us on Pascal).
        self.fault_batch_cycles = gcfg.us_to_cycles(icfg.fault_handling_us)
        #: Effective cycles charged per remote zero-copy access: link
        #: occupancy of one (overhead-inflated) transaction plus the
        #: share of the 200-cycle latency that outstanding-request
        #: parallelism cannot hide.
        self.remote_access_cycles = (
            icfg.remote_transaction_bytes * icfg.remote_overhead
            / self.bytes_per_cycle
            + icfg.remote_access_latency_cycles / icfg.remote_concurrency
        )
        #: Cycles to stream one 64KB basic block.
        self.block_transfer_cycles = (
            BASIC_BLOCK_SIZE / self.bytes_per_cycle + icfg.latency_cycles
        )

    def migration_cycles(self, n_blocks: int) -> float:
        """Host->device streaming cost of ``n_blocks`` basic blocks."""
        if n_blocks <= 0:
            return 0.0
        return n_blocks * self.block_transfer_cycles

    def writeback_cycles(self, n_blocks: int) -> float:
        """Device->host write-back cost of ``n_blocks`` dirty blocks."""
        if n_blocks <= 0:
            return 0.0
        return n_blocks * self.block_transfer_cycles

    def remote_cycles(self, n_accesses: int) -> float:
        """Cost of ``n_accesses`` remote zero-copy transactions."""
        if n_accesses <= 0:
            return 0.0
        return n_accesses * self.remote_access_cycles

    def fault_handling_cycles(self, fault_events: int) -> float:
        """Driver handling cost: faults are drained in shared batches."""
        if fault_events <= 0:
            return 0.0
        batches = -(-fault_events // self.config.fault_batch_size)
        return batches * self.fault_batch_cycles

    def retry_cycles(self, n_retries: int) -> float:
        """Link cost of ``n_retries`` re-issued block transfers.

        A failed migration attempt (injected transient fault) still
        occupied the link for a full block stream before being dropped,
        so each retry wastes one block-transfer time.  The backoff
        *wait* between attempts is charged separately by the timing
        model from ``WaveOutcome.retry_backoff_us``.
        """
        if n_retries <= 0:
            return 0.0
        return n_retries * self.block_transfer_cycles
