"""End-to-end determinism properties of the resilience layer.

Two contracts from the fault-model design notes are pinned here:

* **Zero-rate transparency** -- a config whose fault rates are all 0.0
  must be bit-identical to the pre-fault-model simulator, even when an
  injector object is forcibly attached (rate 0 consumes no randomness).
* **Resume transparency** -- a grid served partly from a checkpoint
  journal must be cell-for-cell identical to an uninterrupted serial
  run (floats round-trip JSON exactly).
"""

import dataclasses

import pytest

from repro.analysis.checkpoint import CheckpointJournal
from repro.analysis.parallel import GridCell, GridOptions, run_grid
from repro.config import FaultConfig, MigrationPolicy, SimulationConfig
from repro.sim.simulator import Simulator
from repro.uvm.faults import FaultInjector
from repro.workloads import make_workload


def _run(cfg, seed=0, oversub=1.25):
    wl = make_workload("ra", "tiny")
    return Simulator(cfg).run(wl, oversubscription=oversub)


def _identical(a, b):
    assert a.total_cycles == b.total_cycles
    assert a.timing == b.timing
    assert a.events == b.events


class TestZeroRateTransparency:
    def test_zero_rates_bit_identical_to_default(self):
        _identical(_run(SimulationConfig()),
                   _run(SimulationConfig().with_faults(
                       transfer_fault_rate=0.0, migration_fault_rate=0.0,
                       max_retries=7, retry_backoff_us=100.0)))

    def test_forced_injector_with_zero_rates_is_inert(self):
        """Even with an injector attached, rate 0 changes nothing."""
        from tests.conftest import make_vas
        from repro.uvm.driver import UvmDriver

        cfg = SimulationConfig()
        driver = UvmDriver(make_vas(8), cfg)
        assert driver.injector is None  # disabled config -> no injector
        forced = UvmDriver(make_vas(8), cfg)
        forced.injector = FaultInjector(FaultConfig(), seed=cfg.seed)
        # The injector's enabled gate short-circuits before any draw.
        assert not forced.injector.enabled

    def test_zero_rate_counters_stay_zero(self):
        r = _run(SimulationConfig())
        assert r.events.retried_transfers == 0
        assert r.events.degraded_accesses == 0
        assert r.events.retry_backoff_us == 0.0


class TestFaultDeterminism:
    CFG = dict(transfer_fault_rate=0.3, migration_fault_rate=0.1,
               max_retries=1)

    def test_same_seed_same_run(self):
        cfg = SimulationConfig(seed=5).with_faults(**self.CFG)
        _identical(_run(cfg, seed=5), _run(cfg, seed=5))

    def test_faults_actually_fire_and_slow_the_run(self):
        clean = _run(SimulationConfig(seed=0))
        faulty = _run(SimulationConfig(seed=0).with_faults(**self.CFG))
        assert faulty.events.retried_transfers > 0
        assert faulty.total_cycles > clean.total_cycles

    def test_different_seed_different_fault_pattern(self):
        a = _run(dataclasses.replace(
            SimulationConfig(seed=1).with_faults(**self.CFG)))
        b = _run(dataclasses.replace(
            SimulationConfig(seed=2).with_faults(**self.CFG)))
        # Same rates, different seeds: the injected pattern must differ.
        assert (a.events.retried_transfers, a.total_cycles) \
            != (b.events.retried_transfers, b.total_cycles)

    def test_exhausted_retries_degrade_not_crash(self):
        cfg = SimulationConfig(seed=0).with_faults(
            transfer_fault_rate=0.9, max_retries=0)
        r = _run(cfg)
        assert r.events.degraded_accesses > 0
        assert r.total_cycles > 0  # run completed despite the fault storm

    def test_debug_invariants_hold_under_faults(self):
        cfg = dataclasses.replace(
            SimulationConfig(seed=0).with_faults(**self.CFG),
            debug_invariants=True)
        _run(cfg)  # would raise AssertionError on an accounting leak


class TestResumeTransparency:
    CELLS = [
        GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny"),
        GridCell("ra", MigrationPolicy.DISABLED, 1.25, "tiny"),
        GridCell("ra", MigrationPolicy.ADAPTIVE, 1.0, "tiny"),
        GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny",
                 transfer_fault_rate=0.2),
    ]

    def test_resumed_grid_equals_uninterrupted_serial(self, tmp_path):
        baseline = run_grid(self.CELLS, max_workers=1)

        # First (interrupted) run journals only a prefix of the grid.
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            for cell, result in zip(self.CELLS[:2], baseline[:2]):
                journal.append(cell, result)

        resumed = run_grid(
            self.CELLS, max_workers=1,
            options=GridOptions(checkpoint=str(path), resume=True))
        for a, b in zip(baseline, resumed):
            _identical(a, b)
            assert a.config == b.config

    def test_resume_never_reruns_journaled_cells(self, tmp_path, monkeypatch):
        baseline = run_grid(self.CELLS, max_workers=1)
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as journal:
            for cell, result in zip(self.CELLS, baseline):
                journal.append(cell, result)

        from repro.analysis import parallel

        def exploding(cell):
            raise AssertionError("journaled cell was re-simulated")

        monkeypatch.setattr(parallel, "run_cell", exploding)
        resumed = run_grid(
            self.CELLS, max_workers=1,
            options=GridOptions(checkpoint=str(path), resume=True))
        for a, b in zip(baseline, resumed):
            _identical(a, b)

    def test_parallel_equals_serial(self):
        serial = run_grid(self.CELLS, max_workers=1)
        fanned = run_grid(self.CELLS, max_workers=2)
        for a, b in zip(serial, fanned):
            _identical(a, b)
