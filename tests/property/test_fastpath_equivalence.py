"""Fast-path and trace-replay equivalence: this tentpole's contracts.

The resident fast path (always on in :class:`UvmDriver`; the test
oracle :class:`tests.oracle.ReferenceDriver` runs every wave through the
full pipeline) and trace replay (:class:`repro.trace.TraceWorkload`, the
engine behind the grid trace cache) are pure performance rewrites: the
short circuit must be undetectable in outcomes and driver state, and a
replayed stream must drive the simulator exactly like live generation.
These properties pin both, mirroring ``test_batched_equivalence.py``
for the drain rewrite.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import GridCell, GridOptions, run_grid
from repro.analysis.parallel import run_cell
from repro.analysis.checkpoint import encode_result
from repro.config import (
    MigrationPolicy,
    ReplacementPolicy,
    SimulationConfig,
)
from repro.memory.layout import BLOCK_SHIFT, MB
from repro.sim import simulator
from repro.sim.simulator import Simulator
from repro.trace import TraceWorkload, record_trace
from repro.uvm.driver import UvmDriver, group_wave
from repro.workloads import ALL_WORKLOADS, make_workload

from tests.conftest import make_driver, make_vas
from tests.oracle import ReferenceDriver

policies = st.sampled_from(list(MigrationPolicy))


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 10))
    wave_size = draw(st.integers(1, 250))
    # Generous capacity keeps waves all-resident after warm-up (the fast
    # path's home regime); tight capacity interleaves pressure waves.
    capacity_mb = draw(st.sampled_from([6, 64]))
    return seed, n_waves, wave_size, capacity_mb


def _assert_same_state(fast: UvmDriver, slow: UvmDriver) -> None:
    assert np.array_equal(fast.residency.resident, slow.residency.resident)
    assert np.array_equal(fast.residency.dirty, slow.residency.dirty)
    assert np.array_equal(fast.counters.counts, slow.counters.counts)
    assert np.array_equal(fast.counters.volta_counts,
                          slow.counters.volta_counts)
    assert np.array_equal(fast.counters.roundtrips,
                          slow.counters.roundtrips)
    assert np.array_equal(fast.directory.last_touch,
                          slow.directory.last_touch)
    fast.check_consistency()
    slow.check_consistency()


#: Which drivers of a pair get each wave's grouping (as a replayed
#: trace hands it over): neither, production only, or both.
GROUPED = ("none", "fast", "both")


def _run_pair(fast: UvmDriver, slow: UvmDriver, seed: int, n_waves: int,
              wave_size: int, grouped: str) -> None:
    rng = np.random.default_rng(seed)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in fast.vas.allocations])
    for _ in range(n_waves):
        pages = rng.choice(alloc_pages, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        group = (None if grouped == "none" else
                 group_wave(pages >> BLOCK_SHIFT, writes, counts))
        out_f = fast.process_wave(pages, writes, counts, group)
        out_s = slow.process_wave(pages.copy(), writes.copy(),
                                  counts.copy(),
                                  group if grouped == "both" else None)
        assert dataclasses.asdict(out_f) == dataclasses.asdict(out_s)
    _assert_same_state(fast, slow)


def _run_every_mode(make, seed: int, n_waves: int, wave_size: int) -> None:
    """Run the same traffic once per :data:`GROUPED` mode, each on a
    fresh pair ``make(cls)`` of production and oracle drivers, so every
    example checks the raw fast path and the grouped one."""
    for grouped in GROUPED:
        _run_pair(make(UvmDriver), make(ReferenceDriver), seed, n_waves,
                  wave_size, grouped)


@given(policies, traffic())
@settings(max_examples=50, deadline=None)
def test_fast_path_matches_full_pipeline(policy, t):
    seed, n_waves, wave_size, capacity_mb = t
    _run_every_mode(
        lambda cls: make_driver(make_vas(4, 8), policy,
                                capacity_mb=capacity_mb, driver_cls=cls),
        seed, n_waves, wave_size)


@given(traffic(), st.floats(0.05, 0.5), st.floats(0.05, 0.5))
@settings(max_examples=25, deadline=None)
def test_fast_path_matches_under_fault_injection(t, transfer_rate,
                                                 migration_rate):
    """All-resident waves draw nothing from the injector RNG, so the
    short circuit cannot shift later fault outcomes."""
    seed, n_waves, wave_size, capacity_mb = t
    cfg = (SimulationConfig()
           .with_policy(MigrationPolicy.ADAPTIVE)
           .with_device_capacity(capacity_mb * MB)
           .with_faults(transfer_fault_rate=transfer_rate,
                        migration_fault_rate=migration_rate))
    _run_every_mode(lambda cls: cls(make_vas(4, 8), cfg),
                    seed, n_waves, wave_size)


@pytest.mark.parametrize("replacement", list(ReplacementPolicy))
def test_fast_path_matches_under_both_replacement_policies(replacement):
    cfg = (SimulationConfig()
           .with_policy(MigrationPolicy.ADAPTIVE)
           .with_device_capacity(6 * MB))
    cfg = dataclasses.replace(
        cfg, memory=dataclasses.replace(cfg.memory, replacement=replacement))
    _run_every_mode(lambda cls: cls(make_vas(4, 8), cfg),
                    seed=11, n_waves=12, wave_size=200)


def test_fast_path_fires_in_steady_state():
    """With capacity over footprint, repeat traffic is absorbed by the
    fast path, and the hit-rate rollup reflects it."""
    drv = make_driver(make_vas(4), MigrationPolicy.DISABLED, capacity_mb=16)
    pages = np.arange(drv.vas.allocations[0].first_page,
                      drv.vas.allocations[0].last_page)
    writes = np.zeros(pages.size, dtype=bool)
    drv.process_wave(pages, writes)  # warm: first touch migrates all
    assert drv.stats.fast_path_waves == 0 or drv.fast_path_hit_rate < 1.0
    for _ in range(4):
        out = drv.process_wave(pages, writes)
        assert out.n_local == out.n_accesses
    assert drv.stats.fast_path_waves == 4
    assert drv.fast_path_hit_rate == pytest.approx(4 / 5)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_reference_driver_matches_every_workload(name, monkeypatch):
    """End to end through ``Simulator``: production equals the oracle."""
    cfg = SimulationConfig(seed=5).with_policy(MigrationPolicy.ADAPTIVE)
    prod = Simulator(cfg).run(make_workload(name, "tiny"),
                              oversubscription=1.25)
    monkeypatch.setattr(simulator, "UvmDriver", ReferenceDriver)
    ref = Simulator(cfg).run(make_workload(name, "tiny"),
                             oversubscription=1.25)
    assert encode_result(ref) == encode_result(prod)


# ---------------------------------------------------------------------------
# trace replay (the grid trace cache's correctness contract)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_replay_bit_identical_every_registered_workload(name):
    cfg = SimulationConfig(seed=3).with_policy(MigrationPolicy.ADAPTIVE)
    live = Simulator(cfg).run(make_workload(name, "tiny"),
                              oversubscription=1.25)
    data = record_trace(make_workload(name, "tiny"), seed=3)
    replay = Simulator(cfg).run(TraceWorkload(data), oversubscription=1.25)
    assert encode_result(replay) == encode_result(live)


@pytest.mark.parametrize("replacement", list(ReplacementPolicy))
def test_replay_bit_identical_both_replacement_policies(replacement):
    cfg = SimulationConfig(seed=5).with_policy(MigrationPolicy.ADAPTIVE)
    cfg = dataclasses.replace(
        cfg, memory=dataclasses.replace(cfg.memory,
                                        replacement=replacement))
    live = Simulator(cfg).run(make_workload("ra", "tiny"),
                              oversubscription=1.5)
    data = record_trace(make_workload("ra", "tiny"), seed=5)
    replay = Simulator(cfg).run(TraceWorkload(data), oversubscription=1.5)
    assert encode_result(replay) == encode_result(live)


def test_replay_bit_identical_under_fault_injection():
    cfg = (SimulationConfig(seed=9)
           .with_policy(MigrationPolicy.ADAPTIVE)
           .with_faults(transfer_fault_rate=0.02,
                        migration_fault_rate=0.05))
    live = Simulator(cfg).run(make_workload("bfs", "tiny"),
                              oversubscription=1.25)
    data = record_trace(make_workload("bfs", "tiny"), seed=9)
    replay = Simulator(cfg).run(TraceWorkload(data), oversubscription=1.25)
    assert encode_result(replay) == encode_result(live)


def test_grid_with_trace_cache_bit_identical(tmp_path):
    """Grids replay recorded streams, with a private cache (default
    options) or a shared one (cold and warm), byte-identical to live
    generation cell by cell.  Two streams are shared by several cells,
    one stream by a single cell."""
    cells = [GridCell("ra", MigrationPolicy.ADAPTIVE, level, "tiny")
             for level in (0.8, 1.25)]
    cells.append(GridCell("sssp", MigrationPolicy.DISABLED, 1.25, "tiny"))
    cells.append(GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny",
                          transfer_fault_rate=0.05))
    cells.append(GridCell("sssp", MigrationPolicy.ADAPTIVE, 1.25, "tiny"))
    cells.append(GridCell("bfs", MigrationPolicy.ALWAYS, 1.25, "tiny"))
    live = [run_cell(c) for c in cells]
    private = run_grid(cells)
    opts = GridOptions(trace_cache=str(tmp_path / "cache"))
    cold = run_grid(cells, options=opts)
    warm = run_grid(cells, options=opts)
    for b, p, c, w in zip(live, private, cold, warm):
        assert encode_result(p) == encode_result(b)
        assert encode_result(c) == encode_result(b)
        assert encode_result(w) == encode_result(b)
