"""Backend equivalence: the compiled backend's contract.

The compiled backend (``SimulationConfig.backend``) is a pure
performance rewrite: swapping kernel namespaces must be undetectable in
per-wave outcomes and final driver state, for the production driver and
for the test oracle (:class:`tests.oracle.ReferenceDriver`) alike.
These properties pin it, mirroring ``test_fastpath_equivalence.py`` for
the fast-path rewrite.

The ``numba`` backend is exercised through its interpreted fallback
(:data:`repro.accel.FORCE_INTERPRETED`), so the loop kernels run -- and
must match the numpy reference bit-for-bit -- even on machines without
numba installed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.accel as accel
from repro.analysis.checkpoint import encode_result
from repro.config import (
    MigrationPolicy,
    ReplacementPolicy,
    SimulationConfig,
)
from repro.memory.layout import MB
from repro.sim.simulator import Simulator
from repro.uvm.driver import UvmDriver
from repro.workloads import ALL_WORKLOADS, EXTENDED_WORKLOADS, make_workload

from tests.conftest import make_vas
from tests.oracle import ReferenceDriver

policies = st.sampled_from(list(MigrationPolicy))


@pytest.fixture(autouse=True)
def interpreted_numba(monkeypatch):
    """Resolve the numba backend to interpreted loop kernels."""
    monkeypatch.setattr(accel, "FORCE_INTERPRETED", True)


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 8))
    wave_size = draw(st.integers(1, 200))
    # Generous capacity keeps waves all-resident after warm-up; tight
    # capacity interleaves eviction-pressure waves.
    capacity_mb = draw(st.sampled_from([6, 64]))
    return seed, n_waves, wave_size, capacity_mb


def _make_driver(backend: str, policy: MigrationPolicy,
                 capacity_mb: float, *,
                 replacement: ReplacementPolicy | None = None,
                 fault_rates: tuple[float, float] | None = None,
                 fast_path: bool = True) -> UvmDriver:
    """Production driver, or with ``fast_path=False`` the reference
    driver (full pipeline every wave, scalar drain)."""
    cfg = (SimulationConfig(backend=backend)
           .with_policy(policy, static_threshold=8, migration_penalty=8)
           .with_device_capacity(int(capacity_mb * MB)))
    if replacement is not None:
        cfg = dataclasses.replace(
            cfg, memory=dataclasses.replace(cfg.memory,
                                            replacement=replacement))
    if fault_rates is not None:
        cfg = cfg.with_faults(transfer_fault_rate=fault_rates[0],
                              migration_fault_rate=fault_rates[1])
    cls = UvmDriver if fast_path else ReferenceDriver
    return cls(make_vas(4, 8), cfg)


def _assert_same_state(a: UvmDriver, b: UvmDriver) -> None:
    assert np.array_equal(a.residency.resident, b.residency.resident)
    assert np.array_equal(a.residency.dirty, b.residency.dirty)
    assert np.array_equal(a.counters.counts, b.counters.counts)
    assert np.array_equal(a.counters.volta_counts, b.counters.volta_counts)
    assert np.array_equal(a.counters.roundtrips, b.counters.roundtrips)
    assert np.array_equal(a.directory.last_touch, b.directory.last_touch)
    a.check_consistency()
    b.check_consistency()


def _run_pair(a: UvmDriver, b: UvmDriver, seed: int, n_waves: int,
              wave_size: int) -> None:
    """Drive both with identical traffic; outcomes must match per wave."""
    rng = np.random.default_rng(seed)
    alloc_pages = np.concatenate([
        np.arange(al.first_page, al.last_page)
        for al in a.vas.allocations])
    for _ in range(n_waves):
        pages = rng.choice(alloc_pages, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        out_a = a.process_wave(pages, writes, counts)
        out_b = b.process_wave(pages.copy(), writes.copy(), counts.copy())
        assert dataclasses.asdict(out_a) == dataclasses.asdict(out_b)
    _assert_same_state(a, b)


def _normalized(result) -> dict:
    """Run result minus config (the backend is a perf hint, and the
    configs of a compared pair intentionally differ in it)."""
    enc = encode_result(result)
    enc.pop("config")
    return enc


# ---------------------------------------------------------------------------
# backend equivalence (python vs numba loop kernels)
# ---------------------------------------------------------------------------

@given(policies, traffic())
@settings(max_examples=25, deadline=None)
def test_backends_match_across_policies(policy, t):
    seed, n_waves, wave_size, capacity_mb = t
    _run_pair(_make_driver("python", policy, capacity_mb),
              _make_driver("numba", policy, capacity_mb),
              seed, n_waves, wave_size)


@given(traffic(), st.floats(0.05, 0.5), st.floats(0.05, 0.5))
@settings(max_examples=15, deadline=None)
def test_backends_match_under_fault_injection(t, transfer_rate,
                                              migration_rate):
    seed, n_waves, wave_size, capacity_mb = t
    rates = (transfer_rate, migration_rate)
    _run_pair(
        _make_driver("python", MigrationPolicy.ADAPTIVE, capacity_mb,
                     fault_rates=rates),
        _make_driver("numba", MigrationPolicy.ADAPTIVE, capacity_mb,
                     fault_rates=rates),
        seed, n_waves, wave_size)


@pytest.mark.parametrize("replacement", list(ReplacementPolicy))
def test_backends_match_both_replacement_policies(replacement):
    _run_pair(
        _make_driver("python", MigrationPolicy.ADAPTIVE, 6,
                     replacement=replacement),
        _make_driver("numba", MigrationPolicy.ADAPTIVE, 6,
                     replacement=replacement),
        seed=11, n_waves=12, wave_size=200)


@pytest.mark.parametrize("fast_path", [True, False])
def test_backends_match_fast_path_on_and_off(fast_path):
    _run_pair(
        _make_driver("python", MigrationPolicy.ADAPTIVE, 64,
                     fast_path=fast_path),
        _make_driver("numba", MigrationPolicy.ADAPTIVE, 64,
                     fast_path=fast_path),
        seed=23, n_waves=10, wave_size=150)


@pytest.mark.parametrize("name", ALL_WORKLOADS + EXTENDED_WORKLOADS)
def test_backends_match_every_registered_workload(name):
    results = {}
    for backend in ("python", "numba"):
        cfg = SimulationConfig(seed=3, backend=backend).with_policy(
            MigrationPolicy.ADAPTIVE)
        results[backend] = Simulator(cfg).run(
            make_workload(name, "tiny"), oversubscription=1.25)
    assert _normalized(results["numba"]) == _normalized(results["python"])


def test_numba_backend_reports_active_name():
    drv = _make_driver("numba", MigrationPolicy.ADAPTIVE, 64)
    assert drv.accel.requested == "numba"
    assert drv.backend_name == "numba"  # FORCE_INTERPRETED resolves it
