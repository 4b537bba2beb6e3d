"""Property-based tests: driver invariants under random access traffic."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import MigrationPolicy
from repro.memory.layout import MB

from tests.conftest import make_driver, make_vas

policies = st.sampled_from(list(MigrationPolicy))


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 12))
    wave_size = draw(st.integers(1, 300))
    return seed, n_waves, wave_size


@given(policies, traffic())
@settings(max_examples=60, deadline=None)
def test_structural_invariants_under_random_traffic(policy, t):
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    drv = make_driver(make_vas(4, 8), policy, capacity_mb=6)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in drv.vas.allocations])
    for _ in range(n_waves):
        pages = rng.choice(alloc_pages, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        out = drv.process_wave(pages, writes, counts)
        # Access conservation: every access is served exactly once.
        served = out.n_local + out.n_remote + out.fault_migrations
        assert served == out.n_accesses, (
            f"{out.n_accesses} accesses but {served} services")
    drv.check_consistency()
    assert drv.device.used_blocks <= drv.device.capacity_blocks


@given(policies, traffic())
@settings(max_examples=40, deadline=None)
def test_no_remote_service_for_resident_blocks(policy, t):
    """Remote accesses only ever target host-resident blocks."""
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    drv = make_driver(make_vas(8), policy, capacity_mb=4)
    a = drv.vas.allocations[0]
    for _ in range(n_waves):
        pages = rng.integers(a.first_page, a.last_page, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        drv.process_wave(pages, writes)
        # A remote mapping only covers a block the host backs: one that
        # is not device-resident (the driver's own audit agrees).
        assert not np.any(drv.host.remote_mapped & drv.residency.resident)
        drv.check_consistency()


@given(traffic())
@settings(max_examples=40, deadline=None)
def test_baseline_never_serves_remotely(t):
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    drv = make_driver(make_vas(8), MigrationPolicy.DISABLED, capacity_mb=4)
    a = drv.vas.allocations[0]
    for _ in range(n_waves):
        pages = rng.integers(a.first_page, a.last_page, size=wave_size)
        drv.process_wave(pages, np.zeros(wave_size, dtype=bool))
    assert drv.stats.totals.n_remote == 0
    assert drv.stats.totals.mapping_faults == 0


@given(traffic())
@settings(max_examples=30, deadline=None)
def test_thrash_requires_eviction(t):
    """With capacity >= footprint there are never thrash migrations."""
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    drv = make_driver(make_vas(8), MigrationPolicy.ADAPTIVE, capacity_mb=16)
    a = drv.vas.allocations[0]
    for _ in range(n_waves):
        pages = rng.integers(a.first_page, a.last_page, size=wave_size)
        drv.process_wave(pages, np.ones(wave_size, dtype=bool))
    assert drv.stats.totals.evicted_blocks == 0
    assert drv.stats.totals.thrash_migrations == 0
    assert not drv.device.oversubscribed
