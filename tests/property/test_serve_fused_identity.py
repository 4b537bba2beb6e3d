"""Per-wave serve dispatch + fair scheduling: the serve path's contracts.

Three guarantees pin the serve path:

* **Production per-wave dispatch equals the oracle.**  The session
  hands every scheduler slot to
  :meth:`~repro.uvm.driver.UvmDriver.process_wave_batch`, which runs
  the slot's waves one after another through the driver's per-wave
  pipeline.  The result -- per-wave outcomes, final driver state,
  emitted events, every simulated quantity -- is bit-identical to the
  test oracle
  (:func:`tests.oracle.reference_session`, whose driver resolves every
  wave through the full pipeline, without the resident fast path or
  the bulk drain), across schedulers, policies and fault injection.
* **Earlier output is untouched.**  The golden fixtures under
  ``tests/data/serve_golden/`` were generated from earlier code: the
  round-robin ones from the pre-scheduler serving layer, the drr one
  from the last version that still had a sequential executor (where
  it agreed with the fused executor that came after it).  Every shared
  key must still match.  One rollup moved on purpose: the telemetry
  hub now runs in every session, so ``alerts_fired`` in
  ``base_seed0/1/7`` and ``drr_seed0`` holds the count earlier code
  reported for the same config with an event sink attached.
* **DRR is deficit-bounded.**  The deficit round-robin scheduler never
  banks a carried deficit outside ``[0, 1)`` and never starves a
  runnable tenant, for any weight vector and throttle pattern.
"""

import dataclasses
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MB, MigrationPolicy, ServeConfig, SimulationConfig
from repro.obs import Observability, RingBufferSink
from repro.serve import ServeSession
from repro.serve.scheduler import (THROTTLE_DECAY,
                                   DeficitRoundRobinScheduler)
from repro.uvm.driver import UvmDriver

from tests.conftest import make_vas
from tests.oracle import ReferenceDriver, reference_session

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "serve_golden"

#: Small but non-trivial: overlapping tenants, queueing, throttling.
BASE = dict(tenants=5, arrival_rate=1500.0, capacity_mb=24,
            queue_depth=2, throttle_watermark=1.1, admit_watermark=1.6,
            shed_watermark=2.0)

def dispatch_sizes(cfg):
    """A serve run's result and the wave count of each of its driver
    dispatches, counted by a wrapper around ``process_wave_batch``."""
    sizes = []
    batch = UvmDriver.process_wave_batch

    def counted(self, waves, tenants=None):
        sizes.append(len(waves))
        return batch(self, waves, tenants)

    with mock.patch.object(UvmDriver, "process_wave_batch", counted):
        result = ServeSession(cfg).run()
    assert sum(sizes) == result.total_waves
    return result, sizes


def serve_dict(seed, sim=None, obs=None, reference=False, **kw):
    """A serve run's result dict; ``reference`` runs it on the oracle."""
    cfg = ServeConfig(seed=seed, **BASE, **kw)
    if reference:
        return reference_session(cfg, sim_config=sim, obs=obs).as_dict()
    return ServeSession(cfg, sim_config=sim, obs=obs).run().as_dict()


def golden_configs():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        yield pytest.param(path, id=path.stem)


# ---------------------------------------------------------------------------
# golden fixtures == output of earlier code, byte for byte
# ---------------------------------------------------------------------------

class TestGoldenRoundRobin:
    @pytest.mark.parametrize("path", golden_configs())
    def test_matches_pre_rework_output(self, path):
        """Every key the pre-rework serving layer produced still holds
        the exact same value (new keys are additive)."""
        golden = json.loads(path.read_text())
        kwargs = dict(golden["config"])
        for key in ("workload_mix", "weights"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        got = ServeSession(ServeConfig(**kwargs)).run().as_dict()
        for key, value in golden.items():
            if key == "tenants":
                assert len(value) == len(got["tenants"])
                for want, have in zip(value, got["tenants"]):
                    for tk, tv in want.items():
                        assert have[tk] == tv, (path.stem, want["tenant"], tk)
            elif key == "config":
                for ck, cv in value.items():
                    assert got["config"][ck] == cv, (path.stem, ck)
            else:
                assert got[key] == value, (path.stem, key)

    def test_goldens_cover_distinct_regimes(self):
        fixtures = list(GOLDEN_DIR.glob("*.json"))
        assert len(fixtures) >= 5


# ---------------------------------------------------------------------------
# production per-wave dispatch == oracle (session level)
# ---------------------------------------------------------------------------

class TestFusedSessionIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("scheduler", ["round_robin", "drr"])
    def test_batched_equals_sequential(self, seed, scheduler):
        seq = serve_dict(seed, scheduler=scheduler, reference=True)
        prod = serve_dict(seed, scheduler=scheduler)
        assert seq == prod
        assert json.dumps(seq, sort_keys=True) == \
            json.dumps(prod, sort_keys=True)

    def test_batched_equals_sequential_with_weights(self):
        kw = dict(scheduler="drr", weights=(3.0, 1.0, 2.0))
        assert serve_dict(2, reference=True, **kw) == serve_dict(2, **kw)

    def test_batched_equals_sequential_under_faults(self):
        """Injected migration/transfer faults draw RNG only for
        migration candidates, so the fast paths must not perturb the
        fault stream."""
        sim = SimulationConfig().with_faults(transfer_fault_rate=0.2,
                                             migration_fault_rate=0.2)
        seq = serve_dict(1, sim=sim, scheduler="drr", reference=True)
        prod = serve_dict(1, sim=sim, scheduler="drr")
        assert seq == prod

    def test_event_streams_match(self):
        """Driver + tenant event streams are identical in production
        and on the oracle."""
        def events(reference):
            obs = Observability()
            ring = RingBufferSink(capacity=65536)
            obs.bus.attach(ring)
            serve_dict(0, scheduler="drr", reference=reference, obs=obs)
            return [ev.as_dict() for ev in ring.events]

        assert events(True) == events(False)

    def test_batching_actually_fuses(self):
        """Guards against the batch tests passing vacuously: under drr,
        scheduler slots hold several waves, so the drr sessions above
        send multi-wave batches through the driver."""
        _, sizes = dispatch_sizes(ServeConfig(seed=0, scheduler="drr",
                                              **BASE))
        assert max(sizes) > 1

    def test_rr_batched_still_matches_golden(self):
        """round_robin plans singleton groups, which run through the
        same slot-major dispatch as every other group: the output must
        equal the pre-rework golden fixture, and no dispatch holds two
        waves."""
        golden = json.loads((GOLDEN_DIR / "base_seed0.json").read_text())
        kwargs = dict(golden["config"])
        kwargs["workload_mix"] = tuple(kwargs["workload_mix"])
        kwargs["weights"] = tuple(kwargs.get("weights", ()))
        result, sizes = dispatch_sizes(ServeConfig(**kwargs))
        assert set(sizes) == {1}  # no slot holds two tenants
        got = result.as_dict()
        for key in ("duration_us", "total_waves", "total_accesses",
                    "completed", "decisions"):
            assert got[key] == golden[key]


# ---------------------------------------------------------------------------
# production batches == the oracle's waves one at a time (driver level)
# ---------------------------------------------------------------------------

def _tenant_driver(policy=MigrationPolicy.ADAPTIVE, capacity_mb=4,
                   fault_rates=None, cls=UvmDriver):
    cfg = (SimulationConfig()
           .with_policy(policy, static_threshold=8, migration_penalty=8)
           .with_device_capacity(int(capacity_mb * MB)))
    if fault_rates is not None:
        cfg = cfg.with_faults(transfer_fault_rate=fault_rates[0],
                              migration_fault_rate=fault_rates[1])
    # Three disjoint allocations stand in for three tenant namespaces.
    return cls(make_vas(2, 2, 2), cfg)


def _tenant_waves(driver, rng, wave_size):
    """One wave per pseudo-tenant, each inside its own allocation."""
    waves = []
    for alloc in driver.vas.allocations:
        pages = np.sort(rng.integers(alloc.first_page, alloc.last_page,
                                     size=wave_size))
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        waves.append((pages, writes, counts))
    return waves


def _assert_same_state(a: UvmDriver, b: UvmDriver) -> None:
    assert np.array_equal(a.residency.resident, b.residency.resident)
    assert np.array_equal(a.residency.dirty, b.residency.dirty)
    assert np.array_equal(a.counters.counts, b.counters.counts)
    assert np.array_equal(a.counters.volta_counts, b.counters.volta_counts)
    assert np.array_equal(a.counters.roundtrips, b.counters.roundtrips)
    assert np.array_equal(a.directory.last_touch, b.directory.last_touch)
    assert dataclasses.asdict(a.stats.totals) == \
        dataclasses.asdict(b.stats.totals)
    a.check_consistency()
    b.check_consistency()


class TestDriverBatchIdentity:
    @given(seed=st.integers(0, 2**16), rounds=st.integers(1, 6),
           wave_size=st.integers(1, 120),
           capacity_mb=st.sampled_from([2, 8]))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_sequential_loop(self, seed, rounds, wave_size,
                                          capacity_mb):
        seq = _tenant_driver(capacity_mb=capacity_mb, cls=ReferenceDriver)
        bat = _tenant_driver(capacity_mb=capacity_mb)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for _ in range(rounds):
            waves_a = _tenant_waves(seq, rng_a, wave_size)
            waves_b = _tenant_waves(bat, rng_b, wave_size)
            outs_a = [seq.process_wave(*w) for w in waves_a]
            outs_b = bat.process_wave_batch(waves_b)
            assert [dataclasses.asdict(o) for o in outs_a] == \
                [dataclasses.asdict(o) for o in outs_b]
        _assert_same_state(seq, bat)

    @given(seed=st.integers(0, 2**12),
           transfer=st.floats(0.05, 0.5), migration=st.floats(0.05, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_sequential_under_faults(self, seed, transfer,
                                                  migration):
        rates = (transfer, migration)
        seq = _tenant_driver(fault_rates=rates, capacity_mb=2,
                             cls=ReferenceDriver)
        bat = _tenant_driver(fault_rates=rates, capacity_mb=2)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for _ in range(4):
            waves_a = _tenant_waves(seq, rng_a, 80)
            waves_b = _tenant_waves(bat, rng_b, 80)
            outs_a = [seq.process_wave(*w) for w in waves_a]
            outs_b = bat.process_wave_batch(waves_b)
            assert [dataclasses.asdict(o) for o in outs_a] == \
                [dataclasses.asdict(o) for o in outs_b]
        _assert_same_state(seq, bat)

    @pytest.mark.parametrize("policy", list(MigrationPolicy))
    def test_batch_equals_sequential_every_policy(self, policy):
        seq = _tenant_driver(policy=policy, cls=ReferenceDriver)
        bat = _tenant_driver(policy=policy)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        for _ in range(6):
            waves_a = _tenant_waves(seq, rng_a, 100)
            waves_b = _tenant_waves(bat, rng_b, 100)
            outs_a = [seq.process_wave(*w) for w in waves_a]
            outs_b = bat.process_wave_batch(waves_b)
            assert [dataclasses.asdict(o) for o in outs_a] == \
                [dataclasses.asdict(o) for o in outs_b]
        _assert_same_state(seq, bat)

    def test_empty_and_overlapping_segments_fall_back(self):
        """Empty waves and waves over overlapping block ranges resolve
        in a batch exactly as one at a time."""
        seq = _tenant_driver(cls=ReferenceDriver)
        bat = _tenant_driver()
        rng = np.random.default_rng(3)
        a0, a1, _ = seq.vas.allocations
        empty = np.empty(0, dtype=np.int64)
        overlap = np.sort(rng.integers(a0.first_page, a1.last_page, 40))
        waves = [
            (np.sort(rng.integers(a0.first_page, a0.last_page, 40)),
             np.zeros(40, dtype=bool), np.ones(40, dtype=np.int64)),
            (empty, np.empty(0, dtype=bool), empty.copy()),
            (overlap, np.ones(40, dtype=bool),
             rng.integers(1, 9, size=40)),
            (np.sort(rng.integers(a1.first_page, a1.last_page, 40)),
             np.zeros(40, dtype=bool), np.ones(40, dtype=np.int64)),
        ]
        outs_a = [seq.process_wave(p.copy(), w.copy(), c.copy())
                  for p, w, c in waves]
        outs_b = bat.process_wave_batch(waves)
        assert [dataclasses.asdict(o) for o in outs_a] == \
            [dataclasses.asdict(o) for o in outs_b]
        _assert_same_state(seq, bat)


# ---------------------------------------------------------------------------
# DRR fairness invariants
# ---------------------------------------------------------------------------

class _StubTenant:
    def __init__(self, tid, throttle_left=0):
        self.id = tid
        self.throttle_left = throttle_left
        self.complete_us = None


class TestDeficitInvariants:
    @given(seed=st.integers(0, 2**16),
           n_tenants=st.integers(1, 12),
           quantum=st.integers(1, 8),
           weights=st.lists(st.floats(0.1, 8.0), max_size=5),
           rounds=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_deficit_always_in_unit_interval(self, seed, n_tenants,
                                             quantum, weights, rounds):
        cfg = ServeConfig(scheduler="drr", weights=tuple(weights),
                          quantum=quantum)
        sched = DeficitRoundRobinScheduler(cfg)
        rng = np.random.default_rng(seed)
        tenants = [_StubTenant(i) for i in range(n_tenants)]
        planned = {t.id: 0 for t in tenants}
        for _ in range(rounds):
            for t in tenants:  # random throttle pattern
                t.throttle_left = int(rng.integers(0, 3))
            for group in sched.plan_round(tenants):
                for tenant, n in group:
                    assert n >= 1
                    planned[tenant.id] += n
            for t in tenants:
                assert 0.0 <= sched.deficit_of(t.id) < 1.0
        # Progress: accrual is strictly positive, so over enough rounds
        # every tenant gets planned at least floor(accrued) waves.
        for t in tenants:
            accrued = sum(
                sched.weight_of(t.id) * quantum for _ in range(rounds))
            assert planned[t.id] >= int(accrued * THROTTLE_DECAY) - rounds

    def test_weighted_share_converges(self):
        """Over many rounds, planned waves split ~ weight share."""
        cfg = ServeConfig(scheduler="drr", weights=(3.0, 1.0), quantum=1)
        sched = DeficitRoundRobinScheduler(cfg)
        tenants = [_StubTenant(0), _StubTenant(1)]
        planned = {0: 0, 1: 0}
        for _ in range(200):
            for group in sched.plan_round(tenants):
                for tenant, n in group:
                    planned[tenant.id] += n
        assert planned[0] == pytest.approx(3 * planned[1], abs=2)

    def test_throttle_decays_instead_of_suspending(self):
        cfg = ServeConfig(scheduler="drr", quantum=2)
        sched = DeficitRoundRobinScheduler(cfg)
        throttled = _StubTenant(0, throttle_left=1)
        free = _StubTenant(1)
        planned = {0: 0, 1: 0}
        for _ in range(50):
            for group in sched.plan_round([throttled, free]):
                for tenant, n in group:
                    planned[tenant.id] += n
        assert 0 < planned[0] < planned[1]
        assert planned[0] == pytest.approx(planned[1] * THROTTLE_DECAY,
                                           abs=2)
