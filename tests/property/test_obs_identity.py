"""Observability bit-identity: instrumentation must never change results.

The contract the whole ``repro.obs`` layer rests on: event emission and
metric rollup are read-only over simulator state and touch no RNG
stream, and spans only time calls, so a run with a full observability
handle attached (null sink, ring buffer, metrics, span profiler,
timeline) is **bit-identical** to a run with no observability wired at
all.  These properties pin that, end-to-end through ``Simulator`` and
at the driver level under randomized traffic.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MigrationPolicy, SimulationConfig
from repro.obs import MetricsSink, NullSink, Observability, RingBufferSink
from repro.sim.simulator import Simulator
from repro.uvm.driver import UvmDriver
from repro.workloads import make_workload

from tests.conftest import make_driver, make_vas
from tests.oracle import ReferenceDriver

policies = st.sampled_from(list(MigrationPolicy))


def _full_obs() -> Observability:
    """A handle exercising every facility at once."""
    obs = Observability.create(metrics=True, profile=True, timeline=True)
    obs.bus.attach(RingBufferSink(capacity=64))
    obs.bus.attach(NullSink())
    return obs


def _run(workload, policy, obs=None):
    cfg = SimulationConfig().with_policy(MigrationPolicy(policy))
    return Simulator(cfg).run(make_workload(workload, scale="tiny"),
                              oversubscription=1.5, obs=obs)


def _result_fields(result) -> dict:
    return {
        "total_cycles": result.total_cycles,
        "events": dataclasses.asdict(result.events),
        "timing": dataclasses.asdict(result.timing),
        "thrashed": result.unique_thrashed_blocks,
    }


@pytest.mark.parametrize("policy", [p.value for p in MigrationPolicy])
def test_simulator_identical_with_null_sink(policy):
    plain = _run("bfs", policy)
    instrumented = _run("bfs", policy, obs=_full_obs())
    assert _result_fields(plain) == _result_fields(instrumented)


def test_simulator_identical_with_jsonl_and_metrics(tmp_path):
    obs = Observability.create(events_path=tmp_path / "e.jsonl",
                               metrics=True, profile=True)
    plain = _run("sssp", "adaptive")
    instrumented = _run("sssp", "adaptive", obs=obs)
    obs.close()
    assert _result_fields(plain) == _result_fields(instrumented)
    assert (tmp_path / "e.jsonl").stat().st_size > 0


def test_simulator_identical_with_timeline(tmp_path):
    """The Chrome-trace recorder is read-only over simulation state."""
    from repro.obs import validate_trace

    obs = Observability.create(timeline=True, metrics=True)
    plain = _run("bfs", "adaptive")
    instrumented = _run("bfs", "adaptive", obs=obs)
    obs.close()
    assert _result_fields(plain) == _result_fields(instrumented)
    trace = obs.timeline.trace()
    assert validate_trace(trace) == []
    assert obs.timeline.waves > 0
    # one frame per driver wave span
    assert obs.timeline.waves == obs.profiler.spans["uvm.driver"][1]
    assert trace["otherData"]["workload"] == "bfs"


def test_simulator_identical_when_archived(tmp_path):
    """Streaming the event log into an archive slot changes nothing."""
    from repro.analysis.checkpoint import encode_config
    from repro.obs import JsonlSink
    from repro.obs.store import RunManifest, RunStore

    cfg = SimulationConfig().with_policy(MigrationPolicy.ADAPTIVE)
    store = RunStore(tmp_path)
    writer = store.open_run(RunManifest.create(
        kind="run", workload="sssp", policy="adaptive", scale="tiny",
        seed=cfg.seed, oversubscription=1.5, config=encode_config(cfg)))
    obs = Observability.create(metrics=True)
    obs.bus.attach(JsonlSink(writer.events_path))

    plain = _run("sssp", "adaptive")
    instrumented = _run("sssp", "adaptive", obs=obs)
    obs.close()
    run_id = writer.commit(instrumented, metrics=obs.metrics.as_dict())
    assert _result_fields(plain) == _result_fields(instrumented)
    # and the archived copy round-trips to the same result fields
    assert _result_fields(store.load(run_id).result) == \
        _result_fields(plain)


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 8))
    wave_size = draw(st.integers(1, 200))
    return seed, n_waves, wave_size


@given(policies, traffic())
@settings(max_examples=40, deadline=None)
def test_driver_identical_under_random_traffic(policy, t):
    """Driver-level identity, including eviction-heavy random traffic."""
    seed, n_waves, wave_size = t
    plain = make_driver(make_vas(4, 8), policy, capacity_mb=6)
    instrumented = make_driver(make_vas(4, 8), policy, capacity_mb=6,
                               obs=_full_obs())

    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in plain.vas.allocations])
    for _ in range(n_waves):
        pages = rng_a.choice(alloc_pages, size=wave_size)
        writes = rng_a.random(wave_size) < 0.4
        counts = rng_a.integers(1, 50, size=wave_size)
        out_p = plain.process_wave(pages, writes, counts)
        pages_b = rng_b.choice(alloc_pages, size=wave_size)
        writes_b = rng_b.random(wave_size) < 0.4
        counts_b = rng_b.integers(1, 50, size=wave_size)
        out_i = instrumented.process_wave(pages_b, writes_b, counts_b)
        assert dataclasses.asdict(out_p) == dataclasses.asdict(out_i)
    plain.check_consistency()
    instrumented.check_consistency()


def test_event_stream_drain_equivalent():
    """Batched and scalar (reference-driver) drains emit the same events."""
    streams = []
    for cls in (UvmDriver, ReferenceDriver):
        obs = Observability()
        ring = RingBufferSink(capacity=100_000)
        obs.bus.attach(ring)
        drv = make_driver(make_vas(4, 8), MigrationPolicy.ADAPTIVE,
                          capacity_mb=6, driver_cls=cls, obs=obs)
        rng = np.random.default_rng(7)
        alloc_pages = np.concatenate([
            np.arange(a.first_page, a.last_page)
            for a in drv.vas.allocations])
        for _ in range(6):
            pages = rng.choice(alloc_pages, size=150)
            writes = rng.random(150) < 0.4
            counts = rng.integers(1, 50, size=150)
            drv.process_wave(pages, writes, counts)
        streams.append(ring.events)
    batched_events, scalar_events = streams
    # Same multiset of events; ordering within a wave's drain may differ
    # between the chunk-grouped and per-block code paths.
    assert sorted(map(repr, batched_events)) == sorted(map(repr,
                                                           scalar_events))


def test_metrics_sink_matches_event_stream():
    """The metric rollup agrees with counting the raw event stream."""
    from repro.obs import MetricsRegistry, MigrationDecision

    obs = Observability()
    ring = RingBufferSink(capacity=100_000)
    reg = MetricsRegistry()
    obs.bus.attach(ring)
    obs.bus.attach(MetricsSink(reg))
    drv = make_driver(make_vas(4, 8), MigrationPolicy.ADAPTIVE,
                      capacity_mb=6, obs=obs)
    rng = np.random.default_rng(11)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in drv.vas.allocations])
    for _ in range(5):
        pages = rng.choice(alloc_pages, size=120)
        writes = rng.random(120) < 0.4
        counts = rng.integers(1, 50, size=120)
        drv.process_wave(pages, writes, counts)
    decisions = [e for e in ring if type(e) is MigrationDecision]
    migrated = sum(1 for e in decisions if e.migrated)
    m = reg.as_dict()
    assert m["driver.decisions.migrate"]["value"] == migrated
    assert m["driver.decisions.remote"]["value"] == len(decisions) - migrated
    assert m["driver.threshold"]["count"] == len(decisions)
