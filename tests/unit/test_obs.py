"""Unit tests for the observability layer (events, bus, sinks, metrics,
span recorder)."""

import json

import pytest

from repro.obs import (
    AlertFired,
    CounterHalving,
    EventBus,
    Eviction,
    FaultRetry,
    JsonlSink,
    MetricsRegistry,
    MetricsSink,
    MigrationDecision,
    NullSink,
    Observability,
    PrefetchExpand,
    RingBufferSink,
    RunMeta,
    SloAttainment,
    SloViolation,
    SpanRecorder,
    TelemetryWindow,
    TenantAdmitted,
    TenantArrival,
    TenantComplete,
    TenantSched,
    TenantShed,
    TenantThrottled,
)
from repro.obs.events import EVENT_TYPES, from_dict


def _decision(wave=0, block=1, threshold=8, counter=3, accesses=2,
              migrated=True):
    return MigrationDecision(wave=wave, block=block, threshold=threshold,
                             counter=counter, accesses=accesses,
                             migrated=migrated)


class TestEvents:
    def test_as_dict_tags_kind(self):
        d = _decision().as_dict()
        assert d["event"] == "migration_decision"
        assert d["block"] == 1 and d["migrated"] is True

    def test_round_trip_every_type(self):
        samples = [
            RunMeta(workload="ra", policy="adaptive", seed=0,
                    total_blocks=32, capacity_blocks=16,
                    allocations=(("a", 0, 16), ("b", 16, 32))),
            _decision(),
            Eviction(wave=3, chunk=2, blocks=32, dirty_blocks=4,
                     whole_chunk=True),
            CounterHalving(wave=5, field="counts", halvings=1),
            FaultRetry(wave=6, block=9, failures=2, degraded=False),
            PrefetchExpand(wave=7, chunk=1, fault_block=33, blocks=8),
            TenantArrival(tenant=0, workload="ra", at_us=12.5,
                          footprint_mb=16.0),
            TenantAdmitted(tenant=0, at_us=13.0, queued_us=0.5,
                           live_oversubscription=1.2),
            TenantShed(tenant=1, at_us=20.0, reason="queue_full",
                       live_oversubscription=1.7),
            TenantThrottled(tenant=2, at_us=25.0, rounds=8,
                            thrash_migrations=40),
            TenantComplete(tenant=0, at_us=99.0, waves=64,
                           freed_blocks=256, writeback_blocks=12,
                           p99_wave_latency_us=410.0,
                           thrash_migrations=3, cross_evictions=7),
            TenantSched(tenant=0, at_us=99.0, weight=2.0, deficit=0.25,
                        waves=64, batched_waves=48),
            TelemetryWindow(tenant=0, start_us=0.0, window_us=5000.0,
                            waves=8, accesses=4096, mean_latency_us=88.0,
                            max_latency_us=410.0, bad_waves=1,
                            ewma_latency_us=92.5, thrash_rate=0.75),
            SloViolation(tenant=0, at_us=5000.0, objective="p99_latency",
                         burn_fast=4.0, burn_slow=2.5, value=410.0,
                         target=300.0),
            SloAttainment(tenant=-1, at_us=9000.0, objective="shed_rate",
                          attainment=0.85, target=0.9, met=False),
            AlertFired(name="thrash_pressure", at_us=6000.0, tenant=-1,
                       metric="serve.thrash_per_wave", value=0.9,
                       threshold=0.25, state="firing"),
        ]
        assert {type(s) for s in samples} == set(EVENT_TYPES.values())
        for event in samples:
            # through JSON, as the JsonlSink writes it
            row = json.loads(json.dumps(event.as_dict()))
            assert from_dict(row) == event

    def test_from_dict_ignores_unknown_fields(self):
        row = _decision().as_dict()
        row["extra_field_from_the_future"] = 42
        assert from_dict(row) == _decision()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event"):
            from_dict({"event": "nosuch"})

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            _decision().block = 7


class TestEventBus:
    def test_disabled_until_first_attach(self):
        bus = EventBus()
        assert not bus.enabled
        bus.attach(NullSink())
        assert bus.enabled

    def test_emit_fans_out_in_order(self):
        bus = EventBus()
        seen = []
        for tag in ("a", "b"):
            class S(NullSink):
                def __init__(self, tag):
                    self.tag = tag

                def write(self, event):
                    seen.append(self.tag)
            bus.attach(S(tag))
        bus.emit(_decision())
        assert seen == ["a", "b"]

    def test_close_closes_sinks(self, tmp_path):
        bus = EventBus()
        sink = JsonlSink(tmp_path / "e.jsonl")
        bus.attach(sink)
        bus.emit(_decision())
        bus.close()
        assert json.loads((tmp_path / "e.jsonl").read_text())["block"] == 1


class TestSinks:
    def test_null_sink_discards(self):
        sink = NullSink()
        sink.write(_decision())  # no state, no error

    def test_ring_buffer_keeps_newest(self):
        sink = RingBufferSink(capacity=3)
        for b in range(5):
            sink.write(_decision(block=b))
        assert sink.total_written == 5
        assert len(sink) == 3
        assert [e.block for e in sink.events] == [2, 3, 4]
        sink.clear()
        assert len(sink) == 0 and sink.total_written == 5

    def test_jsonl_sink_one_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        events = [_decision(block=b) for b in range(4)]
        for e in events:
            sink.write(e)
        sink.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [from_dict(r) for r in rows] == events

    def test_jsonl_sink_flush_every_makes_log_tailable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, flush_every=2)
        events = [_decision(block=b) for b in range(5)]
        for e in events:
            sink.write(e)
        # 4 of 5 events flushed (two batches of 2); sink still open.
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) >= 4
        sink.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [from_dict(r) for r in rows] == events

    def test_jsonl_sink_flush_every_rejects_gzip(self, tmp_path):
        with pytest.raises(ValueError, match="gzip"):
            JsonlSink(tmp_path / "events.jsonl.gz", flush_every=1)

    def test_jsonl_sink_flush_every_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "events.jsonl", flush_every=0)

    def test_metrics_sink_rollup(self):
        reg = MetricsRegistry()
        sink = MetricsSink(reg)
        sink.write(_decision(threshold=4, migrated=True))
        sink.write(_decision(threshold=16, migrated=False))
        sink.write(Eviction(wave=1, chunk=0, blocks=32, dirty_blocks=5,
                            whole_chunk=True))
        sink.write(CounterHalving(wave=1, field="counts", halvings=1))
        sink.write(CounterHalving(wave=2, field="roundtrips", halvings=1))
        sink.write(FaultRetry(wave=1, block=3, failures=2, degraded=True))
        sink.write(PrefetchExpand(wave=1, chunk=1, fault_block=40, blocks=8))
        m = reg.as_dict()
        assert m["driver.decisions.migrate"]["value"] == 1
        assert m["driver.decisions.remote"]["value"] == 1
        assert m["driver.threshold"]["count"] == 2
        assert m["driver.evictions"]["value"] == 1
        assert m["driver.evicted_blocks"]["value"] == 32
        assert m["driver.writeback_blocks"]["value"] == 5
        assert m["driver.counter_halvings.counts"]["value"] == 1
        assert m["driver.counter_halvings.roundtrips"]["value"] == 1
        assert m["driver.fault_retries"]["value"] == 2
        assert m["driver.degraded_migrations"]["value"] == 1
        assert m["driver.prefetch_expansions"]["value"] == 1
        assert m["driver.prefetched_blocks"]["value"] == 8


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("g")
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_buckets_and_stats(self):
        h = MetricsRegistry().histogram("h")
        for v in (0, 1, 2, 3, 8, 100):
            h.observe(v)
        assert h.count == 6
        assert h.total == 114
        assert h.min == 0 and h.max == 100
        assert h.mean == pytest.approx(19.0)
        d = h.as_dict()
        # bucket 0 holds exactly the zeros; upper edges are powers of two
        assert d["buckets"]["0"] == 1
        assert sum(d["buckets"].values()) == 6

    def test_histogram_bucket_edges(self):
        h = MetricsRegistry().histogram("h")
        for v in (1, 2, 3, 4):
            h.observe(v)
        # layout: bucket 1 is exactly 1, bucket i >= 2 covers
        # (2**(i-2), 2**(i-1)] -- so 2 -> bucket 2, {3, 4} -> bucket 3
        assert h.buckets == {1: 1, 2: 1, 3: 2}
        assert h.bucket_label(3) == "(2, 4]"

    def test_quantile_degenerate_buckets_are_exact(self):
        h = MetricsRegistry().histogram("h")
        for v in (0, 0, 0, 1):
            h.observe(v)
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 1.0

    def test_quantile_interpolates_and_clamps(self):
        h = MetricsRegistry().histogram("h")
        for v in (3, 3, 3, 3):
            h.observe(v)  # all in bucket (2, 4]
        # interpolation happens inside the bucket but never escapes the
        # exact observed [min, max] envelope
        for q in (0.0, 0.25, 0.5, 1.0):
            assert h.quantile(q) == 3.0

    def test_quantile_orders_buckets(self):
        h = MetricsRegistry().histogram("h")
        for v in (1,) * 90 + (100,) * 10:
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) > 1.0
        assert h.quantile(0.99) <= 100.0

    def test_quantile_edge_cases(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) is None  # empty
        with pytest.raises(ValueError):
            h.quantile(1.5)
        h.observe(7)
        assert h.quantile(0.0) == 7.0 and h.quantile(1.0) == 7.0
        d = h.as_dict()
        assert d["p50"] == 7.0 and d["p90"] == 7.0 and d["p99"] == 7.0

    def test_series_decimation_bounds_memory(self):
        s = MetricsRegistry().series("s", capacity=8)
        for i in range(1000):
            s.append(float(i), float(i * 2))
        assert len(s.points) <= 8
        xs = [p[0] for p in s.points]
        assert xs == sorted(xs)
        # decimated points are a subset of the appended ones
        assert all(y == 2 * x for x, y in s.points)

    def test_registry_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        with pytest.raises(TypeError):
            reg.histogram("n")

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.histogram("b").observe(7)
        path = tmp_path / "m.json"
        reg.write_json(path)
        data = json.loads(path.read_text())
        assert data["a"]["value"] == 3
        assert data["b"]["count"] == 1

    def test_reset_prefix_is_selective(self):
        reg = MetricsRegistry()
        reg.counter("serve.waves").inc(10)
        reg.counter("serve.tenant.0.x").inc(1)
        reg.counter("driver.evictions").inc(2)
        reg.reset_prefix("serve.")
        snap = reg.as_dict()
        assert "serve.waves" not in snap
        assert "serve.tenant.0.x" not in snap
        assert snap["driver.evictions"]["value"] == 2

    def test_reset_orphans_cached_metric_objects(self):
        """The documented sharp edge: cached handles detach on reset."""
        reg = MetricsRegistry()
        cached = reg.counter("serve.n")
        cached.inc(5)
        reg.reset_prefix("serve.")
        cached.inc(1)  # mutates the orphan, not the registry
        assert reg.counter("serve.n").value == 0


def _clock(times):
    """An injected clock returning ``times`` one read at a time."""
    return iter(times).__next__


class TestProfiler:
    def test_span_accumulates(self):
        # One clock tick per read: an outer span holding two inner
        # spans lasts 5 ticks, 2 of them in its children.
        prof = SpanRecorder(clock=_clock(range(100)))
        inner = prof.wrap("inner", lambda: None)
        outer = prof.wrap("outer", lambda: (inner(), inner()))
        for _ in range(3):
            outer()
        assert prof.spans == {"inner": [6.0, 6], "outer": [9.0, 3]}
        assert prof.root_s == 15.0

    def test_wrap_preserves_return_value(self):
        prof = SpanRecorder()
        timed = prof.wrap("f", lambda a, b: a + b)
        assert timed(2, 3) == 5
        assert prof.spans["f"][1] == 1

        def fail():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            prof.wrap("g", fail)()
        # the failed span closed, so the next one is a root again
        assert prof.spans["g"][1] == 1
        timed(1, 1)
        assert prof.spans["f"][1] == 2
        assert sum(sec for sec, _ in prof.spans.values()) == \
            pytest.approx(prof.root_s)

    def test_steps_time_each_next_not_the_consumer(self):
        # One clock tick per read: each step and each work call lasts 1.
        prof = SpanRecorder(clock=_clock(range(100)))
        work = prof.wrap("work", lambda item: item)
        outer = prof.wrap("outer", lambda: [work(item) for item
                                            in prof.steps("gen", "ab")])
        assert outer() == ["a", "b"]
        # Three steps: the last one ends the iteration.
        assert prof.spans == {"work": [2.0, 2], "gen": [3.0, 3],
                              "outer": [6.0, 1]}
        assert prof.root_s == 11.0

    def test_install_patches_one_instance(self):
        class Box:
            def get(self, x):
                return x + 1

        prof = SpanRecorder()
        timed, bare = Box(), Box()
        prof.install(timed, {"get": "box.get"})
        assert timed.get(1) == 2 and bare.get(1) == 2
        assert prof.spans["box.get"][1] == 1
        assert "get" not in vars(bare)

    def test_render_lists_heaviest_first(self):
        prof = SpanRecorder(clock=_clock([0.0, 1.0, 1.0, 11.0]))
        prof.wrap("light", lambda: None)()
        prof.wrap("heavy", lambda: None)()
        prof.wrap("idle", lambda: None)
        text = prof.render()
        assert text.index("heavy") < text.index("light") < text.index("idle")
        assert "90.91%" in text and "9.09%" in text
        assert "11.0000 s in root spans" in text


class TestObservabilityFacade:
    def test_create_wires_everything(self, tmp_path):
        path = tmp_path / "e.jsonl"
        obs = Observability.create(events_path=path, metrics=True,
                                   profile=True)
        assert obs.bus.enabled
        assert obs.metrics is not None and obs.profiler is not None
        obs.bus.emit(_decision())
        obs.close()
        assert path.exists()
        assert obs.metrics.as_dict()["driver.decisions.migrate"]["value"] == 1

    def test_default_is_disabled(self):
        obs = Observability()
        assert not obs.bus.enabled
        assert obs.metrics is None and obs.profiler is None
