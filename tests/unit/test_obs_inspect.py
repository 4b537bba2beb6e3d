"""Unit tests for event-log post-mortem analysis (``repro inspect``)."""

import json

from repro.obs import JsonlSink, MigrationDecision, RunMeta
from repro.obs.events import Eviction, FaultRetry
from repro.obs.inspect import (
    AllocationTrend,
    iter_events,
    render_summary,
    summarize,
)

META = RunMeta(workload="ra", policy="adaptive", seed=0, total_blocks=64,
               capacity_blocks=32,
               allocations=(("ra.a", 0, 32), ("ra.b", 32, 64)))


def _decisions():
    """A small synthetic run: block 5 thrashes, block 40 migrates once."""
    events = [META]
    for wave in range(4):
        events.append(MigrationDecision(wave=wave, block=5, threshold=wave + 1,
                                        counter=9, accesses=3, migrated=True))
    events.append(MigrationDecision(wave=1, block=40, threshold=2, counter=1,
                                    accesses=1, migrated=True))
    events.append(MigrationDecision(wave=2, block=41, threshold=4, counter=1,
                                    accesses=1, migrated=False))
    events.append(Eviction(wave=2, chunk=0, blocks=32, dirty_blocks=6,
                           whole_chunk=True))
    events.append(FaultRetry(wave=3, block=5, failures=2, degraded=True))
    return events


class TestSummarize:
    def test_counts_and_totals(self):
        s = summarize(_decisions())
        assert s.meta == META
        assert s.event_counts["migration_decision"] == 6
        assert s.evicted_blocks == 32
        assert s.writeback_blocks == 6
        assert s.fault_retries == 2
        assert s.degraded_migrations == 1

    def test_top_thrashing_attributes_allocation(self):
        s = summarize(_decisions())
        top = s.top_thrashing_blocks()
        assert len(top) == 1  # only block 5 migrated more than once
        assert top[0]["block"] == 5
        assert top[0]["allocation"] == "ra.a"
        assert top[0]["migrations"] == 4
        assert top[0]["round_trips"] == 3
        assert top[0]["last_threshold"] == 4

    def test_allocation_of_unknown_block(self):
        s = summarize(_decisions())
        assert s.allocation_of(40) == "ra.b"
        assert s.allocation_of(999) == "?"

    def test_from_jsonl_path(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlSink(path)
        for ev in _decisions():
            sink.write(ev)
        sink.close()
        s = summarize(path)
        assert s.event_counts == summarize(_decisions()).event_counts

    def test_iter_events_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        rows = [json.dumps(ev.as_dict()) for ev in _decisions()]
        text = rows[0] + "\n\n" + rows[1] + "\n" + rows[2][: len(rows[2]) // 2]
        path.write_text(text)
        events = list(iter_events(path))
        assert len(events) == 2  # torn tail and blank line dropped


class TestAllocationTrend:
    def test_trajectory_is_mean_per_bucket(self):
        t = AllocationTrend("a", 0, 32)
        for wave, td in ((0, 2), (0, 4), (1, 8)):
            t.observe(MigrationDecision(wave=wave, block=1, threshold=td,
                                        counter=0, accesses=1, migrated=True))
        traj = t.trajectory(buckets=2)
        assert traj == [3.0, 8.0]

    def test_sparkline_rises_with_threshold(self):
        t = AllocationTrend("a", 0, 32)
        for wave in range(8):
            t.observe(MigrationDecision(wave=wave, block=1,
                                        threshold=2 ** wave, counter=0,
                                        accesses=1, migrated=False))
        spark = t.sparkline()
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_empty_trend(self):
        t = AllocationTrend("a", 0, 32)
        assert t.trajectory() == [] and t.sparkline() == ""


def _telemetry_events():
    """A serve log slice exercising the live-telemetry event kinds."""
    from repro.obs.events import (AlertFired, SloAttainment, SloViolation,
                                  TelemetryWindow, TenantArrival,
                                  TenantComplete)
    return [
        META,
        TenantArrival(tenant=0, workload="ra", at_us=0.0,
                      footprint_mb=16.0),
        TelemetryWindow(tenant=0, start_us=0.0, window_us=5000.0,
                        waves=10, accesses=5120, mean_latency_us=90.0,
                        max_latency_us=350.0, bad_waves=3,
                        ewma_latency_us=96.5, thrash_rate=1.25),
        TelemetryWindow(tenant=0, start_us=5000.0, window_us=5000.0,
                        waves=6, accesses=3072, mean_latency_us=80.0,
                        max_latency_us=120.0, bad_waves=0,
                        ewma_latency_us=84.2, thrash_rate=0.5),
        SloViolation(tenant=0, at_us=5000.0, objective="p99_latency",
                     burn_fast=4.0, burn_slow=2.1, value=350.0,
                     target=300.0),
        SloViolation(tenant=-1, at_us=5500.0, objective="shed_rate",
                     burn_fast=9.0, burn_slow=5.0, value=0.4, target=0.1),
        AlertFired(name="hot", at_us=6000.0, tenant=0,
                   metric="tenant.ewma_latency_us", value=96.5,
                   threshold=90.0, state="firing"),
        AlertFired(name="hot", at_us=7000.0, tenant=0,
                   metric="tenant.ewma_latency_us", value=84.2,
                   threshold=90.0, state="resolved"),
        SloAttainment(tenant=0, at_us=9000.0, objective="p99_latency",
                      attainment=0.812, target=0.95, met=False),
        TenantComplete(tenant=0, at_us=9000.0, waves=16, freed_blocks=256,
                       writeback_blocks=4, p99_wave_latency_us=350.0),
        SloAttainment(tenant=-1, at_us=9500.0, objective="shed_rate",
                      attainment=0.6, target=0.9, met=False),
    ]


class TestTelemetrySummaries:
    def test_tenant_rows_fold_in_live_telemetry(self):
        s = summarize(_telemetry_events())
        t = s.tenants[0]
        assert t.windows == 2
        assert t.ewma_latency_us == 84.2  # last window wins
        assert t.thrash_rate == 0.5
        assert t.slo_violations == 1
        assert t.slo_attainment == 0.812
        assert t.slo_met is False
        assert t.alerts == 1  # firing transitions only

    def test_service_level_rollups(self):
        s = summarize(_telemetry_events())
        assert s.service_slo_violations == 1
        assert s.alert_counts == {"hot": 1}
        assert s.service_attainment == {"shed_rate": (0.6, False)}

    def test_round_trips_through_jsonl(self, tmp_path):
        """Satellite contract: inspect columns survive a log round-trip."""
        path = tmp_path / "serve.jsonl"
        sink = JsonlSink(path)
        for ev in _telemetry_events():
            sink.write(ev)
        sink.close()
        direct = summarize(_telemetry_events())
        loaded = summarize(path)
        assert loaded.event_counts == direct.event_counts
        assert loaded.tenants[0] == direct.tenants[0]
        assert loaded.alert_counts == direct.alert_counts
        assert loaded.service_attainment == direct.service_attainment
        assert render_summary(loaded) == render_summary(direct)

    def test_render_shows_slo_columns_and_alert_section(self):
        text = render_summary(summarize(_telemetry_events()))
        assert "slo att" in text and "alerts" in text
        assert "0.812 MISS" in text
        assert "live telemetry" in text
        assert "hotx1" in text
        assert "shed_rate" in text


class TestRender:
    def test_render_mentions_key_sections(self):
        text = render_summary(summarize(_decisions()))
        assert "ra / adaptive" in text
        assert "top thrashing blocks" in text
        assert "ra.a" in text and "ra.b" in text
        assert "threshold trajectory" in text

    def test_render_without_meta(self):
        events = [ev for ev in _decisions() if not isinstance(ev, RunMeta)]
        text = render_summary(summarize(events))
        assert "no run_meta header" in text

    def test_log_with_retired_shards_field_still_summarizes(self, tmp_path):
        """Logs written while RunMeta still carried ``backend`` and
        ``shards`` decode (the retired keys are ignored) and render a
        normal header."""
        path = tmp_path / "old.jsonl"
        rows = [ev.as_dict() for ev in _decisions()]
        rows[0] = dict(rows[0], backend="python", shards=4)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        summary = summarize(path)
        assert summary.meta == META
        text = render_summary(summary)
        assert "ra / adaptive" in text
        assert "shards" not in text and "backend" not in text

    def test_log_with_retired_batched_waves_still_renders(self, tmp_path):
        """Serve logs written while TenantSched still carried
        ``batched_waves`` decode (the retired key is ignored) and render
        the fair-scheduler table."""
        from repro.obs.events import TenantComplete, TenantSched
        rows = [ev.as_dict() for ev in (
            TenantComplete(tenant=3, at_us=99.0, waves=64, freed_blocks=8,
                           writeback_blocks=1, p99_wave_latency_us=410.0),
            TenantSched(tenant=3, at_us=99.0, weight=2.0, deficit=0.25,
                        waves=64))]
        rows[1]["batched_waves"] = 48
        path = tmp_path / "old-serve.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        events = list(iter_events(path))
        assert events[1] == TenantSched(tenant=3, at_us=99.0, weight=2.0,
                                        deficit=0.25, waves=64)
        summary = summarize(path)
        row = summary.tenants[3]
        assert row.sched_seen and row.weight == 2.0 and row.waves == 64
        text = render_summary(summary)
        assert "fair scheduler: weights and carried deficit" in text
        assert "batched" not in text
