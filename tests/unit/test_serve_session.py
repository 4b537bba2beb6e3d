"""Unit tests for the multi-tenant serving session (``repro serve``)."""

import pytest

from repro.config import ServeConfig
from repro.obs import Observability
from repro.obs.events import (
    RunMeta,
    TenantAdmitted,
    TenantArrival,
    TenantComplete,
    TenantShed,
    TenantThrottled,
)
from repro.obs.inspect import render_summary, summarize
from repro.obs.sinks import RingBufferSink
from repro.obs.timeline import validate_trace
from repro.serve import ServeSession


def run(**kw):
    return ServeSession(ServeConfig(**{"tenants": 4, "seed": 0, **kw})).run()


#: Overload scenario: churn past 1.5x aggregate oversubscription with a
#: short queue, tuned so every degradation stage engages.
OVERLOAD = dict(tenants=10, seed=1, arrival_rate=2000.0, queue_depth=2,
                throttle_watermark=1.0, admit_watermark=1.8,
                shed_watermark=2.0)


class TestLightLoad:
    def test_everyone_completes(self):
        r = run()
        assert r.arrivals == 4
        assert r.completed == 4
        assert r.shed == 0
        assert all(t.complete_us is not None for t in r.tenants)
        assert r.duration_us > 0
        assert r.total_waves > 0

    def test_records_consistent_with_counters(self):
        r = run()
        assert len(r.tenants) == r.arrivals
        assert sum(1 for t in r.tenants if t.shed) == r.shed
        assert sum(t.waves for t in r.tenants) == r.total_waves

    def test_teardown_frees_the_device(self):
        s = ServeSession(ServeConfig(tenants=4, seed=0))
        s.run()
        assert s._driver.device.used_blocks == 0
        assert s._controller.live_blocks == 0

    def test_latency_quantiles_ordered(self):
        r = run()
        for t in r.tenants:
            assert 0 < t.p50_wave_latency_us <= t.p99_wave_latency_us


class TestOverload:
    def test_degrades_in_watermark_order(self):
        """Acceptance: throttle -> queue -> shed, never the reverse."""
        r = run(**OVERLOAD)
        assert r.peak_live_oversubscription >= 1.5
        assert r.shed > 0 and r.queued > 0 and r.throttle_events > 0
        assert r.first_throttle_us is not None
        assert r.first_throttle_us <= r.first_queue_us <= r.first_shed_us

    def test_shed_reasons_are_deterministic_strings(self):
        r = run(**OVERLOAD)
        reasons = {t.shed_reason for t in r.tenants if t.shed}
        assert reasons <= {"watermark", "queue_full"}

    def test_shed_tenants_never_run(self):
        r = run(**OVERLOAD)
        for t in r.tenants:
            if t.shed:
                assert t.waves == 0
                assert t.admitted_us is None
                assert t.complete_us is None

    def test_admitted_tenants_complete(self):
        """No livelock: everything admitted eventually completes."""
        r = run(**OVERLOAD)
        assert r.completed == r.admitted
        assert r.admitted + r.shed == r.arrivals

    def test_decision_order_is_recorded(self):
        r = run(**OVERLOAD)
        assert len(r.decisions) >= r.arrivals
        actions = {d[1] for d in r.decisions}
        assert actions == {"admit", "queue", "shed"}


class TestObservability:
    def _run_with_ring(self, **kw):
        obs = Observability(metrics=None)
        ring = RingBufferSink(65536)
        obs.bus.attach(ring)
        cfg = ServeConfig(**{"tenants": 4, "seed": 0, **kw})
        result = ServeSession(cfg, obs=obs).run()
        return result, list(ring)

    def test_lifecycle_events_emitted(self):
        r, events = self._run_with_ring()
        kinds = {type(e) for e in events}
        assert {RunMeta, TenantArrival, TenantAdmitted,
                TenantComplete} <= kinds
        arrivals = [e for e in events if isinstance(e, TenantArrival)]
        assert len(arrivals) == r.arrivals

    def test_run_meta_names_tenant_allocations(self):
        _, events = self._run_with_ring()
        meta = next(e for e in events if isinstance(e, RunMeta))
        assert meta.workload.startswith("serve:")
        assert all(name.startswith("t") and "/" in name
                   for name, _, _ in meta.allocations)

    def test_shed_and_throttle_events_under_overload(self):
        r, events = self._run_with_ring(**OVERLOAD)
        sheds = [e for e in events if isinstance(e, TenantShed)]
        throttles = [e for e in events if isinstance(e, TenantThrottled)]
        assert len(sheds) == r.shed
        assert len(throttles) == r.throttle_events

    def test_inspect_summarizes_tenants(self):
        r, events = self._run_with_ring()
        s = summarize(events)
        assert len(s.tenants) == r.arrivals
        for rec in r.tenants:
            row = s.tenants[rec.tenant]
            assert row.workload == rec.workload
            assert row.completed == (rec.complete_us is not None)
            assert row.waves == rec.waves
        text = render_summary(s)
        assert "tenants (serve log)" in text
        assert "interference" in text

    def test_inspect_tenant_states(self):
        _, events = self._run_with_ring(**OVERLOAD)
        s = summarize(events)
        states = {row.state for row in s.tenants.values()}
        assert "complete" in states
        assert any(st.startswith("shed:") for st in states)

    @pytest.mark.parametrize("scheduler", ["round_robin", "drr"])
    def test_timeline_spans_name_who_ran(self, scheduler):
        """One ``uvm.batch`` span per driver dispatch names the tenants
        of its waves; together they cover every wave the tenants ran,
        and each wave is one driver wave span closed by a frame."""
        obs = Observability.create(timeline=True)
        cfg = ServeConfig(tenants=4, seed=0, arrival_rate=2000.0,
                          scheduler=scheduler)
        r = ServeSession(cfg, obs=obs).run()
        spans = [e for e in obs.timeline.events
                 if e["ph"] == "B" and e["name"] == "uvm.batch"]
        per_tenant = dict.fromkeys((t.tenant for t in r.tenants), 0)
        for span in spans:
            for tid in span["args"]["tenants"]:
                per_tenant[tid] += 1
        assert per_tenant == {t.tenant: t.waves for t in r.tenants}
        batches = sum(len(span["args"]["tenants"]) > 1 for span in spans)
        assert (batches > 0) is (scheduler == "drr")
        assert obs.timeline.waves == r.total_waves
        assert validate_trace(obs.timeline.trace()) == []

    def test_metrics_gauges_set(self):
        obs = Observability.create(metrics=True)
        r = ServeSession(ServeConfig(tenants=4, seed=0), obs=obs).run()
        snap = obs.metrics.as_dict()
        assert snap["serve.accesses_per_second"]["value"] == pytest.approx(
            r.accesses_per_second)
        assert snap["serve.p99_wave_latency_us"]["value"] == pytest.approx(
            r.p99_wave_latency_us)
        assert snap["serve.shed_rate"]["value"] == pytest.approx(r.shed_rate)
        assert snap["serve.waves"]["value"] == r.total_waves


class TestLiveTelemetry:
    SLO = None  # set lazily to keep the import local to the class

    def _slo(self):
        from repro.obs.live import SloConfig
        return SloConfig(p99_latency_us=300.0, latency_attainment=0.95,
                         max_shed_rate=0.1)

    def test_back_to_back_serves_reset_serve_metrics(self):
        """Satellite contract: one registry, two serves, no stale rows."""
        obs = Observability.create(metrics=True)
        ServeSession(ServeConfig(**OVERLOAD), obs=obs,
                     slo=self._slo()).run()
        first = {k: v for k, v in obs.metrics.as_dict().items()
                 if k.startswith("serve.")}
        assert any(k.startswith("serve.tenant.") for k in first)
        ServeSession(ServeConfig(tenants=2, seed=3), obs=obs).run()
        second = {k: v for k, v in obs.metrics.as_dict().items()
                  if k.startswith("serve.")}
        # The second (2-tenant, SLO-free) serve re-creates its own
        # rows but must not inherit the overload run's: no tenant ids
        # beyond its own two, no SLO gauges, no alert counters.
        assert not any(k.startswith(f"serve.tenant.{tid}.")
                       for k in second for tid in range(2, 10))
        assert not any(k.endswith(".slo_attainment") for k in second)
        assert not any(k.startswith("serve.alert.") for k in second)
        assert second["serve.alerts_fired"]["value"] == 0
        assert second["serve.waves"]["value"] > 0

    def test_result_rolls_up_violations_and_alerts(self):
        obs = Observability(metrics=None)
        ring = RingBufferSink(65536)
        obs.bus.attach(ring)
        r = ServeSession(ServeConfig(**OVERLOAD), obs=obs,
                         slo=self._slo()).run()
        events = list(ring)
        violations = [e for e in events if e.kind == "slo_violation"]
        firing = [e for e in events
                  if e.kind == "alert_fired" and e.state == "firing"]
        assert r.slo_violations == len(violations) > 0
        assert r.alerts_fired == len(firing) > 0
        windows = [e for e in events if e.kind == "telemetry_window"]
        assert windows and all(w.window_us == 5000.0 for w in windows)

    @pytest.mark.parametrize("with_slo", [False, True],
                             ids=["no-slo", "slo"])
    def test_windows_close_when_their_tenant_completes(self, with_slo):
        """No window of a tenant starts after its completion, and its
        windows together hold every wave and access it ran: the last
        one closes at completion, with or without an SLO."""
        obs = Observability(metrics=None)
        ring = RingBufferSink(65536)
        obs.bus.attach(ring)
        r = ServeSession(ServeConfig(**OVERLOAD), obs=obs,
                         slo=self._slo() if with_slo else None).run()
        events = list(ring)
        assert ring.total_written == len(events)
        done = {e.tenant: e for e in events if e.kind == "tenant_complete"}
        waves = dict.fromkeys(done, 0)
        accesses = dict.fromkeys(done, 0)
        for w in (e for e in events if e.kind == "telemetry_window"):
            assert w.start_us <= done[w.tenant].at_us, (w.tenant, w.start_us)
            waves[w.tenant] += w.waves
            accesses[w.tenant] += w.accesses
        assert waves == {tid: e.waves for tid, e in done.items()}
        assert accesses == {t.tenant: t.accesses for t in r.tenants
                            if t.tenant in done}

    def test_latency_series_end_when_their_tenant_completes(self):
        """A tenant's EWMA latency series gets no point after its
        completion: its windows are closed, so a later point would
        only repeat the frozen value."""
        obs = Observability.create(metrics=True)
        r = ServeSession(ServeConfig(**OVERLOAD), obs=obs,
                         slo=self._slo()).run()
        snap = obs.metrics.as_dict()
        done = [t for t in r.tenants if t.complete_us is not None]
        assert done
        for t in done:
            series = snap.get(f"serve.tenant.{t.tenant}.ewma_latency_us")
            if series is None:
                continue
            assert series["points"]
            assert all(x <= t.complete_us for x, _ in series["points"]), \
                t.tenant
        # finish() still reports every tenant's attainment.
        assert all(f"serve.tenant.{t.tenant}.slo_attainment" in snap
                   for t in done)

    def test_invalid_slo_rejected_eagerly(self):
        from repro.obs.live import SloConfig
        with pytest.raises(ValueError, match="invalid SLO config"):
            ServeSession(ServeConfig(tenants=2, seed=0),
                         slo=SloConfig(p99_latency_us=-5.0))

    def test_slo_without_obs_still_counts(self):
        """The SLO engine works with no sinks attached at all."""
        r = ServeSession(ServeConfig(**OVERLOAD), slo=self._slo()).run()
        assert r.slo_violations > 0

    def test_bare_session_counts_its_default_alerts(self):
        """Nothing attached, the hub still runs the default alert rules:
        ``alerts_fired`` equals the ``firing`` AlertFired events a ring
        buffer records in the same session, and no SLO means no
        violations."""
        bare = run(**OVERLOAD)
        obs = Observability()
        ring = RingBufferSink(65536)
        obs.bus.attach(ring)
        wired = ServeSession(ServeConfig(**OVERLOAD), obs=obs).run()
        firing = [e for e in ring
                  if e.kind == "alert_fired" and e.state == "firing"]
        assert bare.alerts_fired == len(firing) > 0
        assert wired.as_dict() == bare.as_dict()
        assert bare.slo_violations == 0


class TestResultEncoding:
    def test_as_dict_is_json_safe(self):
        import json
        d = run().as_dict()
        json.dumps(d)  # must not raise
        assert d["config"]["tenants"] == 4
        assert len(d["tenants"]) == d["arrivals"]
        assert d["slo_violations"] == 0 and d["alerts_fired"] == 0

    def test_driver_totals_included(self):
        d = run().as_dict()
        assert "thrash_migrations" in d["driver_totals"]
        assert "evicted_blocks" in d["driver_totals"]
