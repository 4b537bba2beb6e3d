"""The live telemetry hub: windows + SLOs + alerts for one serve run.

Every :class:`~repro.serve.session.ServeSession` builds one
:class:`LiveTelemetry` and feeds it, whatever is attached: the alert
rules are always :func:`default_rules`, and ``alerts_fired`` in the
result counts what they fired.  The exporters only read the hub: an
enabled event bus receives its window, SLO and alert events, and a
metrics registry its series and rollups.  ``--live-admission`` is the
one consumer that feeds back into the schedule, through
:meth:`LiveTelemetry.interference` and :meth:`LiveTelemetry.thrash_rate`.

The session feeds the hub three kinds of input, all already-computed
simulated quantities:

* per-wave observations (``on_wave``) land in per-tenant tumbling
  latency/work windows;
* admission lifecycle hooks (``on_arrival``/``on_complete``) feed the
  service-level shed window and the SLO attainment bookkeeping, and a
  completion closes the tenant's windows;
* a per-scheduler-round ``tick`` carrying the live oversubscription and
  the attribution arrays, from which the hub derives windowed
  interference rates (EWMA thrash migrations per wave) and runs SLO
  burn-rate plus alert-rule evaluation.

Everything downstream of the hooks is pure float bookkeeping over the
simulated clock: transcripts are bit-identical across replays, which
the CI telemetry smoke asserts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

import numpy as np

from ..events import TelemetryWindow
from .alerts import AlertEngine, AlertRule
from .slo import SloConfig, SloEngine
from .windows import Ewma, TumblingWindow

#: EWMA smoothing for per-tenant latency and interference rates.
_EWMA_ALPHA = 0.3


def default_rules(config, slo: SloConfig | None) -> tuple:
    """The built-in deterministic rule set for a serve run.

    Derived from the run's own watermarks and SLOs so the alerts mean
    something in every scenario: oversubscription approaching the shed
    watermark, interference pressure past the live-throttle threshold,
    plus shed-rate / tenant-latency rules when the SLO config states
    those objectives.
    """
    rules = [
        AlertRule(name="live_oversubscription",
                  metric="serve.live_oversubscription", op=">=",
                  threshold=config.shed_watermark, for_ticks=2),
        AlertRule(name="thrash_pressure", metric="serve.thrash_per_wave",
                  op=">=", threshold=config.live_thrash_threshold,
                  for_ticks=2),
    ]
    if slo is not None and slo.max_shed_rate is not None:
        rules.append(AlertRule(
            name="shed_rate", metric="serve.shed_rate", op=">",
            threshold=slo.max_shed_rate))
    if slo is not None and slo.p99_latency_us is not None:
        rules.append(AlertRule(
            name="tenant_latency", metric="tenant.ewma_latency_us",
            op=">", threshold=slo.p99_latency_us, for_ticks=3,
            scope="tenant"))
    return tuple(rules)


class LiveTelemetry:
    """Streaming per-tenant telemetry for one :class:`ServeSession`."""

    def __init__(self, config, slo: SloConfig | None = None,
                 bus=None, metrics=None) -> None:
        self.config = config
        self.window_us = config.window_ms * 1e3
        self._bus = bus
        self._metrics = metrics
        self.slo_config = slo if slo is not None and slo.enabled else None
        self.slo = SloEngine(self.slo_config, emit=self._emit) \
            if self.slo_config is not None else None
        self.alerts = AlertEngine(default_rules(config, self.slo_config),
                                  emit=self._emit)
        window = partial(TumblingWindow, self.window_us)
        #: Per-tenant wave latency windows (bad = over the SLO target).
        self.latency: dict[int, TumblingWindow] = defaultdict(window)
        #: Per-tenant per-wave access counts (throughput floor).
        self.work: dict[int, TumblingWindow] = defaultdict(window)
        #: Service-level arrivals window (bad = shed).
        self.arrivals = TumblingWindow(self.window_us)
        self._lat_ewma: dict[int, Ewma] = {}
        self._thrash_ewma: dict[int, Ewma] = {}
        self._pressure = Ewma(_EWMA_ALPHA)
        self._last_thrash: np.ndarray | None = None
        self._last_waves: dict[int, int] = {}
        #: Tenants with open windows (first wave seen, not completed),
        #: as an ordered set in first-wave order.
        self._open: dict[int, None] = {}

    # -- event plumbing --------------------------------------------------

    def _emit(self, event) -> None:
        if self._bus is not None and self._bus.enabled:
            self._bus.emit(event)

    # -- session hooks ---------------------------------------------------

    def on_arrival(self, tenant: int, at_us: float, shed: bool) -> None:
        self.arrivals.observe(at_us, 1.0, bad=shed)

    def on_complete(self, tenant: int, at_us: float) -> None:
        """Close the tenant's windows, then give the final SLO verdict.

        The window holding ``at_us`` is the tenant's last: it closes
        and drains here, and no later tick touches the tenant again.
        """
        if tenant in self._open:
            del self._open[tenant]
            self.latency[tenant].roll(at_us + self.window_us)
            self._drain_tenant(tenant)
        if self.slo is not None:
            self.slo.finish_tenant(tenant, at_us)

    def on_wave(self, tenant: int, at_us: float, latency_us: float,
                accesses: int) -> None:
        slo = self.slo_config
        bad = (slo is not None and slo.p99_latency_us is not None
               and latency_us > slo.p99_latency_us)
        self.latency[tenant].observe(at_us, latency_us, bad=bad)
        self.work[tenant].observe(at_us, float(accesses))
        ewma = self._lat_ewma.get(tenant)
        if ewma is None:
            ewma = self._lat_ewma[tenant] = Ewma(_EWMA_ALPHA)
            self._open[tenant] = None
        ewma.update(latency_us)

    # -- live signals consumed by --live-admission -----------------------

    def thrash_rate(self, tenant: int) -> float:
        """Windowed thrash migrations per wave attributed to ``tenant``."""
        ewma = self._thrash_ewma.get(tenant)
        return ewma.get() if ewma is not None else 0.0

    def interference(self) -> float:
        """Service-wide EWMA of thrash migrations per executed wave."""
        return self._pressure.get()

    # -- per-round evaluation --------------------------------------------

    def _drain_tenant(self, tenant: int) -> None:
        """Drain freshly-closed windows into the SLO engine and the bus.

        The work window rolls with the latency window, because the
        throughput objective merges its closed windows.  The events are
        built only when a bus takes them.
        """
        lat_win = self.latency[tenant]
        work_win = self.work[tenant]
        work_win.roll(lat_win.open_start_us)
        fresh_work = work_win.drain()
        fresh = lat_win.drain()
        if self.slo is not None:
            for _, agg in fresh:
                self.slo.record_latency_window(tenant, agg)
        bus = self._bus
        if bus is None or not bus.enabled or not fresh:
            return
        work_of = dict(fresh_work)
        ewma = self._lat_ewma[tenant].get()
        thrash = self.thrash_rate(tenant)
        for start_us, agg in fresh:
            work = work_of.get(start_us)
            bus.emit(TelemetryWindow(
                tenant=tenant, start_us=start_us,
                window_us=self.window_us, waves=agg.count,
                accesses=int(work.total) if work is not None else 0,
                mean_latency_us=agg.mean, max_latency_us=agg.maximum,
                bad_waves=agg.bad, ewma_latency_us=ewma,
                thrash_rate=thrash))

    def tick(self, now: float, oversubscription: float,
             live, thrash: np.ndarray) -> None:
        """One evaluation round, called at each scheduler-round boundary.

        ``live`` is the session's live tenant list (objects with ``id``
        and ``waves``); ``thrash`` the attribution's cumulative
        per-tenant thrash-migration array.  The hub differences both
        against its previous snapshot to derive windowed rates.
        """
        # Interference rates from attribution deltas.
        if self._last_thrash is None:
            self._last_thrash = np.zeros_like(thrash)
        delta = thrash - self._last_thrash
        self._last_thrash = thrash.copy()
        total_dwaves = 0
        for tenant in live:
            dwaves = tenant.waves - self._last_waves.get(tenant.id, 0)
            self._last_waves[tenant.id] = tenant.waves
            total_dwaves += dwaves
            if dwaves > 0:
                ewma = self._thrash_ewma.get(tenant.id)
                if ewma is None:
                    ewma = self._thrash_ewma[tenant.id] = Ewma(_EWMA_ALPHA)
                ewma.update(float(delta[tenant.id]) / dwaves)
        if total_dwaves > 0:
            self._pressure.update(float(delta.sum()) / total_dwaves)

        # Roll + drain open windows, then evaluate SLOs on merged
        # horizons.
        slo, slo_cfg = self.slo, self.slo_config
        for tenant_id in self._open:
            win = self.latency[tenant_id]
            win.roll(now)
            self._drain_tenant(tenant_id)
            if slo is not None:
                fast = win.merged(slo_cfg.fast_windows)
                slow = win.merged(slo_cfg.slow_windows)
                slo.evaluate_latency(tenant_id, now, fast, slow)
        if slo is not None and slo_cfg.min_throughput is not None:
            for tenant in live:
                win = self.work[tenant.id]
                fast = win.merged(slo_cfg.fast_windows)
                slow = win.merged(slo_cfg.slow_windows)
                slo.evaluate_throughput(
                    tenant.id, now, fast, slow,
                    slo_cfg.fast_windows * self.window_us,
                    slo_cfg.slow_windows * self.window_us)
        self.arrivals.roll(now)
        for _, agg in self.arrivals.drain():
            if slo is not None:
                slo.record_shed_window(agg)
        if slo is not None and slo_cfg.max_shed_rate is not None:
            slo.evaluate_shed(
                now, self.arrivals.merged(slo_cfg.fast_windows),
                self.arrivals.merged(slo_cfg.slow_windows))

        # Alert rules: serve scope first, then tenants in id order.
        shed_window = self.arrivals.merged(
            slo_cfg.slow_windows if slo_cfg is not None else 12)
        sample = {
            "serve.live_oversubscription": oversubscription,
            "serve.thrash_per_wave": self._pressure.get(),
            "serve.shed_rate": shed_window.bad_fraction,
        }
        self.alerts.evaluate(now, sample)
        for tenant_id in sorted(t.id for t in live):
            ewma = self._lat_ewma.get(tenant_id)
            tenant_sample = {
                "tenant.ewma_latency_us":
                    ewma.get() if ewma is not None else None,
                "tenant.thrash_rate": self.thrash_rate(tenant_id),
            }
            self.alerts.evaluate(now, tenant_sample, tenant=tenant_id)

        # Decimated per-run series for the archived metrics snapshot.
        metrics = self._metrics
        if metrics is not None:
            metrics.series("serve.live.oversubscription").append(
                now, oversubscription)
            metrics.series("serve.live.thrash_per_wave").append(
                now, self._pressure.get())
            for tenant_id, ewma in self._lat_ewma.items():
                metrics.series(
                    f"serve.tenant.{tenant_id}.ewma_latency_us").append(
                        now, ewma.get())

    def alerts_fired(self) -> int:
        """``firing`` transitions the alert rules have recorded so far."""
        return sum(1 for ev in self.alerts.transcript
                   if ev.state == "firing")

    def finish(self, now: float) -> None:
        """End of run: close service-level SLO state and snapshot."""
        self.arrivals.roll(now + self.window_us)
        for _, agg in self.arrivals.drain():
            if self.slo is not None:
                self.slo.record_shed_window(agg)
        if self.slo is not None:
            self.slo.finish(now)
        metrics = self._metrics
        if metrics is not None:
            for name in self.alerts.firing():
                metrics.counter(f"serve.alert.{name}.unresolved").inc()
            metrics.counter("serve.alerts_fired").inc(self.alerts_fired())
            if self.slo is not None:
                for tenant_id in list(self._lat_ewma):
                    attainment = self.slo.attainment_of(tenant_id)
                    if attainment is not None:
                        metrics.gauge(
                            f"serve.tenant.{tenant_id}.slo_attainment"
                        ).set(attainment)
