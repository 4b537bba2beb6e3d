"""The serving session: tenants interleaved onto one shared driver.

:class:`ServeSession` ties the serving layer together.  It generates
the arrival trace (:mod:`repro.serve.traffic`), pre-builds every
tenant's allocations into one shared virtual address space under a
per-tenant namespace (``t<id>/<name>`` -- the allocator is append-only,
so the full VA space must exist before the driver is constructed), and
then drives the run loop on the simulated clock:

* arrivals are offered to the admission controller
  (:mod:`repro.serve.admission`) as the clock passes them;
* admitted tenants' wave streams are interleaved by a pluggable
  scheduler (:mod:`repro.serve.scheduler`): ``round_robin`` gives each
  runnable tenant ``quantum`` contiguous waves per round (the legacy
  reference path), ``drr`` interleaves tenants one wave at a time under
  deficit-weighted fair queuing.  Every scheduler slot executes as one
  :meth:`~repro.uvm.driver.UvmDriver.process_wave_batch` dispatch,
  which runs the slot's waves one after another through the driver's
  per-wave pipeline;
* graceful degradation engages in watermark escalation order: at the
  throttle watermark the heaviest-thrashing tenant's stream is
  suspended for :data:`THROTTLE_ROUNDS` rounds (the paper's Section
  VIII throttling proposal, driven by the per-tenant
  :class:`~repro.uvm.attribution.TenantAttribution`), at the admit
  watermark arrivals queue, and past the shed watermark (or a full
  queue) they are shed;
* a completing tenant releases its chunks through
  :meth:`~repro.uvm.driver.UvmDriver.release_chunks` (write-backs
  charged to the clock, no round-trip pollution) and the freed
  footprint drains the admission queue FIFO.

Every session feeds one live telemetry hub
(:class:`~repro.obs.live.telemetry.LiveTelemetry`): per-tenant windows,
the SLO engine and the default alert rules.  Event sinks, the metrics
registry, the timeline, the profiler and the run archive only read it,
so attaching them never changes a result; ``live_admission`` is the
one switch that lets the schedule read the hub's live signals.

Determinism contract: arrival trace, tenant builds, and driver faults
each own a separate seeded RNG stream; the scheduler is a deterministic
function of the trace and wave timing; nothing reads the wall clock.
A serve run is therefore a pure function of ``(ServeConfig,
SimulationConfig, SloConfig)`` and replays bit-identically.  Shed
tenants' allocations still occupy VA space but never touch the device.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..config import MB, ServeConfig, SimulationConfig
from ..gpu.timing import TimingModel
from ..interconnect.pcie import PcieModel
from ..memory.allocator import VirtualAddressSpace
from ..obs.events import (
    RunMeta,
    TenantAdmitted,
    TenantArrival,
    TenantComplete,
    TenantSched,
    TenantShed,
    TenantThrottled,
)
from ..obs.live.telemetry import LiveTelemetry
from ..obs.metrics import Histogram
from ..uvm.attribution import TenantAttribution
from ..uvm.driver import UvmDriver
from ..workloads.registry import make_workload
from .admission import AdmissionController
from .scheduler import make_scheduler
from .traffic import Arrival, generate_arrivals

#: SeedSequence stream key for per-tenant workload builds; combined
#: with the tenant id so every tenant gets an independent stream.
_TENANT_STREAM = 0x7E4A47

#: Scheduler rounds a throttled tenant sits out (under ``drr`` its
#: weight is decayed for as many rounds instead).
THROTTLE_ROUNDS = 8


@dataclass(frozen=True)
class TenantRecord:
    """Per-tenant lifecycle summary, one per arrival (shed ones too)."""

    tenant: int
    workload: str
    footprint_mb: float
    arrival_us: float
    #: Admission time; None when the tenant was shed.
    admitted_us: float | None
    #: Time spent between arrival and admission (0.0 when shed).
    queued_us: float
    shed: bool
    #: ``"watermark"``/``"queue_full"`` when shed, else ``""``.
    shed_reason: str
    #: Completion time; None when shed.
    complete_us: float | None
    waves: int
    accesses: int
    p50_wave_latency_us: float | None
    p99_wave_latency_us: float | None
    #: Scheduler rounds this tenant sat out under throttling.
    throttled_rounds: int
    #: Times the throttle picked this tenant as the heaviest thrasher.
    throttle_events: int
    #: Thrash migrations attributed to this tenant's data.
    thrash_migrations: int
    #: Blocks this tenant lost to eviction while another tenant's wave
    #: drove the pressure (eviction interference).
    cross_evictions: int
    #: Total blocks this tenant lost to eviction.
    evicted_blocks: int
    freed_blocks: int
    writeback_blocks: int
    #: Configured fair share under the active scheduler (1.0 = equal).
    weight: float = 1.0
    #: Fractional DRR wave credit carried at end of run (always in
    #: ``[0, 1)``; 0.0 under round robin).
    deficit: float = 0.0
    #: Waves that shared their scheduler slot with another tenant's
    #: wave (dispatches of two or more waves).
    batched_waves: int = 0

    def as_dict(self) -> dict:
        """Flat JSON-safe encoding."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one serve run (JSON-safe via :meth:`as_dict`)."""

    config: ServeConfig
    arrivals: int
    admitted: int
    queued: int
    shed: int
    completed: int
    #: Admission verdicts in decision order: (tenant, action, reason).
    decisions: tuple[tuple[int, str, str], ...]
    tenants: tuple[TenantRecord, ...]
    #: Final simulated clock, microseconds.
    duration_us: float
    total_waves: int
    total_accesses: int
    accesses_per_second: float
    p50_wave_latency_us: float | None
    p99_wave_latency_us: float | None
    shed_rate: float
    throttle_events: int
    peak_live_oversubscription: float
    #: First engagement time of each degradation stage (None: never).
    first_throttle_us: float | None
    first_queue_us: float | None
    first_shed_us: float | None
    #: Cumulative driver event counts across the whole run.
    driver_totals: dict
    #: Name of the scenario config the run was launched from (``repro
    #: serve --config``), or ``None`` for a flag-driven run.
    scenario: str | None = None
    #: Live-telemetry rollups: SLO violations (0 without an SLO) and
    #: the alerts the run's default rules fired.
    slo_violations: int = 0
    alerts_fired: int = 0
    #: Active wave scheduler (``serve.scheduler``).
    scheduler: str = "round_robin"
    #: Scheduler slots that held two or more waves (0 under round
    #: robin, whose groups hold one tenant) and their mean wave count.
    batches: int = 0
    batch_occupancy: float = 0.0

    def as_dict(self) -> dict:
        """Flat JSON-safe encoding (archived / printed by the CLI)."""
        d = dataclasses.asdict(self)
        d["config"] = self.config.as_dict()
        d["decisions"] = [list(t) for t in self.decisions]
        d["tenants"] = [t.as_dict() for t in self.tenants]
        return d


class _Tenant:
    """Mutable per-tenant lifecycle state inside the session."""

    __slots__ = ("id", "workload_name", "arrival_us", "blocks",
                 "footprint_mb", "chunk_ids", "workload", "stream",
                 "admitted_us", "queued_us", "shed_reason", "complete_us",
                 "waves", "batched_waves", "accesses", "latency",
                 "throttle_left", "throttled_rounds", "throttle_events",
                 "freed_blocks", "writeback_blocks")

    def __init__(self, tid: int, workload_name: str, arrival_us: float,
                 blocks: int, footprint_mb: float,
                 chunk_ids: list[int], workload) -> None:
        self.id = tid
        self.workload_name = workload_name
        self.arrival_us = arrival_us
        self.blocks = blocks
        self.footprint_mb = footprint_mb
        self.chunk_ids = chunk_ids
        #: Built workload, held until admission; the wave stream is
        #: materialized lazily on admit so queued/shed tenants never pay
        #: generation cost (and shed tenants free the workload early).
        self.workload = workload
        self.stream = None
        self.admitted_us: float | None = None
        self.queued_us = 0.0
        self.shed_reason = ""
        self.complete_us: float | None = None
        self.waves = 0
        self.batched_waves = 0
        self.accesses = 0
        self.latency = Histogram()
        self.throttle_left = 0
        self.throttled_rounds = 0
        self.throttle_events = 0
        self.freed_blocks = 0
        self.writeback_blocks = 0


def _wave_stream(workload):
    """Flatten a workload's kernel launches into one wave iterator."""
    for launch in workload.kernels():
        yield from launch.waves()


class ServeSession:
    """One multi-tenant serve run over one shared driver.

    The session always builds its live telemetry hub.  ``obs`` only
    attaches exporters that read it (event sinks, metrics registry,
    timeline, profiler), so the result depends on ``config``,
    ``sim_config`` and ``slo`` alone.
    """

    def __init__(self, config: ServeConfig,
                 sim_config: SimulationConfig | None = None,
                 obs=None, scenario: str | None = None,
                 slo=None) -> None:
        self.config = config.validate()
        #: Optional :class:`~repro.obs.live.slo.SloConfig` the telemetry
        #: hub evaluates (and whose objectives add alert rules).
        self.slo = slo
        if slo is not None:
            slo.validate()
        #: Scenario name stamped onto the result (purely provenance:
        #: it never affects execution).
        self.scenario = scenario
        base = sim_config if sim_config is not None else SimulationConfig()
        #: Driver-level configuration: the serve capacity and seed
        #: override whatever the base carries; policy and faults flow
        #: through from the caller's flags.
        self.sim_config = dataclasses.replace(
            base.with_device_capacity(config.capacity_bytes),
            seed=config.seed).validate()
        self.obs = obs
        self._bus = obs.bus if obs is not None else None
        if obs is not None and obs.profiler is not None:
            obs.profiler.install(self, {"run": "serve.session"})

    # -- construction ----------------------------------------------------

    def _build(self, arrivals: tuple[Arrival, ...]):
        """Pre-build every tenant's allocations into one shared VAS.

        The allocator is append-only and the driver sizes its arrays at
        construction, so the whole trace's allocations must exist before
        the first wave; admission then gates only wave-stream flow.
        """
        cfg = self.config
        vas = VirtualAddressSpace()
        tenants: list[_Tenant] = []
        for a in arrivals:
            workload = make_workload(a.workload, cfg.scale)
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=(cfg.seed, _TENANT_STREAM, a.tenant)))
            workload.build(vas, rng)
            allocs = list(workload.allocations.values())
            for alloc in allocs:
                # Per-tenant allocation namespace; ManagedAllocation is
                # frozen, and the instances are shared with the VAS.
                object.__setattr__(alloc, "name",
                                   f"t{a.tenant}/{alloc.name}")
            blocks = sum(al.num_blocks for al in allocs)
            chunk_ids = [span.chunk_id
                         for al in allocs for span in al.chunks]
            tenants.append(_Tenant(
                a.tenant, a.workload, a.at_us, blocks,
                sum(al.rounded_bytes for al in allocs) / MB,
                chunk_ids, workload))
        return vas, tenants

    # -- run loop --------------------------------------------------------

    def run(self) -> ServeResult:
        """Execute the serve run to completion."""
        cfg = self.config
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            # Back-to-back sessions against one registry must not
            # accumulate each other's serve.* counters and series.
            obs.metrics.reset_prefix("serve.")
        arrivals = generate_arrivals(cfg)
        vas, tenants = self._build(arrivals)
        self._tenants = tenants
        driver = UvmDriver(vas, self.sim_config, obs=self.obs)
        block_owner = np.full(vas.total_blocks, -1, dtype=np.int32)
        for t in tenants:
            for cid in t.chunk_ids:
                span = vas.chunks[cid]
                block_owner[span.first_block:span.last_block] = t.id
        driver.attribution = TenantAttribution(block_owner, len(tenants))
        self._driver = driver
        # Self-describing log header: the per-tenant allocation
        # namespace (t<id>/<name>) lets `repro inspect` attribute
        # thrashing blocks back to tenants.
        self._emit(RunMeta(
            workload="serve:" + "+".join(cfg.workload_mix),
            policy=self.sim_config.policy.policy.value,
            seed=cfg.seed,
            total_blocks=vas.total_blocks,
            capacity_blocks=driver.device.capacity_blocks,
            allocations=tuple(
                (a.name, a.first_block, a.first_block + a.num_blocks)
                for a in vas.allocations)))
        self._pcie = PcieModel(self.sim_config.interconnect,
                               self.sim_config.gpu)
        self._timing = TimingModel(self.sim_config, self._pcie)
        self._clock_mhz = self.sim_config.gpu.clock_mhz
        self._controller = AdmissionController(
            driver.device.capacity_blocks, cfg.admit_watermark,
            cfg.shed_watermark, cfg.queue_depth)
        self._live: list[_Tenant] = []
        self._scheduler = make_scheduler(cfg)
        self._batches = 0
        self._batched_waves = 0
        self._latency = Histogram()
        self._completed = 0
        self._throttle_events = 0
        self._peak_oversub = 0.0
        self._first_throttle_us: float | None = None
        self._first_queue_us: float | None = None
        self._first_shed_us: float | None = None
        self._telemetry = LiveTelemetry(
            cfg, slo=self.slo, bus=self._bus,
            metrics=obs.metrics if obs is not None else None)

        now = 0.0
        pending = deque(arrivals)
        while pending or self._live or self._controller.queue:
            while pending and pending[0].at_us <= now:
                self._offer(pending.popleft(), now)
            if not self._live:
                if self._controller.queue:
                    # Anti-livelock: an idle device force-admits the
                    # queue head even past the admit watermark.
                    self._admit_from_queue(now, force=True)
                    continue
                if pending:
                    now = pending[0].at_us
                    continue
                break
            now = self._run_round(now)
        self._telemetry.finish(now)
        return self._result(now)

    # -- admission -------------------------------------------------------

    def _offer(self, arrival: Arrival, now: float) -> None:
        tenant = self._tenants[arrival.tenant]
        self._emit(TenantArrival(
            tenant=tenant.id, workload=tenant.workload_name,
            at_us=arrival.at_us, footprint_mb=tenant.footprint_mb))
        decision = self._controller.offer(tenant.id, tenant.blocks, now)
        self._telemetry.on_arrival(tenant.id, now,
                                   shed=decision.action == "shed")
        if decision.action == "admit":
            self._admit(tenant, now, queued_us=now - tenant.arrival_us)
        elif decision.action == "queue":
            if self._first_queue_us is None:
                self._first_queue_us = now
        else:
            tenant.shed_reason = decision.reason
            tenant.workload = None  # shed: free the built arrays early
            if self._first_shed_us is None:
                self._first_shed_us = now
            self._emit(TenantShed(
                tenant=tenant.id, at_us=now, reason=decision.reason,
                live_oversubscription=decision.live_oversubscription))

    def _admit(self, tenant: _Tenant, now: float, queued_us: float) -> None:
        tenant.admitted_us = now
        tenant.queued_us = queued_us
        # Lazy stream materialization: the wave iterator (and the
        # workload arrays it closes over) only come alive on admission.
        tenant.stream = _wave_stream(tenant.workload)
        tenant.workload = None  # the generator keeps the needed refs
        self._live.append(tenant)
        oversub = self._controller.oversubscription
        self._peak_oversub = max(self._peak_oversub, oversub)
        self._emit(TenantAdmitted(
            tenant=tenant.id, at_us=now, queued_us=queued_us,
            live_oversubscription=oversub))
        # Footprint only grows through admits, so checking here (not
        # just per round) guarantees the throttle watermark is seen
        # before the higher admit/shed watermarks engage.
        self._maybe_throttle(now)

    def _admit_from_queue(self, now: float, force: bool = False) -> bool:
        popped = self._controller.pop_admittable(force=force)
        if popped is None:
            return False
        tid, enqueued_at = popped
        self._admit(self._tenants[tid], now, queued_us=now - enqueued_at)
        return True

    # -- scheduling ------------------------------------------------------

    def _run_round(self, now: float) -> float:
        """One scheduler round: execute the plan's groups in order."""
        for group in self._scheduler.plan_round(list(self._live)):
            now = self._run_group(group, now)
        for tenant in self._live:
            if tenant.throttle_left > 0:
                tenant.throttle_left -= 1
                tenant.throttled_rounds += 1
        # Evaluate windows/SLOs/alerts before the throttle check so
        # live admission sees this round's interference estimates.
        self._telemetry.tick(
            now, self._controller.oversubscription, self._live,
            self._driver.attribution.thrash_migrations)
        self._maybe_throttle(now)
        return now

    def _observe_wave(self, tenant: _Tenant, outcome, compute_cycles,
                      now: float) -> float:
        """Charge one executed wave to the clocks and histograms."""
        wave_us = (self._timing.wave_total_cycles(outcome, compute_cycles)
                   / self._clock_mhz)
        now += wave_us
        tenant.waves += 1
        tenant.accesses += outcome.n_accesses
        tenant.latency.observe(wave_us)
        self._latency.observe(wave_us)
        self._telemetry.on_wave(tenant.id, now, wave_us, outcome.n_accesses)
        return now

    def _run_group(self, group, now: float) -> float:
        """Execute one scheduler group slot-major, a dispatch per slot.

        Each wave slot gathers one pending wave per still-running tenant
        and hands the whole set to
        :meth:`~repro.uvm.driver.UvmDriver.process_wave_batch` as one
        driver dispatch, which resolves the waves in order; per-wave
        bookkeeping then follows in the same order.  A singleton group
        (every round-robin group) dispatches one wave per slot.  A
        drained stream flushes the slot's batch *before* the completion
        runs, because completion mutates global state (releases chunks,
        drains the admission queue) that later waves in the batch must
        not see early.
        """
        scheduler = self._scheduler
        maxn = max(n for _, n in group)
        for slot in range(maxn):
            batch: list[tuple[_Tenant, object]] = []
            for tenant, n in group:
                if (n <= slot or tenant.complete_us is not None
                        or not scheduler.runnable(tenant)):
                    continue
                wave = next(tenant.stream, None)
                if wave is None:
                    # Flush first: the completion below must observe
                    # exactly the post-batch driver state.
                    now = self._dispatch(batch, now)
                    batch = []
                    now = self._complete(tenant, now)
                    continue
                batch.append((tenant, wave))
            now = self._dispatch(batch, now)
        return now

    def _dispatch(self, batch, now: float) -> float:
        """Run one gathered slot through the driver's batch entry point.

        Only slots of two or more waves count as batches, so the batch
        statistics report how many waves shared a slot.
        """
        if not batch:
            return now
        outcomes = self._driver.process_wave_batch(
            [(w.pages, w.is_write, w.counts) for _, w in batch],
            tenants=[t.id for t, _ in batch])
        shared = len(batch) > 1
        if shared:
            self._batches += 1
            self._batched_waves += len(batch)
        for (tenant, wave), outcome in zip(batch, outcomes):
            if shared:
                tenant.batched_waves += 1
            now = self._observe_wave(tenant, outcome,
                                     wave.compute_cycles, now)
        return now

    def _maybe_throttle(self, now: float) -> None:
        """Suspend the heaviest-thrashing tenant past the watermark.

        With ``live_admission`` the trigger and the victim choice both
        read the live telemetry hub: the throttle engages when the
        *windowed* interference estimate (EWMA thrash migrations per
        wave) crosses ``live_thrash_threshold`` -- even below the
        static oversubscription watermark -- and suspends the tenant
        with the highest windowed thrash rate (ties broken by
        cumulative attribution, then lowest id) instead of the highest
        all-time total.
        """
        cfg = self.config
        telemetry = self._telemetry
        live = cfg.live_admission
        if live:
            if (self._controller.oversubscription < cfg.throttle_watermark
                    and telemetry.interference()
                    < cfg.live_thrash_threshold):
                return
        elif self._controller.oversubscription < cfg.throttle_watermark:
            return
        if any(t.throttle_left > 0 for t in self._live):
            return  # one suspension at a time
        runnable = [t for t in self._live if t.throttle_left == 0]
        if len(runnable) < 2:
            return  # never suspend the last runnable stream
        attribution = self._driver.attribution
        if live:
            victim = max(runnable,
                         key=lambda t: (telemetry.thrash_rate(t.id),
                                        attribution.thrash_of(t.id),
                                        -t.id))
        else:
            victim = max(runnable,
                         key=lambda t: (attribution.thrash_of(t.id),
                                        -t.id))
        victim.throttle_left = THROTTLE_ROUNDS
        victim.throttle_events += 1
        self._throttle_events += 1
        if self._first_throttle_us is None:
            self._first_throttle_us = now
        self._emit(TenantThrottled(
            tenant=victim.id, at_us=now, rounds=THROTTLE_ROUNDS,
            thrash_migrations=attribution.thrash_of(victim.id)))

    def _complete(self, tenant: _Tenant, now: float) -> float:
        """Tear down a drained tenant and drain the admission queue."""
        freed, writebacks = self._driver.release_chunks(tenant.chunk_ids)
        tenant.freed_blocks = freed
        tenant.writeback_blocks = writebacks
        if writebacks:
            # Dirty blocks cross PCIe before the frames are reusable.
            now += self._pcie.writeback_cycles(writebacks) / self._clock_mhz
        tenant.complete_us = now
        tenant.throttle_left = 0
        tenant.stream = None  # free the drained generator + workload
        self._live.remove(tenant)
        self._controller.release(tenant.blocks)
        self._completed += 1
        attribution = self._driver.attribution
        self._telemetry.on_complete(tenant.id, now)
        self._emit(TenantComplete(
            tenant=tenant.id, at_us=now, waves=tenant.waves,
            freed_blocks=freed, writeback_blocks=writebacks,
            p99_wave_latency_us=tenant.latency.quantile(0.99) or 0.0,
            thrash_migrations=attribution.thrash_of(tenant.id),
            cross_evictions=int(attribution.cross_evictions[tenant.id])))
        if self.config.scheduler != "round_robin":
            # Scheduler accounting rides along only off the default
            # path, keeping the legacy round-robin event stream
            # byte-identical to the pre-scheduler serving layer.
            self._emit(TenantSched(
                tenant=tenant.id, at_us=now,
                weight=self._scheduler.weight_of(tenant.id),
                deficit=self._scheduler.deficit_of(tenant.id),
                waves=tenant.waves,
                batched_waves=tenant.batched_waves))
        # Freed footprint drains the queue FIFO.
        while self._admit_from_queue(now):
            pass
        return now

    # -- reporting -------------------------------------------------------

    def _emit(self, event) -> None:
        if self._bus is not None and self._bus.enabled:
            self._bus.emit(event)

    def _result(self, now: float) -> ServeResult:
        controller = self._controller
        attribution = self._driver.attribution
        scheduler = self._scheduler
        records = []
        for t in self._tenants:
            records.append(TenantRecord(
                tenant=t.id, workload=t.workload_name,
                footprint_mb=t.footprint_mb, arrival_us=t.arrival_us,
                admitted_us=t.admitted_us, queued_us=t.queued_us,
                shed=bool(t.shed_reason), shed_reason=t.shed_reason,
                complete_us=t.complete_us, waves=t.waves,
                accesses=t.accesses,
                p50_wave_latency_us=t.latency.quantile(0.5),
                p99_wave_latency_us=t.latency.quantile(0.99),
                throttled_rounds=t.throttled_rounds,
                throttle_events=t.throttle_events,
                thrash_migrations=attribution.thrash_of(t.id),
                cross_evictions=int(attribution.cross_evictions[t.id]),
                evicted_blocks=int(attribution.evicted_blocks[t.id]),
                freed_blocks=t.freed_blocks,
                writeback_blocks=t.writeback_blocks,
                weight=scheduler.weight_of(t.id),
                deficit=scheduler.deficit_of(t.id),
                batched_waves=t.batched_waves))
        total_waves = sum(t.waves for t in self._tenants)
        total_accesses = sum(t.accesses for t in self._tenants)
        shed_rate = controller.sheds / len(self._tenants)
        aps = (total_accesses / (now / 1e6)) if now > 0 else 0.0
        p99 = self._latency.quantile(0.99)
        telemetry = self._telemetry
        result = ServeResult(
            config=self.config,
            arrivals=len(self._tenants),
            admitted=controller.admits,
            queued=controller.queued,
            shed=controller.sheds,
            completed=self._completed,
            decisions=tuple((d.tenant, d.action, d.reason)
                            for d in controller.decisions),
            tenants=tuple(records),
            duration_us=now,
            total_waves=total_waves,
            total_accesses=total_accesses,
            accesses_per_second=aps,
            p50_wave_latency_us=self._latency.quantile(0.5),
            p99_wave_latency_us=p99,
            shed_rate=shed_rate,
            throttle_events=self._throttle_events,
            peak_live_oversubscription=self._peak_oversub,
            first_throttle_us=self._first_throttle_us,
            first_queue_us=self._first_queue_us,
            first_shed_us=self._first_shed_us,
            driver_totals=dataclasses.asdict(self._driver.stats.totals),
            scenario=self.scenario,
            slo_violations=(telemetry.slo.total_violations()
                            if telemetry.slo is not None else 0),
            alerts_fired=telemetry.alerts_fired(),
            scheduler=scheduler.name,
            batches=self._batches,
            batch_occupancy=(self._batched_waves / self._batches
                             if self._batches else 0.0))
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            m = obs.metrics
            m.gauge("serve.accesses_per_second").set(aps)
            m.gauge("serve.p99_wave_latency_us").set(p99 or 0.0)
            m.gauge("serve.shed_rate").set(shed_rate)
            m.gauge("serve.peak_live_oversubscription").set(
                self._peak_oversub)
            m.counter("serve.admits").inc(controller.admits)
            m.counter("serve.queued").inc(controller.queued)
            m.counter("serve.sheds").inc(controller.sheds)
            m.counter("serve.throttle_events").inc(self._throttle_events)
            m.counter("serve.waves").inc(total_waves)
            if self._batches:
                m.counter("serve.batches").inc(self._batches)
                m.gauge("serve.batch_occupancy").set(
                    self._batched_waves / self._batches)
        return result
