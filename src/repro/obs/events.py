"""Typed structured events emitted by the instrumented simulator.

Every event is a small frozen dataclass with a class-level ``kind`` tag
and flat, JSON-serializable fields.  The driver constructs events only
when at least one sink is attached to the :class:`~repro.obs.bus.EventBus`
(the default run has none), so the schema can afford to be explicit:
each event captures one *decision* the paper's mechanism made, not one
array mutation.

Schema stability contract: fields are never renamed or re-typed, so
archived JSONL logs keep replaying through :mod:`repro.obs.inspect`.
New fields are added with defaults, so older logs decode to them.  A
defaulted field may be retired: :func:`from_dict` ignores unknown
keys, so logs that still carry it keep decoding.  The serialized form
is ``{"event": <kind>, **fields}`` (see :meth:`Event.as_dict`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: a tagged, flatly-serializable simulator event."""

    #: Event-type tag used in serialized form; overridden per subclass.
    kind = "event"

    def as_dict(self) -> dict:
        """Flat dict form, ``{"event": kind, **fields}`` (JSONL row)."""
        d = {"event": self.kind}
        for f in dataclasses.fields(self):
            d[f.name] = getattr(self, f.name)
        return d


@dataclass(frozen=True, slots=True)
class RunMeta(Event):
    """Run header: emitted once so logs are self-describing.

    ``allocations`` maps the block address space back to the workload's
    managed allocations as ``(name, first_block, last_block)`` tuples
    (half-open range), which lets :mod:`repro.obs.inspect` attribute
    per-block events to allocations.
    """

    kind = "run_meta"

    workload: str
    policy: str
    seed: int
    total_blocks: int
    capacity_blocks: int
    allocations: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True, slots=True)
class MigrationDecision(Event):
    """One far-accessed block's migrate-vs-remote verdict (per wave).

    ``counter`` is the pre-wave counter baseline the policy judged
    against and ``threshold`` the ``td`` it had to reach; ``accesses``
    is the wave's coalesced access count for the block.  ``migrated``
    is the final verdict *after* programmer hints and injected-fault
    degradation.
    """

    kind = "migration_decision"

    wave: int
    block: int
    threshold: int
    counter: int
    accesses: int
    migrated: bool


@dataclass(frozen=True, slots=True)
class Eviction(Event):
    """One eviction of ``blocks`` 64KB blocks from chunk ``chunk``.

    ``whole_chunk`` distinguishes 2MB chunk-granular eviction from the
    64KB block-granular mode; ``dirty_blocks`` counts device->host
    write-backs the eviction forced.
    """

    kind = "eviction"

    wave: int
    chunk: int
    blocks: int
    dirty_blocks: int
    whole_chunk: bool


@dataclass(frozen=True, slots=True)
class CounterHalving(Event):
    """A global halving of one access-counter field on saturation.

    ``field`` is ``"counts"`` (27-bit access field) or ``"roundtrips"``
    (5-bit round-trip field); ``halvings`` is the cumulative halving
    count for that field after this event.
    """

    kind = "counter_halving"

    wave: int
    field: str
    halvings: int


@dataclass(frozen=True, slots=True)
class FaultRetry(Event):
    """Injected transient-fault handling on one block's migration.

    ``failures`` failed attempts were re-tried (each charged a backoff
    wait); ``degraded`` is True when the retry budget ran out and the
    access fell back to the remote zero-copy path.
    """

    kind = "fault_retry"

    wave: int
    block: int
    failures: int
    degraded: bool


@dataclass(frozen=True, slots=True)
class PrefetchExpand(Event):
    """A fault's tree-prefetch expansion that actually installed blocks.

    ``fault_block`` is the faulting block that triggered the prefetcher
    and ``blocks`` the number of extra 64KB blocks pulled in alongside
    it (the fault block itself is not counted).
    """

    kind = "prefetch_expand"

    wave: int
    chunk: int
    fault_block: int
    blocks: int


@dataclass(frozen=True, slots=True)
class TenantArrival(Event):
    """A tenant entered the open-loop serving system (``repro serve``).

    ``at_us`` is the arrival time on the serving clock, ``footprint_mb``
    the tenant's managed-allocation footprint.
    """

    kind = "tenant_arrival"

    tenant: int
    workload: str
    at_us: float
    footprint_mb: float


@dataclass(frozen=True, slots=True)
class TenantAdmitted(Event):
    """The admission controller admitted a tenant onto the device.

    ``queued_us`` is the time spent waiting in the admission queue
    (0.0 for immediate admission); ``live_oversubscription`` is the
    aggregate live-footprint/capacity ratio *after* the admit.
    """

    kind = "tenant_admitted"

    tenant: int
    at_us: float
    queued_us: float
    live_oversubscription: float


@dataclass(frozen=True, slots=True)
class TenantShed(Event):
    """The admission controller deterministically shed a tenant.

    ``reason`` is ``"watermark"`` (projected oversubscription past the
    shed watermark) or ``"queue_full"`` (bounded queue at capacity).
    """

    kind = "tenant_shed"

    tenant: int
    at_us: float
    reason: str
    live_oversubscription: float


@dataclass(frozen=True, slots=True)
class TenantThrottled(Event):
    """Graceful degradation suspended a tenant's wave stream.

    The heaviest-thrashing tenant is paused for ``rounds`` scheduler
    rounds when live oversubscription crosses the throttle watermark
    (the paper's Section VIII proposal); ``thrash_migrations`` is the
    thrash attributed to the tenant at suspension time.
    """

    kind = "tenant_throttled"

    tenant: int
    at_us: float
    rounds: int
    thrash_migrations: int


@dataclass(frozen=True, slots=True)
class TenantComplete(Event):
    """A tenant drained its last wave and released its footprint.

    ``freed_blocks``/``writeback_blocks`` account the teardown;
    ``p99_wave_latency_us`` summarizes the tenant's wave-latency
    histogram; ``thrash_migrations``/``cross_evictions`` carry the
    per-tenant attribution (thrash charged to the tenant's data, blocks
    it lost to other tenants' pressure).
    """

    kind = "tenant_complete"

    tenant: int
    at_us: float
    waves: int
    freed_blocks: int
    writeback_blocks: int
    p99_wave_latency_us: float
    thrash_migrations: int = 0
    cross_evictions: int = 0


@dataclass(frozen=True, slots=True)
class TenantSched(Event):
    """A completing tenant's fair-scheduler accounting (``repro serve``).

    Emitted alongside :class:`TenantComplete` when the serve session
    runs a non-default scheduler (never on the default round-robin
    path, whose event stream stays byte-identical to the pre-scheduler
    serving layer).  ``weight`` is the tenant's configured fair share
    and ``deficit`` the fractional wave credit carried at completion
    (DRR invariant: always in ``[0, 1)``).  Logs written before the
    field was retired also carry ``batched_waves``, which decoding
    ignores.
    """

    kind = "tenant_sched"

    tenant: int
    at_us: float
    weight: float
    deficit: float
    waves: int


@dataclass(frozen=True, slots=True)
class TelemetryWindow(Event):
    """One closed tumbling window of a tenant's live wave telemetry.

    Emitted by :class:`repro.obs.live.LiveTelemetry` every time a
    per-tenant latency window closes on the serving clock.  ``start_us``
    is the window's left edge and ``window_us`` its width; ``bad_waves``
    counts waves whose latency exceeded the SLO latency target (0 when
    no SLO is configured).  The EWMA fields are the streaming estimates
    *after* folding this window in.
    """

    kind = "telemetry_window"

    tenant: int
    start_us: float
    window_us: float
    waves: int
    accesses: int
    mean_latency_us: float
    max_latency_us: float
    bad_waves: int
    ewma_latency_us: float
    thrash_rate: float


@dataclass(frozen=True, slots=True)
class SloViolation(Event):
    """A per-tenant SLO objective started burning its error budget.

    Emitted on the *transition* into violation (multi-window burn-rate
    rule: both the fast and slow window burn rates exceed the configured
    threshold), not on every evaluation tick, so transcripts stay small
    and deterministic.  ``tenant`` is ``-1`` for service-level
    objectives (shed rate).
    """

    kind = "slo_violation"

    tenant: int
    at_us: float
    objective: str
    burn_fast: float
    burn_slow: float
    value: float
    target: float


@dataclass(frozen=True, slots=True)
class SloAttainment(Event):
    """Final attainment verdict for one (tenant, objective) pair.

    Emitted when a tenant completes (or at end of run for service-level
    objectives): ``attainment`` is the achieved good fraction over the
    whole run, ``target`` the configured requirement, ``met`` the
    verdict.
    """

    kind = "slo_attainment"

    tenant: int
    at_us: float
    objective: str
    attainment: float
    target: float
    met: bool


@dataclass(frozen=True, slots=True)
class AlertFired(Event):
    """A deterministic alert rule changed state (firing or resolved).

    Rules evaluate in declaration order against the live telemetry
    sample each scheduler round; ``state`` is ``"firing"`` on the
    transition into breach (after the rule's ``for_ticks`` consecutive
    breaching evaluations) and ``"resolved"`` on the first
    non-breaching evaluation afterwards.  ``tenant`` is ``-1`` for
    serve-scoped rules.
    """

    kind = "alert_fired"

    name: str
    at_us: float
    tenant: int
    metric: str
    value: float
    threshold: float
    state: str


#: kind tag -> event class, for deserializing JSONL logs.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (RunMeta, MigrationDecision, Eviction, CounterHalving,
                FaultRetry, PrefetchExpand, TenantArrival, TenantAdmitted,
                TenantShed, TenantThrottled, TenantComplete, TenantSched,
                TelemetryWindow, SloViolation, SloAttainment, AlertFired)
}


def from_dict(row: dict) -> Event:
    """Rebuild an event from its :meth:`Event.as_dict` form.

    Unknown keys are ignored (forward compatibility: newer writers may
    add fields), unknown kinds raise ``ValueError``.
    """
    kind = row["event"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}; "
                         f"known: {', '.join(sorted(EVENT_TYPES))}")
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in row.items() if k in names}
    if cls is RunMeta and "allocations" in kwargs:
        kwargs["allocations"] = tuple(
            tuple(a) for a in kwargs["allocations"])
    return cls(**kwargs)
