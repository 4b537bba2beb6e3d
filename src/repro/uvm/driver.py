"""The UVM driver model: far-fault handling, migration, prefetch, eviction.

This is the component the paper modifies ("solely based on pragmatic
modification to GPU driver", Section IV).  The driver consumes *waves* --
batches of page accesses issued by concurrently scheduled warps between
synchronization points -- and resolves every access to one of three
services:

* **local**: the basic block is device-resident;
* **remote**: the block stays host-pinned and the access crosses PCIe as
  a zero-copy transaction;
* **migration**: the access (a far-fault) pulls the block into device
  memory, runs the tree prefetcher, and may force evictions.

Which service a far access receives is delegated to a
:class:`repro.core.policy.DecisionPolicy`; the mechanics (counters,
trees, replacement, write-back) live here and are shared by every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat

import numpy as np

from ..accel import kernels
from ..config import EvictionGranularity, ReplacementPolicy, SimulationConfig
from ..memory.advice import Advice
from ..core.policy import DecisionPolicy, make_policy
from ..memory import layout
from ..memory.allocator import VirtualAddressSpace
from ..memory.device import DeviceMemory
from ..memory.host import HostMemory
from ..obs.events import Eviction, FaultRetry, MigrationDecision, PrefetchExpand
from ..obs.profiling import WAVE_SPAN
from ..workloads.base import default_counts
from .counters import AccessCounterFile
from .eviction import (BUCKET_SHIFT, DIRTY, KEY_MAX, PARTIAL, PINNED,
                       ChunkDirectory, heat_bucket, select_victims)
from .faults import FaultInjector
from .prefetchers import TreePrefetchStrategy, make_prefetcher
from .residency import ResidencyMap
from .tree import PrefetchTree


@dataclass
class WaveOutcome:
    """Event counts produced by one wave, consumed by the timing model."""

    n_accesses: int = 0
    #: Accesses served from device-local DRAM.
    n_local: int = 0
    #: Accesses served remotely over PCIe (zero copy).
    n_remote: int = 0
    #: Far-faults that triggered a block migration.
    fault_migrations: int = 0
    #: Far-faults that only established a remote mapping.
    mapping_faults: int = 0
    #: 64KB blocks transferred host->device on faults.
    migrated_blocks: int = 0
    #: 64KB blocks transferred host->device by the prefetcher.
    prefetched_blocks: int = 0
    #: Chunks evicted to make room.
    evicted_chunks: int = 0
    #: 64KB blocks released by evictions.
    evicted_blocks: int = 0
    #: Dirty blocks written back device->host before release.
    writeback_blocks: int = 0
    #: Migrations (fault or prefetch) of a block with round trips > 0.
    thrash_migrations: int = 0
    #: Migration attempts re-issued after an injected transient fault.
    retried_transfers: int = 0
    #: Far accesses degraded to the remote path after the migration
    #: retry budget was exhausted (fault injection only).
    degraded_accesses: int = 0
    #: Cumulative retry backoff wait injected by fault handling, in
    #: microseconds (converted to stall cycles by the timing model).
    retry_backoff_us: float = 0.0

    @property
    def fault_events(self) -> int:
        """Total far-fault events needing driver handling."""
        return self.fault_migrations + self.mapping_faults

    @property
    def h2d_blocks(self) -> int:
        """Total host->device block transfers."""
        return self.migrated_blocks + self.prefetched_blocks

    def merge(self, other: "WaveOutcome") -> None:
        """Accumulate ``other`` into this outcome (for aggregation).

        The body is replaced after the class definition by a compiled,
        field-unrolled accumulate: ``merge`` runs on every wave, and the
        generic getattr/setattr walk costs ~4 dynamic lookups per field
        per call.
        """
        raise NotImplementedError  # pragma: no cover - replaced below


#: Field names of :class:`WaveOutcome`, precomputed once and used to
#: code-generate the unrolled ``merge`` body below.
_WAVE_OUTCOME_FIELDS: tuple[str, ...] = tuple(
    f.name for f in WaveOutcome.__dataclass_fields__.values())


def _compile_merge() -> "callable":
    """Build the unrolled ``WaveOutcome.merge`` from the field list."""
    body = "".join(f"    self.{name} += other.{name}\n"
                   for name in _WAVE_OUTCOME_FIELDS)
    ns: dict[str, object] = {}
    exec(f"def merge(self, other):\n{body}", ns)  # noqa: S102
    fn = ns["merge"]
    fn.__doc__ = WaveOutcome.merge.__doc__
    return fn


WaveOutcome.merge = _compile_merge()


@dataclass
class DriverCounters:
    """Cumulative driver statistics across a whole run."""

    totals: WaveOutcome = field(default_factory=WaveOutcome)
    waves: int = 0
    #: Waves resolved entirely by the resident fast path (every accessed
    #: block already device-resident: counter add + LRU touch only).
    fast_path_waves: int = 0
    #: Per block: whether it has thrashed (been re-migrated) at least
    #: once.  The driver sizes it to its VA space.
    thrashed: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))


def group_wave(blocks: np.ndarray, is_write: np.ndarray,
               counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group one wave's accesses per 64KB basic block.

    ``blocks`` are the wave's page ids shifted to block ids (``pages >>
    BLOCK_SHIFT``), parallel to its write flags and int64 access counts.
    Returns ``(ublocks, totals, w_counts)``, all int64: the distinct
    blocks in ascending order, and the accesses and the write accesses
    to each.  Sorts once, then segment-reduces, which beats np.unique +
    two weighted bincounts on the per-wave hot path.

    Pure, and the one grouping implementation: the driver groups a live
    wave with it when the wave misses the resident fast path, and
    :func:`repro.trace.record_trace` stores its result for every
    recorded wave, which :meth:`UvmDriver.process_wave` then takes as
    ``grouped``.
    """
    if blocks.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if blocks.size == 1 or bool((blocks[1:] >= blocks[:-1]).all()):
        # Sweep-style waves arrive block-sorted: skip the argsort and
        # the three gather permutations entirely.
        sorted_blocks = blocks
        sorted_counts = counts
        sorted_w = counts * is_write
    else:
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        sorted_counts = counts[order]
        sorted_w = (counts * is_write)[order]
    return kernels.group_sorted(sorted_blocks, sorted_counts, sorted_w)


class UvmDriver:
    """Shared UVM mechanics parameterized by a migrate-vs-remote policy."""

    def __init__(self, vas: VirtualAddressSpace, config: SimulationConfig,
                 obs=None) -> None:
        if not vas.allocations:
            raise ValueError("cannot build a driver over an empty VA space")
        self.config = config
        self.vas = vas
        #: Optional :class:`repro.obs.Observability` handle.  ``None``
        #: (the default) is the zero-overhead path: event sites guard on
        #: the derived ``_bus`` attribute and never construct an event,
        #: and no span is installed.  Neither touches driver state, so
        #: instrumented runs are bit-identical to bare ones.
        self.obs = obs
        self._bus = obs.bus if obs is not None else None
        total_blocks = vas.total_blocks
        self.residency = ResidencyMap(total_blocks)
        self.host = HostMemory(total_blocks)
        self.device = DeviceMemory(config.memory.device_capacity)
        self.counters = AccessCounterFile(
            total_blocks,
            counter_bits=config.policy.counter_bits,
            roundtrip_bits=config.policy.roundtrip_bits,
            bus=self._bus,
        )
        self.directory = ChunkDirectory(vas.chunks, total_blocks)
        self.trees: list[PrefetchTree] = [
            PrefetchTree(span.num_blocks)
            for span in vas.chunks
        ]
        #: Whether a block has ever been device-resident (drives the
        #: per-block arming of the Oversub scheme's soft-pinning).
        self.ever_migrated = np.zeros(total_blocks, dtype=bool)
        # Programmer placement hints (Section III-C): hard-pinned blocks
        # never migrate; preferred-host blocks get at least the static
        # delayed-migration threshold regardless of the active policy.
        self.block_pinned_host = vas.block_advice(Advice.PINNED_HOST)
        self.block_preferred_host = vas.block_advice(Advice.PREFERRED_HOST)
        # Advice is fixed at allocation time, so the common no-hints case
        # is decided once here instead of with per-wave array reductions.
        self._has_pinned = bool(self.block_pinned_host.any())
        self._has_preferred = bool(self.block_preferred_host.any())
        self.policy: DecisionPolicy = make_policy(config.policy)
        self.prefetcher = make_prefetcher(config.memory.prefetcher.value,
                                          seed=config.seed)
        #: Transient-fault source; None when both rates are 0.0 so the
        #: zero-rate hot path is bit-identical to a fault-free build.
        self.injector: FaultInjector | None = (
            FaultInjector(config.faults, seed=config.seed)
            if config.faults.enabled else None)
        # With no hint and no injector, a wave whose policy state is
        # first touch migrates every far block (_handle_far_accesses).
        self._plain_far_path = not (self._has_pinned or self._has_preferred
                                    or self.injector is not None)
        #: Optional per-tenant eviction/thrash attribution
        #: (:class:`repro.uvm.attribution.TenantAttribution`), attached
        #: by the serving layer.  ``None`` (the default) is the
        #: zero-overhead path: hooks guard on the attribute and the
        #: plug-in mutates only its own arrays, so attributed runs stay
        #: bit-identical to bare ones.
        self.attribution = None
        #: Re-verify accounting invariants after every wave (slow).
        self.debug_invariants = config.debug_invariants
        self.stats = DriverCounters(
            thrashed=np.zeros(total_blocks, dtype=bool))
        self._clock = 0  # logical LRU timestamp, bumped per wave
        # The wave's victim key (ChunkDirectory.victim_key), built at
        # its first pressure event with the wave's pinned mask, and kept
        # current by every install and eviction until the next wave.
        self._victim_key: np.ndarray | None = None
        self._key_pinned: np.ndarray | None = None
        #: Under LFU, the per-chunk resident heat sums behind the key's
        #: buckets (python floats); None under LRU or with no live key.
        self._heat_sum: list[float] | None = None
        self._chunk_sizes: list[int] = self.directory.num_blocks.tolist()
        if obs is not None and obs.profiler is not None:
            # Every wave runs one of the two per-wave entry points, and
            # the prefetch tree walks count in the drain's self time.
            obs.profiler.install(self, {
                "_process_blocks": WAVE_SPAN,
                "_process_grouped": WAVE_SPAN,
                "_drain_migrations": "migrate_drain",
                "_make_room": "uvm.eviction",
            })
            self.process_wave_batch = obs.profiler.wrap(
                "uvm.batch", self.process_wave_batch,
                args=lambda waves, tenants=None: {"tenants": tenants})

    # ------------------------------------------------------------------
    # wave processing
    # ------------------------------------------------------------------

    def process_wave(self, pages: np.ndarray, is_write: np.ndarray,
                     counts: np.ndarray | None = None,
                     grouped: tuple[np.ndarray, np.ndarray, np.ndarray]
                     | None = None) -> WaveOutcome:
        """Resolve one wave of page accesses; returns its event counts.

        ``counts`` optionally weights each entry with the number of
        coalesced accesses it represents (default: one each).
        ``grouped`` optionally carries the wave's :func:`group_wave`
        result, as a replayed trace stores it: the driver then skips
        grouping, and its resident fast path works on the distinct
        blocks.  A live wave keeps the fast path over every entry, which
        is cheaper than grouping it first.
        """
        if grouped is not None:
            return self._process_grouped(*grouped)
        blocks, is_write, counts = self._prepare_wave(pages, is_write, counts)
        return self._process_blocks(blocks, is_write, counts)

    def _prepare_wave(self, pages, is_write, counts):
        """Validate/convert one wave's arrays; returns block-space form.

        Like :class:`~repro.workloads.base.Wave`, rejects an access
        count below 1, so every far block of a wave has at least one
        access.
        """
        pages = np.asarray(pages, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if pages.shape != is_write.shape:
            raise ValueError("pages and is_write must have identical shape")
        if counts is None:
            counts = default_counts(pages.size)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != pages.shape:
                raise ValueError("counts must match pages in shape")
            if counts.size and counts.min() < 1:
                raise ValueError("counts must be >= 1")
        return pages >> layout.BLOCK_SHIFT, is_write, counts

    def _process_blocks(self, blocks: np.ndarray, is_write: np.ndarray,
                        counts: np.ndarray) -> WaveOutcome:
        """The wave pipeline over prepared block-space arrays."""
        out = WaveOutcome(n_accesses=int(counts.sum()))
        if blocks.size == 0:
            return out
        self._begin_wave()

        # -- resident fast path ------------------------------------------
        # Steady state for a warmed-up working set: every accessed block
        # already device-resident.  One residency gather detects it, and
        # the wave then needs only local-service accounting, the dirty
        # marks, the LRU touch, and the counter add -- no per-block
        # grouping, policy consultation, fault injection, or room-making.
        # Duplicate block/chunk ids are harmless to each of those updates,
        # so the grouping pass is skipped entirely; outcomes and driver
        # state are bit-identical to the full pipeline (property-tested
        # against the reference driver in ``tests/oracle.py``).
        if kernels.resident_all(self.residency.resident, blocks):
            return self._resident_wave(out, blocks, blocks[is_write],
                                       counts, self.counters.add_accesses)

        ublocks, totals, w_counts = group_wave(blocks, is_write, counts)
        return self._resolve_grouped(out, ublocks, totals, w_counts,
                                     self.residency.resident[ublocks])

    def _process_grouped(self, ublocks: np.ndarray, totals: np.ndarray,
                         w_counts: np.ndarray) -> WaveOutcome:
        """The wave pipeline for a wave that carries its grouping.

        The resident fast path runs on the distinct blocks: the
        residency gather that selects it doubles as the full pipeline's
        resident mask, and its counter add needs no duplicate-safe
        scatter.
        """
        out = WaveOutcome(n_accesses=int(totals.sum()))
        if ublocks.size == 0:
            return out
        self._begin_wave()
        res_mask = self.residency.resident[ublocks]
        if res_mask.all():
            return self._resident_wave(out, ublocks, ublocks[w_counts > 0],
                                       totals,
                                       self.counters.add_accesses_unique)
        return self._resolve_grouped(out, ublocks, totals, w_counts,
                                     res_mask)

    def _begin_wave(self) -> None:
        """Per-wave state every non-empty wave starts from."""
        self._clock += 1
        self._victim_key = None
        self._heat_sum = None
        if self._bus is not None:
            # Wave context for every event emitted below this frame.
            self._bus.wave = self.stats.waves

    def _end_wave(self, out: WaveOutcome) -> WaveOutcome:
        """Fold a resolved wave into the run statistics."""
        self.stats.waves += 1
        self.stats.totals.merge(out)
        if self.debug_invariants:
            self.check_consistency()
        return out

    def _resident_wave(self, out: WaveOutcome, blocks: np.ndarray,
                       written: np.ndarray, amounts: np.ndarray,
                       add) -> WaveOutcome:
        """The resident fast path: every block in ``blocks`` is resident.

        ``written`` are the blocks the wave writes, and ``add`` the
        counter update that suits ``blocks`` (duplicate-safe or not).
        """
        out.n_local = out.n_accesses
        if written.size:
            self._note_dirty(written)
        self.directory.last_touch[
            self.directory.chunk_of_block[blocks]] = self._clock
        add(blocks, amounts, out.n_accesses)
        self.stats.fast_path_waves += 1
        return self._end_wave(out)

    def _resolve_grouped(self, out: WaveOutcome, ublocks: np.ndarray,
                         totals: np.ndarray, w_counts: np.ndarray,
                         res_mask: np.ndarray) -> WaveOutcome:
        """The full pipeline over a grouped wave and its resident mask."""
        # LRU touch + warp pinning for every addressed chunk: one scatter
        # of the chunk ids, whose spare last slot absorbs the -1 of
        # blocks in alignment gaps.
        directory = self.directory
        addressed = np.zeros(directory.num_chunks + 1, dtype=bool)
        addressed[directory.chunk_of_block[ublocks]] = True
        pinned = addressed[:-1]
        directory.last_touch[pinned] = self._clock

        # -- resident blocks: local service ------------------------------
        out.n_local += int(totals[res_mask].sum())
        dirty_now = ublocks[res_mask & (w_counts > 0)]
        if dirty_now.size:
            self._note_dirty(dirty_now)

        # -- non-resident blocks: policy decision -------------------------
        # (Decided against pre-wave counter values, then counters updated.)
        # Both callers come here only when some block is not resident.
        nr = ~res_mask
        self._handle_far_accesses(ublocks[nr], totals[nr], w_counts[nr],
                                  pinned, out)
        if self.debug_invariants and self._victim_key is not None:
            # Before the counter add below moves the LFU heat.
            self._check_victim_key()

        # Historic counters track local and remote accesses alike (Sec. IV).
        # Grouped blocks are distinct, so the plain fancy add applies.
        self.counters.add_accesses_unique(ublocks, totals, out.n_accesses)
        return self._end_wave(out)

    # ------------------------------------------------------------------
    # multi-tenant dispatch (serving layer)
    # ------------------------------------------------------------------

    def process_wave_batch(self, waves, tenants=None) -> list[WaveOutcome]:
        """Resolve a batch of waves one after another, in order.

        ``waves`` is a sequence of ``(pages, is_write, counts)`` triples
        (``counts`` may be ``None``) -- in the serving layer, one ready
        wave from each tenant of a scheduler slot.  ``tenants``
        optionally carries a parallel tenant id per wave, which
        eviction/thrash attribution charges the wave's pressure to.

        Every wave runs the per-wave pipeline of :meth:`process_wave`,
        so the outcomes, driver state and events equal those of
        ``[self.process_wave(*w) for w in waves]``.  The loop does not
        go through :meth:`process_wave` itself: wrappers may hook either
        entry point, or route one through the other.
        """
        attribution = self.attribution
        if attribution is None or tenants is None:
            return [self._process_blocks(*self._prepare_wave(p, w, c))
                    for p, w, c in waves]
        prev = attribution.current
        outs: list[WaveOutcome] = []
        try:
            for (p, w, c), tenant in zip(waves, tenants):
                attribution.current = prev if tenant is None else tenant
                outs.append(self._process_blocks(*self._prepare_wave(p, w, c)))
        finally:
            attribution.current = prev
        return outs

    def _handle_far_accesses(self, nrb: np.ndarray, k: np.ndarray,
                             kw: np.ndarray, pinned: np.ndarray,
                             out: WaveOutcome) -> None:
        """Split far accesses into remote service and migrations.

        The decision itself is one fused array kernel: the policy
        produces the per-block thresholds (both Equation-1 regimes fused
        in :func:`repro.uvm.thresholds.eq1_thresholds`) and counter
        baselines, and the migrate/remote partition falls out of a
        single vectorized comparison.  Per-block observability events
        are materialized only when an event sink is actually attached.

        A first-touch wave (every threshold 1 and baseline 0, no hint,
        no fault injector) migrates every block with no remote access,
        so it goes straight to the drain: every block has at least one
        access (wave preparation and the trace loader reject counts
        below 1).
        """
        if self._plain_far_path and self.policy.first_touch(self):
            bus = self._bus
            if bus is not None and bus.enabled:
                wave = bus.wave
                for b, kk in zip(nrb.tolist(), k.tolist()):
                    bus.emit(MigrationDecision(wave=wave, block=b,
                                               threshold=1, counter=0,
                                               accesses=kk, migrated=True))
            self._drain_migrations(nrb, k, kw, None, pinned, out)
            return
        td, c0 = self._decision_state(nrb)
        migrate, slack = kernels.decide(c0, k, td)
        if self._has_pinned:
            pinned_host = self.block_pinned_host[nrb]
            if pinned_host.any():
                migrate &= ~pinned_host

        # Injected transient faults: a migration that exhausts its retry
        # budget degrades to the remote path (joins the non-migrating
        # blocks below); surviving retries charge backoff to the wave.
        if (self.injector is not None and self.injector.enabled
                and migrate.any()):
            self._inject_migration_faults(nrb, k, slack, migrate, out)

        bus = self._bus
        if bus is not None and bus.enabled:
            wave = bus.wave
            for b, t, c, kk, m in zip(nrb.tolist(), td.tolist(), c0.tolist(),
                                      k.tolist(), migrate.tolist()):
                bus.emit(MigrationDecision(wave=wave, block=b, threshold=t,
                                           counter=c, accesses=kk,
                                           migrated=m))

        # Accesses served remotely before a (possible) migration trigger.
        remote = kernels.remote_counts(migrate, slack, k)
        out.n_remote += int(remote.sum())
        # Volta hardware counters see every remote access (``nrb`` is
        # duplicate-free: a subset of the wave's grouped blocks).
        self.counters.add_remote_accesses_unique(nrb, remote)

        # Blocks that stay host-pinned get (or keep) a remote mapping.
        staying = nrb[~migrate]
        if staying.size:
            out.mapping_faults += staying.size - int(np.count_nonzero(
                self.host.remote_mapped[staying]))
            self.host.map_remote(staying)

        # Migrations drain in arrival order so prefetch and eviction
        # interact like fault-buffer draining in the real driver.
        mig = nrb[migrate]
        if mig.size:
            self._drain_migrations(mig, k[migrate], kw[migrate],
                                   remote[migrate], pinned, out)

    def _decision_state(self, nrb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Policy decision state for ``nrb``, with hint overrides applied."""
        td, c0 = self.policy.decision_state(nrb, self)
        td = np.asarray(td, dtype=np.int64)
        c0 = np.asarray(c0, dtype=np.int64)

        # Programmer hints override the policy (Section III-C).  Whether
        # any hint exists at all is precomputed at construction, so the
        # unhinted common case pays no per-wave gather.
        if self._has_preferred:
            preferred = self.block_preferred_host[nrb]
            if preferred.any():
                ts = self.config.policy.static_threshold
                volta = self.counters.volta_counts[nrb]
                td = np.where(preferred, np.maximum(td, ts), td)
                c0 = np.where(preferred, volta, c0)
        return td, c0

    def _inject_migration_faults(self, nrb: np.ndarray, k: np.ndarray,
                                 slack: np.ndarray, migrate: np.ndarray,
                                 out: WaveOutcome) -> None:
        """Draw fault outcomes for every would-be migration, in order.

        Mutates ``migrate`` in place: blocks whose migration failed past
        the retry budget are flipped to the remote path.  Draw order is
        wave order, so results are a pure function of the run seed.
        ``slack`` is :func:`repro.accel.kernels.decide`'s.
        """
        fcfg = self.config.faults
        injector = self.injector
        bus = self._bus
        bus_on = bus is not None and bus.enabled
        for i in np.flatnonzero(migrate).tolist():
            failures, ok = injector.migration_attempt()
            if failures:
                out.retried_transfers += failures
                out.retry_backoff_us += fcfg.total_backoff_us(failures)
            if not ok:
                migrate[i] = False
                # The accesses that would have hit device memory after
                # the migration stay on the remote zero-copy path (a
                # migrating block has ``slack < k``).
                would_remote = max(int(slack[i]), 0)
                out.degraded_accesses += int(k[i]) - would_remote
            if bus_on and (failures or not ok):
                bus.emit(FaultRetry(wave=bus.wave, block=int(nrb[i]),
                                    failures=failures, degraded=not ok))

    def _drain_migrations(self, mig: np.ndarray, mig_k: np.ndarray,
                          mig_kw: np.ndarray, mig_remote: np.ndarray | None,
                          pinned: np.ndarray, out: WaveOutcome) -> None:
        """Drain a wave's migrations through chunk-grouped bulk installs.

        Produces bit-identical event counts to draining one block at a
        time (the reference drain in ``tests/oracle.py`` overrides this
        method; the property suites compare the two).  Blocks still
        drain in arrival order (prefetch decisions are inherently
        sequential within a chunk's tree), but installs only append to
        per-chunk pending batches, which each flush commits in one
        :meth:`_install` pass.  A fault that finds no free frame flushes,
        makes room for its own block and then joins the pending batches
        like any other.  Pending state is flushed before any eviction,
        so victim selection, write-back accounting and round-trip
        counters observe exactly the state the per-block drain would.

        Each chunk's tree mask is the drain's residency index: every
        prefetch strategy marks the leaves it pulls in, so within a
        drain the mask holds the chunk's resident and pending blocks.
        ``mig_remote`` is None when no access was served remotely.
        """
        trees = self.trees
        if type(self.prefetcher) is TreePrefetchStrategy:
            # The default strategy is a bare delegation to the chunk
            # tree, whose unbound walk hands back a tuple of ints.
            prefetch = PrefetchTree.fault
        else:
            on_fault = self.prefetcher.on_fault

            def prefetch(tree: PrefetchTree, leaf: int) -> list[int]:
                return on_fault(tree, leaf).tolist()
        bus = self._bus
        bus_on = bus is not None and bus.enabled
        pending: dict[int, list[int]] = {}
        pending_dirty: list[int] = []

        def flush() -> None:
            if pending:
                if len(pending) == 1:
                    (cid, blks), = pending.items()
                    self._install(np.array(blks, dtype=np.int64), [cid],
                                  [len(blks)], out)
                else:
                    blocks = np.array(
                        list(chain.from_iterable(pending.values())),
                        dtype=np.int64)
                    self._install(blocks, list(pending),
                                  [len(blks) for blks in pending.values()],
                                  out)
                pending.clear()
            if pending_dirty:
                self._note_dirty(np.array(pending_dirty, dtype=np.int64))
                pending_dirty.clear()

        # Chunk geometry is static: gather it for the whole batch once.
        cids = self.directory.chunk_of_block[mig]
        if cids.min() < 0:
            bad = int(mig[np.argmin(cids)])
            raise RuntimeError(f"block {bad} belongs to no chunk")
        firsts = self.directory.first_block[cids]

        #: Frames still free once all pending installs commit; kept as a
        #: plain int so the drain loop never touches the device ledger.
        free = self.device.free_blocks
        # Hot counters accumulate in locals and fold into ``out`` once.
        n_local = faults = prefetched = 0
        for b, kk, kkw, rr, cid, first in zip(
                mig.tolist(), mig_k.tolist(), mig_kw.tolist(),
                repeat(0) if mig_remote is None else mig_remote.tolist(),
                cids.tolist(), firsts.tolist()):
            tree = trees[cid]
            leaf = b - first
            if tree.mask >> leaf & 1:
                # A prefetch earlier in this drain already pulled it in.
                n_local += kk - rr
                if kkw > 0:
                    pending_dirty.append(b)
                continue
            if free < 1:
                # The fault itself needs an eviction: commit pending
                # state, then make room for this block alone.
                flush()
                if not self._make_room(1, pinned, cid, out):
                    # No room even after eviction attempts: serve remotely.
                    out.n_remote += kk - rr
                    if not self.host.remote_mapped[b]:
                        out.mapping_faults += 1
                        self.host.map_remote(np.array([b]))
                    free = self.device.free_blocks
                    continue
                free = self.device.free_blocks
            # The fault block joins the pending installs.
            pf_leaves = prefetch(tree, leaf)
            chunk_pending = pending.get(cid)
            if chunk_pending is None:
                chunk_pending = pending[cid] = []
            chunk_pending.append(b)
            free -= 1
            faults += 1
            n_local += kk - rr - 1
            if kkw > 0:
                pending_dirty.append(b)
            if not pf_leaves:
                continue
            n_pf = len(pf_leaves)
            if free >= n_pf:
                chunk_pending.extend([first + pf for pf in pf_leaves])
                free -= n_pf
                prefetched += n_pf
                if bus_on:
                    bus.emit(PrefetchExpand(wave=bus.wave, chunk=cid,
                                            fault_block=b, blocks=n_pf))
            else:
                # The prefetch batch needs an eviction: commit pending
                # state (including this fault block), then make room
                # exactly as the per-block path would.
                flush()
                if self._make_room(n_pf, pinned, cid, out):
                    pf_blocks = np.array(pf_leaves, dtype=np.int64) + first
                    self._install(pf_blocks, [cid], [n_pf], out)
                    out.prefetched_blocks += n_pf
                    if bus_on:
                        bus.emit(PrefetchExpand(wave=bus.wave, chunk=cid,
                                                fault_block=b,
                                                blocks=n_pf))
                else:
                    # Could not hold the prefetch: roll the leaves back
                    # out of the tree.
                    self._rebuild_tree(cid)
                free = self.device.free_blocks
        flush()
        out.n_local += n_local
        out.fault_migrations += faults
        out.migrated_blocks += faults
        out.prefetched_blocks += prefetched

    # ------------------------------------------------------------------
    # migration machinery
    # ------------------------------------------------------------------

    def _install(self, blocks: np.ndarray, cids: list[int],
                 sizes: list[int], out: WaveOutcome) -> None:
        """Claim frames and map ``blocks`` device-resident, in one pass.

        ``blocks`` holds ``sizes[i]`` blocks of chunk ``cids[i]`` for
        each ``i``, one chunk after another; the chunk ids are distinct.
        Installed blocks that already took an eviction round trip are
        charged to ``out`` as thrash migrations.  Their dirty bits are
        already clear: every eviction and release clears them.
        """
        counters = self.counters
        self.device.allocate(int(blocks.size))
        self.residency.resident[blocks] = True
        self.host.remote_mapped[blocks] = False
        counters.volta_counts[blocks] = 0
        self.ever_migrated[blocks] = True
        # Installs land in chunks the wave touched (a fault's own chunk),
        # so their LRU position is already this wave's.
        occupancy = self.directory.occupancy
        key = self._victim_key
        if key is None:
            for cid, n in zip(cids, sizes):
                occupancy[cid] += n
        else:
            heat = self._heat_sum
            if heat is not None:
                # Newly resident blocks contribute their heat to their
                # chunk.
                gained = counters.counts[blocks]
                if len(cids) == 1:
                    heat[cids[0]] += float(gained.sum())
                else:
                    starts = list(accumulate(sizes[:-1], initial=0))
                    for cid, h in zip(
                            cids, np.add.reduceat(gained, starts).tolist()):
                        heat[cid] += h
            for cid, n in zip(cids, sizes):
                occ = int(occupancy[cid]) + n
                occupancy[cid] = occ
                # New blocks are clean: the chunk keeps its dirty flag.
                entry = int(key[cid])
                self._rekey(cid, occ,
                            0 if entry == KEY_MAX else entry & DIRTY)
        if counters.has_roundtrips:
            thrashy = blocks[counters.roundtrips[blocks] > 0]
            if thrashy.size:
                out.thrash_migrations += int(thrashy.size)
                self.stats.thrashed[thrashy] = True
                if self.attribution is not None:
                    self.attribution.on_thrash(thrashy)

    def _note_dirty(self, blocks: np.ndarray) -> None:
        """Mark blocks dirty, setting the LFU dirty bit of their chunks."""
        self.residency.mark_dirty(blocks)
        if self._heat_sum is not None:
            # Dirty blocks are resident, so their chunks are populated
            # (an unpopulated chunk's KEY_MAX has the bit set anyway).
            self._victim_key[self.directory.chunk_of_block[blocks]] |= DIRTY

    def _fresh_victim_key(self, pinned: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray | None]:
        """The victim key built from scratch, and its LFU heat sums.

        The heat sums are ``None`` under LRU.
        """
        directory = self.directory
        policy = self.config.memory.replacement
        if policy is not ReplacementPolicy.LFU:
            return directory.victim_key(policy, pinned), None
        heat = directory.resident_heat(self.counters.counts,
                                       self.residency.resident)
        dirty = directory.chunk_dirty(self.residency.dirty)
        return directory.victim_key(policy, pinned, heat, dirty), heat

    def _rekey(self, cid: int, occ: int, dirty: int) -> None:
        """Rewrite chunk ``cid``'s entry of the live victim key.

        One chunk's :meth:`ChunkDirectory.victim_key` in plain Python
        scalars, for occupancy ``occ``; ``dirty`` is ``DIRTY`` or 0,
        whether any of its resident blocks is dirty (LFU only).
        """
        if occ == 0:
            entry = KEY_MAX
        else:
            entry = int(self.directory.last_touch[cid])
            if self._key_pinned[cid]:
                entry |= PINNED
            elif occ < self._chunk_sizes[cid]:
                entry |= PARTIAL
            heat = self._heat_sum
            if heat is not None:
                entry |= heat_bucket(heat[cid], occ) << BUCKET_SHIFT | dirty
        self._victim_key[cid] = entry

    def _rebuild_tree(self, cid: int) -> None:
        """Resynchronize a chunk's tree with the residency map."""
        tree = self.trees[cid]
        tree.clear()
        chunk_blocks = self.directory.blocks_of_chunk(cid)
        tree.install_leaves(
            np.flatnonzero(self.residency.resident[chunk_blocks]))

    def _make_room(self, n_blocks: int, pinned: np.ndarray, never: int,
                   out: WaveOutcome) -> bool:
        """Evict until ``n_blocks`` frames are free; False if impossible.

        ``never`` is the chunk the frames are for, which is never a
        victim.  At the default 2MB granularity whole victim chunks are
        evicted; at 64KB granularity only as many blocks as needed are
        evicted from each victim chunk, coldest blocks first.
        """
        if self.device.can_fit(n_blocks):
            return True
        self.device.note_pressure()
        needed = n_blocks - self.device.free_blocks
        key = self._victim_key
        if key is None:
            # The wave's first pressure event builds the key; installs
            # and evictions keep it current until the next wave (only
            # they move occupancy, heat and dirty flags mid-wave, and
            # ``last_touch`` and ``pinned`` are fixed per wave).
            key, heat = self._fresh_victim_key(pinned)
            self._victim_key, self._key_pinned = key, pinned
            self._heat_sum = None if heat is None else heat.tolist()
        try:
            victims = select_victims(self.directory, needed, key, never)
        except RuntimeError:
            return False
        block_granular = (self.config.memory.eviction_granularity
                          is EvictionGranularity.BLOCK_64KB)
        for cid in victims:
            if block_granular:
                still_needed = n_blocks - self.device.free_blocks
                if still_needed <= 0:
                    break
                self._evict_blocks(cid, still_needed, out)
            else:
                self._evict_chunk(cid, out)
        return self.device.can_fit(n_blocks)

    def _evict_blocks(self, cid: int, n_wanted: int,
                      out: WaveOutcome) -> None:
        """Evict up to ``n_wanted`` of chunk ``cid``'s coldest blocks."""
        chunk_blocks = self.directory.blocks_of_chunk(cid)
        rblocks = chunk_blocks[self.residency.resident[chunk_blocks]]
        if rblocks.size == 0:
            return
        order = np.argsort(self.counters.counts[rblocks], kind="stable")
        victims = rblocks[order[:n_wanted]]
        first = int(self.directory.first_block[cid])
        self.trees[cid].remove_leaves(victims - first)
        if self.attribution is not None:
            self.attribution.on_evict(victims)
        n_dirty = self.residency.evict(victims)
        self.counters.add_roundtrip(victims)
        self.device.release(int(victims.size))
        occ = int(self.directory.occupancy[cid]) - int(victims.size)
        self.directory.occupancy[cid] = occ
        if self._victim_key is not None:
            dirty = 0
            if self._heat_sum is not None:
                self._heat_sum[cid] -= float(
                    self.counters.counts[victims].sum())
                if self.residency.dirty[chunk_blocks].any():
                    dirty = DIRTY
            self._rekey(cid, occ, dirty)
        out.evicted_chunks += int(victims.size == rblocks.size)
        out.evicted_blocks += int(victims.size)
        out.writeback_blocks += n_dirty
        if self._bus is not None and self._bus.enabled:
            self._bus.emit(Eviction(wave=self._bus.wave, chunk=cid,
                                    blocks=int(victims.size),
                                    dirty_blocks=n_dirty,
                                    whole_chunk=False))

    def _evict_chunk(self, cid: int, out: WaveOutcome) -> None:
        """Evict every resident block of chunk ``cid``."""
        chunk_blocks = self.directory.blocks_of_chunk(cid)
        rblocks = chunk_blocks[self.residency.resident[chunk_blocks]]
        if rblocks.size == 0:
            return
        if self.attribution is not None:
            self.attribution.on_evict(rblocks)
        n_dirty = self.residency.evict(rblocks)
        self.counters.add_roundtrip(rblocks)
        self.device.release(int(rblocks.size))
        self.trees[cid].clear()
        self.directory.occupancy[cid] = 0
        if self._victim_key is not None:
            self._victim_key[cid] = KEY_MAX
            if self._heat_sum is not None:
                self._heat_sum[cid] = 0.0
        out.evicted_chunks += 1
        out.evicted_blocks += int(rblocks.size)
        out.writeback_blocks += n_dirty
        if self._bus is not None and self._bus.enabled:
            self._bus.emit(Eviction(wave=self._bus.wave, chunk=cid,
                                    blocks=int(rblocks.size),
                                    dirty_blocks=n_dirty,
                                    whole_chunk=True))

    # ------------------------------------------------------------------
    # tenant teardown (serving layer)
    # ------------------------------------------------------------------

    def release_chunks(self, chunk_ids) -> tuple[int, int]:
        """Tear down a departing tenant's chunks; used by ``repro serve``.

        Unlike eviction under pressure this is a *free* release: the
        owner has completed, so freed blocks charge no round-trip
        counters (a later re-migration of the range by a reincarnated
        allocation is not thrashing), select no victims, and emit no
        :class:`~repro.obs.events.Eviction` events.  Dirty blocks still
        count as write-backs -- the device copy must reach the host
        before the frames are reused -- and the caller charges that
        traffic to the timing model.  Remote zero-copy mappings for the
        range are also dropped.

        Returns ``(freed_blocks, writeback_blocks)``.
        """
        freed = 0
        writebacks = 0
        for cid in chunk_ids:
            cid = int(cid)
            chunk_blocks = self.directory.blocks_of_chunk(cid)
            rblocks = chunk_blocks[self.residency.resident[chunk_blocks]]
            if rblocks.size:
                writebacks += self.residency.evict(rblocks)
                self.device.release(int(rblocks.size))
                self.trees[cid].clear()
                self.directory.occupancy[cid] = 0
                freed += int(rblocks.size)
            self.host.remote_mapped[chunk_blocks] = False
        if freed:
            # The victim key reflects pre-release residency.
            self._victim_key = None
            self._heat_sum = None
        return freed, writebacks

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def fast_path_hit_rate(self) -> float:
        """Fraction of waves resolved by the resident fast path.

        1.0 means every wave found its whole working set device-resident
        (steady state, no oversubscription churn); 0.0 means the full
        pipeline ran every wave.  Exported as the ``driver.fast_path_hit_rate``
        gauge when an observability handle is attached.
        """
        if self.stats.waves == 0:
            return 0.0
        return self.stats.fast_path_waves / self.stats.waves

    def check_consistency(self) -> None:
        """Verify every cross-structure invariant; raise AssertionError.

        The residency map, the device ledger and the chunk occupancies
        agree, in total and per chunk; the device is not over capacity;
        no block is both device-resident and remote-mapped; every
        chunk's tree mask lies inside its chunk and holds exactly its
        resident blocks (the migration drain reads residency off it);
        and no block outside device memory is dirty (installs leave the
        dirty bit as they find it).  Each failure names the structure
        and the wave count.  ``SimulationConfig.debug_invariants`` (the
        CLI's ``--debug-invariants``) runs it after every wave, together
        with :meth:`_check_victim_key`, to pinpoint the first wave at
        which accounting drifted; the tests call it directly.  It raises
        explicitly, so it checks under ``python -O`` too.
        """
        wave = self.stats.waves
        used = self.device.used_blocks
        capacity = self.device.capacity_blocks
        if used > capacity:
            raise AssertionError(
                f"wave {wave}: the device ledger charges {used} blocks, "
                f"over the device capacity of {capacity} blocks")
        on_device = self.residency.resident
        resident = self.residency.resident_count
        if resident != used:
            raise AssertionError(
                f"wave {wave}: residency map holds {resident} resident "
                f"blocks but the device ledger charges {used}")
        occupancy = self.directory.occupancy
        total = int(occupancy.sum())
        if total != used:
            raise AssertionError(
                f"wave {wave}: chunk occupancy sums to {total} but the "
                f"device ledger charges {used}")
        both = self.host.remote_mapped & on_device
        if both.any():
            raise AssertionError(
                f"wave {wave}: block {int(np.argmax(both))} is both "
                f"device-resident and remote-mapped")
        for cid, tree in enumerate(self.trees):
            try:
                tree.check_invariants()
            except AssertionError as exc:
                raise AssertionError(
                    f"wave {wave}: tree of chunk {cid}: {exc}") from None
            leaves = np.flatnonzero(
                on_device[self.directory.blocks_of_chunk(cid)]).tolist()
            held = tree.resident_leaves().tolist()
            if held != leaves:
                raise AssertionError(
                    f"wave {wave}: tree of chunk {cid} holds leaves "
                    f"{held}, its resident blocks are leaves {leaves}")
            if int(occupancy[cid]) != len(leaves):
                raise AssertionError(
                    f"wave {wave}: occupancy of chunk {cid} is "
                    f"{int(occupancy[cid])}, it holds {len(leaves)} "
                    f"resident blocks")
        stale = self.residency.dirty & ~on_device
        if stale.any():
            raise AssertionError(
                f"wave {wave}: block {int(np.argmax(stale))} is dirty but "
                f"not device-resident")

    def _check_victim_key(self) -> None:
        """The live victim key equals one built from scratch now.

        Part of the ``debug_invariants`` audit, run after a wave's far
        accesses and before its counter add moves the LFU heat.
        """
        key, heat = self._fresh_victim_key(self._key_pinned)
        stale = np.flatnonzero(self._victim_key != key)
        if stale.size:
            cid = int(stale[0])
            raise AssertionError(
                f"wave {self.stats.waves}: victim key of chunk {cid} is "
                f"{int(self._victim_key[cid])}, a fresh build gives "
                f"{int(key[cid])}")
        if heat is not None and self._heat_sum != heat.tolist():
            raise AssertionError(
                f"wave {self.stats.waves}: LFU heat sums differ from a "
                f"fresh build")
