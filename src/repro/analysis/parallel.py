"""Fault-tolerant parallel experiment grid runner.

Every figure and sweep replays a (workload x policy x oversubscription)
grid whose cells are completely independent simulations: each one
constructs its own :class:`~repro.config.SimulationConfig`, its own
workload generator, and its own driver state.  This module fans those
cells out across a :class:`~concurrent.futures.ProcessPoolExecutor`
and keeps the sweep alive through the failures a long grid actually
meets in practice:

* a **crashed worker** (OOM-kill, segfaulting interpreter) breaks the
  whole pool in ``concurrent.futures``; the runner rebuilds the pool
  and re-submits only the cells whose results were lost;
* a **flaky cell** (transient resource exhaustion) is retried with
  exponential backoff up to :attr:`GridOptions.retries` times before
  the sweep gives up with :class:`GridExecutionError`;
* a **hung pool** (no cell completing for
  :attr:`GridOptions.cell_timeout` seconds) is terminated and rebuilt;
* an environment with **no working process pools at all** (restricted
  sandboxes, missing semaphores) degrades to the serial path;
* a **killed sweep** resumes from its JSONL checkpoint journal
  (:mod:`repro.analysis.checkpoint`): completed cells are replayed
  bit-identical instead of re-simulated.

Cells of one grid share access streams: a figure evaluates the same
``(workload, scale, seed)`` stream under several schemes, and a sweep
under several oversubscription levels.  :func:`run_grid` therefore
records each stream once into a :class:`~repro.trace.TraceCache` and
every cell replays it (:class:`~repro.trace.TraceWorkload`) instead of
regenerating its waves.  The serial path records a stream right before
the first cell that needs it and loads it once for every consecutive
cell that replays it; the parallel path records every stream before
fan-out, so workers only replay.

Determinism is preserved by construction:

* every :class:`GridCell` carries its own seed (the per-cell RNG is
  derived from it inside the worker, never from shared process state),
  so a cell's :class:`~repro.sim.results.RunResult` is a pure function
  of the cell spec;
* :func:`run_grid` returns results in cell order regardless of which
  worker finished first, how often the pool was rebuilt, or how many
  cells came from a checkpoint.

Consequently ``run_grid(cells, max_workers=N)`` is bit-identical to the
serial ``[run_cell(c) for c in cells]`` for any ``N``, with or without
interruptions.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, dataclass, fields, replace

from ..config import (EvictionGranularity, FaultConfig, MemoryConfig,
                      MigrationPolicy, PolicyConfig, PrefetcherKind,
                      SimulationConfig)
from ..sim.results import RunResult
from ..sim.simulator import Simulator
from ..trace.replay import TraceWorkload
from ..workloads import make_workload

#: Broken-pool incarnations tolerated before degrading to serial.
_MAX_POOL_REBUILDS = 2

#: Upper bound on any single backoff sleep, seconds.
_MAX_BACKOFF_S = 10.0


@dataclass(frozen=True)
class GridCell:
    """One independent experiment: an access stream and its knobs.

    A config knob defaults to its config dataclass's own default, so a
    cell that omits one runs the default configuration of that knob;
    :func:`cell_config` maps the knobs to a :class:`SimulationConfig`.
    """

    workload: str
    policy: MigrationPolicy = PolicyConfig.policy
    #: Working set as a fraction of device memory (the paper's 125%).
    oversubscription: float = 1.25
    scale: str = "small"
    ts: int = PolicyConfig.static_threshold
    p: int = PolicyConfig.migration_penalty
    seed: int = SimulationConfig.seed
    collect_histogram: bool = SimulationConfig.collect_page_histogram
    collect_trace: bool = SimulationConfig.collect_access_trace
    #: Injected transient-fault rates (see :mod:`repro.uvm.faults`).
    transfer_fault_rate: float = FaultConfig.transfer_fault_rate
    migration_fault_rate: float = FaultConfig.migration_fault_rate
    fault_retries: int = FaultConfig.max_retries
    #: Correlated fault-storm chain (Markov burst modulation of the
    #: fault rates); 0.0 ``fault_burst_on`` disables the chain.
    fault_burst_on: float = FaultConfig.burst_on_prob
    fault_burst_off: float = FaultConfig.burst_off_prob
    fault_burst_mult: float = FaultConfig.burst_multiplier
    #: Eviction granularity (``2mb`` or ``64kb``, Table I).
    evict: str = "2mb"
    #: Prefetcher strategy and degree (Table I: tree-based default).
    prefetcher: str = MemoryConfig.prefetcher.value
    prefetch_degree: int = MemoryConfig.prefetch_degree
    #: Equation-1 growth function and the historic-counter ablation
    #: (see :class:`repro.config.PolicyConfig`).
    threshold_variant: str = PolicyConfig.threshold_variant
    historic_counters: bool = PolicyConfig.historic_counters
    #: Replay the access stream from this recorded trace (an ``.npz``
    #: file or mmap-able trace directory) instead of regenerating it.
    #: :func:`run_grid` fills it in, from its trace cache, for every
    #: cell that leaves it ``None``; :func:`run_cell` on such a cell
    #: generates the stream live.  A pure performance hint: replay is
    #: bit-identical to live generation, so it is excluded from the
    #: cell's checkpoint and archive identity.
    trace_path: str | None = None


#: Eviction granularity named by each ``GridCell.evict`` value.
EVICTION_GRANULARITIES = {"2mb": EvictionGranularity.CHUNK_2MB,
                          "64kb": EvictionGranularity.BLOCK_64KB}

#: Every :class:`GridCell` knob default, by field name.
_KNOB_DEFAULTS = {f.name: f.default for f in fields(GridCell)
                  if f.default is not MISSING}


def cell_config(knobs) -> SimulationConfig:
    """The :class:`SimulationConfig` a set of knobs describes.

    ``knobs`` maps :class:`GridCell` field names to values; an omitted
    knob takes its :class:`GridCell` default.  The fields naming the
    access stream (``workload``, ``scale``, ``oversubscription``,
    ``trace_path``) do not enter the config.  This is the one mapping
    from knobs to a config: grid cells, the scenario compiler and the
    CLI all build theirs here.  Raises
    ``ValueError`` on a knob the config rejects.
    """
    k = {**_KNOB_DEFAULTS, **knobs}
    if k["evict"] not in EVICTION_GRANULARITIES:
        raise ValueError(f"unknown eviction granularity {k['evict']!r}; "
                         f"choose from {', '.join(EVICTION_GRANULARITIES)}")
    cfg = SimulationConfig(seed=k["seed"],
                           collect_page_histogram=k["collect_histogram"],
                           collect_access_trace=k["collect_trace"])
    cfg = cfg.with_policy(MigrationPolicy(k["policy"]),
                          static_threshold=k["ts"], migration_penalty=k["p"],
                          threshold_variant=k["threshold_variant"],
                          historic_counters=k["historic_counters"])
    cfg = cfg.with_eviction_granularity(EVICTION_GRANULARITIES[k["evict"]])
    cfg = cfg.with_prefetcher(PrefetcherKind(k["prefetcher"]),
                              degree=k["prefetch_degree"])
    # The fault knobs only count while a fault can fire, and the storm
    # knobs only while the storm chain is on.
    if k["transfer_fault_rate"] or k["migration_fault_rate"]:
        storm = {}
        if k["fault_burst_on"]:
            storm = dict(burst_on_prob=k["fault_burst_on"],
                         burst_off_prob=k["fault_burst_off"],
                         burst_multiplier=k["fault_burst_mult"])
        cfg = cfg.with_faults(
            transfer_fault_rate=k["transfer_fault_rate"],
            migration_fault_rate=k["migration_fault_rate"],
            max_retries=k["fault_retries"], **storm)
    return cfg.validate()


@dataclass(frozen=True)
class GridOptions:
    """Resilience knobs for :func:`run_grid`."""

    #: Extra attempts per cell after its first failure.
    retries: int = 2
    #: Backoff before the first re-attempt, seconds (doubles per retry).
    retry_backoff_s: float = 0.25
    #: Declare the pool hung when no cell completes for this many
    #: seconds; its workers are terminated and the pool rebuilt.
    cell_timeout: float | None = None
    #: JSONL journal path; completed cells are appended as they finish.
    checkpoint: str | None = None
    #: Serve previously journaled cells from the checkpoint instead of
    #: re-simulating them.
    resume: bool = False
    #: Optional :class:`repro.obs.MetricsRegistry`: the runner records
    #: per-cell wall time (``grid.cell_ms`` histogram) and
    #: completion/retry/rebuild counters into it.  Never pickled to
    #: workers; purely an orchestrator-side rollup.
    metrics: object | None = None
    #: Optional :class:`repro.obs.store.RunStore`: every completed cell
    #: is archived as a ``grid-cell`` run under a shared sweep id, so
    #: whole figures/sweeps become ``repro diff``-able families.  Like
    #: ``metrics``, orchestrator-side only (never pickled to workers).
    archive: object | None = None
    #: Sweep id grouping this grid's archived cells; ``None`` derives a
    #: content-addressed id from the cell set.
    sweep_id: str | None = None
    #: Directory of a persistent :class:`repro.trace.TraceCache`.  Every
    #: grid records each distinct ``(workload, scale, seed)`` access
    #: stream once and replays it, memory-mapped, in every cell that
    #: shares it; this only chooses where the recordings live.  ``None``
    #: keeps them in a private temporary directory that the grid removes
    #: when it ends; a directory keeps them for later grids and sessions.
    #: Results are bit-identical either way.
    trace_cache: str | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.resume and not self.checkpoint:
            raise ValueError("resume requires a checkpoint path")


class _GridMetrics:
    """Orchestrator-side rollup of one :func:`run_grid` invocation.

    Thin adapter over a :class:`repro.obs.MetricsRegistry` so the hot
    harvest loops touch pre-resolved metric objects instead of doing
    name lookups per cell.
    """

    def __init__(self, registry) -> None:
        #: Per-cell wall time in milliseconds.  Serial cells measure the
        #: simulation exactly; parallel cells measure submit-to-harvest
        #: (queueing included), which is what sweep latency feels like.
        self.cell_ms = registry.histogram("grid.cell_ms")
        self.completed = registry.counter("grid.cells_completed")
        self.retried = registry.counter("grid.cell_retries")
        self.stalled = registry.counter("grid.cells_stalled")
        self.rebuilds = registry.counter("grid.pool_rebuilds")
        self.from_checkpoint = registry.counter("grid.cells_from_checkpoint")

    @staticmethod
    def of(opts: "GridOptions") -> "_GridMetrics | None":
        return _GridMetrics(opts.metrics) if opts.metrics is not None else None


class _Archiver:
    """Archives each completed cell into a run store, orchestrator-side.

    Provenance (git SHA, host fingerprint) is resolved once per grid,
    not once per cell; the sweep id defaults to a content-addressed
    hash of the whole cell set, so re-running the same grid lands in
    the same archive slots.
    """

    def __init__(self, store, cells, sweep_id: str | None) -> None:
        from ..obs.store import derive_sweep_id, git_info, host_info
        self.store = store
        self.sweep_id = sweep_id or derive_sweep_id(cells)
        self._git = git_info()
        self._host = host_info()

    @staticmethod
    def of(opts: "GridOptions", cells) -> "_Archiver | None":
        return (_Archiver(opts.archive, cells, opts.sweep_id)
                if opts.archive is not None else None)

    def archive(self, cell: GridCell, result: RunResult) -> str:
        from .checkpoint import encode_cell
        from ..obs.store import RunManifest
        # Like the journal, the archive describes the simulation, not
        # where its waves came from: a trace-cache path in the config
        # would change the run id and show up in ``repro diff``.
        manifest = RunManifest.create(
            kind="grid-cell", workload=cell.workload,
            policy=cell.policy.value, scale=cell.scale, seed=cell.seed,
            oversubscription=cell.oversubscription, config=encode_cell(cell),
            git=self._git, host=self._host, sweep_id=self.sweep_id)
        return self.store.archive(manifest, result)


class GridExecutionError(RuntimeError):
    """A grid cell kept failing after exhausting its retry budget."""

    def __init__(self, cell: GridCell, attempts: int) -> None:
        super().__init__(
            f"grid cell failed {attempts} time(s), retry budget exhausted: "
            f"{cell}")
        self.cell = cell
        self.attempts = attempts


#: The stream a serial grid is replaying, loaded once, as
#: ``(trace_path, TraceWorkload)``; ``None`` when no grid holds one.
#: Set and dropped by :class:`_Streams`.  It lives at module level
#: because :func:`run_cell` keeps its one-argument signature: it is the
#: pool's picklable entry point, and callers wrap it.
_loaded: tuple[str, TraceWorkload] | None = None


def run_cell(cell: GridCell) -> RunResult:
    """Run one grid cell (the worker entry point; must stay picklable).

    A cell with a ``trace_path`` replays that recording of its
    ``(workload, scale, seed)`` stream -- the serial grid's loaded
    workload when it holds that recording (``build`` resets a
    workload's per-run state) -- and one without generates the stream
    live.  All give bit-identical results.
    """
    if cell.trace_path is None:
        workload = make_workload(cell.workload, cell.scale)
    elif _loaded is not None and _loaded[0] == cell.trace_path:
        workload = _loaded[1]
    else:
        workload = TraceWorkload(cell.trace_path)
    return Simulator(cell_config(vars(cell))).run(
        workload, oversubscription=cell.oversubscription)


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores).

    Respects CPU affinity where the platform exposes it: container and
    CI runners frequently pin a process to fewer cores than
    ``os.cpu_count()`` reports, and oversubscribing the pinned set just
    adds context-switch thrash.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    return affinity or os.cpu_count() or 1


def run_grid(cells, max_workers: int | None = None,
             options: GridOptions | None = None) -> list[RunResult]:
    """Run every cell, in parallel when workers are available.

    ``max_workers`` of ``None`` or ``1`` runs serially in-process (no
    executor, no pickling); ``0`` means one worker per CPU.  Results
    come back in the order of ``cells``.  ``options`` configures
    retries, hang detection, and checkpoint/resume; the defaults retry
    transient failures but neither journal nor resume.  Every cell
    without an explicit ``trace_path`` replays its access stream,
    recorded once per grid (see :class:`_Streams`).
    """
    cells = list(cells)
    opts = options or GridOptions()
    if max_workers is not None and max_workers < 0:
        raise ValueError(
            f"max_workers must be >= 0 (0 = one per CPU), got {max_workers}")
    if max_workers == 0:
        max_workers = default_jobs()

    results: list[RunResult | None] = [None] * len(cells)
    pending = list(range(len(cells)))
    journal = None
    archiver = _Archiver.of(opts, cells)
    if opts.checkpoint:
        from .checkpoint import CheckpointJournal, cell_key
        journal = CheckpointJournal(opts.checkpoint)
        if opts.resume:
            gm = _GridMetrics.of(opts)
            cached = journal.load()
            fresh = []
            for i in pending:
                cell = cells[i]
                hit = cached.get(cell_key(cell))
                # Cells carrying heavy collectors are never served from
                # the journal (stats are not serialized).
                if hit is not None and not (cell.collect_histogram
                                            or cell.collect_trace):
                    results[i] = hit
                    if gm is not None:
                        gm.from_checkpoint.inc()
                    if archiver is not None:
                        archiver.archive(cell, hit)
                else:
                    fresh.append(i)
            pending = fresh
    streams = _Streams(opts.trace_cache, [cells[i] for i in pending])
    try:
        if max_workers is None or max_workers <= 1 or len(pending) <= 1:
            _run_serial(cells, pending, results, opts, journal, streams,
                        archiver)
        else:
            _run_parallel(cells, pending, results, opts, journal, streams,
                          max_workers, archiver)
    finally:
        streams.close()
        if journal is not None:
            journal.close()
    return results


def _stream(cell: GridCell) -> tuple[str, str, int]:
    """The access stream a cell simulates: ``(workload, scale, seed)``."""
    return cell.workload, cell.scale, cell.seed


class _Streams:
    """Where a grid's cells get their waves: each stream recorded once.

    A cell without an explicit ``trace_path`` replays its
    ``(workload, scale, seed)`` stream from a
    :class:`~repro.trace.TraceCache`: the caller's
    :attr:`GridOptions.trace_cache` directory, where recordings persist,
    or a private temporary directory that :meth:`close` removes.  A
    stream is recorded by the first :meth:`replayable` call that needs
    it.  In the private directory it is deleted as soon as the last
    pending cell that replays it has :meth:`finished`, so a long serial
    grid keeps only the streams it still needs on disk.  The serial path
    replays each stream from one load (:meth:`load`), which it drops
    before another stream is recorded or loaded, and once the last
    pending cell that replays it has finished.
    """

    def __init__(self, root: str | None, cells) -> None:
        from ..trace.cache import TraceCache
        self._tmp = (None if root else
                     tempfile.TemporaryDirectory(prefix="repro-grid-"))
        self._cache = TraceCache(root or self._tmp.name)
        self._paths: dict[tuple[str, str, int], str] = {}
        #: Pending cells left to replay each stream.
        self._users = Counter(_stream(c) for c in cells
                              if c.trace_path is None)
        #: The stream loaded into :data:`_loaded`, if any.
        self._held: tuple[str, str, int] | None = None

    def replayable(self, cell: GridCell) -> GridCell:
        """``cell`` pointed at its recorded stream, recording it if new."""
        if cell.trace_path is not None:
            return cell
        stream = _stream(cell)
        path = self._paths.get(stream)
        if path is None:
            path = self._paths[stream] = str(
                self._cache.get_or_record(*stream))
        return replace(cell, trace_path=path)

    def load(self, cell: GridCell) -> GridCell:
        """:meth:`replayable`, with the stream loaded for :func:`run_cell`.

        The serial path's entry: the stream stays loaded for every
        following cell that replays it.  A stream loaded for other cells
        is dropped first, before this one is recorded or loaded; a cell
        with an explicit ``trace_path`` loads its own recording.
        """
        global _loaded
        stream = _stream(cell) if cell.trace_path is None else None
        if stream != self._held:
            self._drop()
        cell = self.replayable(cell)
        if stream is not None and self._held is None:
            _loaded = (cell.trace_path, TraceWorkload(cell.trace_path))
            self._held = stream
        return cell

    def finished(self, cell: GridCell) -> None:
        """Note that ``cell`` is done; drop a stream nobody needs."""
        if cell.trace_path is not None:
            return
        stream = _stream(cell)
        self._users[stream] -= 1
        if not self._users[stream]:
            if stream == self._held:
                self._drop()
            if self._tmp is not None:
                shutil.rmtree(self._paths.pop(stream))

    def _drop(self) -> None:
        """Release the loaded stream, if any."""
        global _loaded
        _loaded = None
        self._held = None

    def close(self) -> None:
        self._drop()
        if self._tmp is not None:
            self._tmp.cleanup()


# ---------------------------------------------------------------------------
# execution strategies
# ---------------------------------------------------------------------------

def _store(results, journal, streams: _Streams, cell, index: int,
           result: RunResult, archiver: "_Archiver | None" = None) -> None:
    """Commit one finished cell: result slot, journal, archive, stream."""
    results[index] = result
    if journal is not None and not (cell.collect_histogram
                                    or cell.collect_trace):
        journal.append(cell, result)
    if archiver is not None:
        archiver.archive(cell, result)
    streams.finished(cell)


def _backoff(opts: GridOptions, attempt: int) -> None:
    """Sleep before re-attempting a failed cell (bounded exponential)."""
    if opts.retry_backoff_s <= 0 or attempt <= 0:
        return
    time.sleep(min(opts.retry_backoff_s * 2 ** (attempt - 1),
                   _MAX_BACKOFF_S))


def _run_serial(cells, pending, results, opts, journal, streams,
                archiver=None) -> None:
    """In-process execution with per-cell retry and journaling.

    A cell's stream is recorded and loaded inside its attempt, so a
    failed recording or load uses up the cell's retry budget like any
    other failure.
    """
    gm = _GridMetrics.of(opts)
    for i in pending:
        attempts = 0
        while True:
            start = time.perf_counter()
            try:
                result = run_cell(streams.load(cells[i]))
                break
            except Exception as exc:
                attempts += 1
                if gm is not None:
                    gm.retried.inc()
                if attempts > opts.retries:
                    raise GridExecutionError(cells[i], attempts) from exc
                _backoff(opts, attempts)
        if gm is not None:
            gm.cell_ms.observe((time.perf_counter() - start) * 1e3)
            gm.completed.inc()
        _store(results, journal, streams, cells[i], i, result, archiver)


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool whose workers stopped responding."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _run_parallel(cells, pending, results, opts, journal, streams,
                  max_workers: int, archiver=None) -> None:
    """Pool execution with lost-cell re-submission and hang detection.

    Each ``while`` iteration is one pool incarnation: submit everything
    still pending, harvest until the pool breaks, hangs, or drains,
    then charge failures and go again with only the unfinished cells.
    A worker crash breaks the whole pool in ``concurrent.futures``, so
    broken-pool failures are charged to a small pool-rebuild budget
    rather than to individual cells; cell-level exceptions and hangs
    consume that cell's own retry budget.  Every stream is recorded
    before the first pool starts, so workers only replay.
    """
    gm = _GridMetrics.of(opts)
    replayable = {i: streams.replayable(cells[i]) for i in pending}
    attempts = dict.fromkeys(pending, 0)
    pool_rebuilds = 0
    remaining = list(pending)
    while remaining:
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(max_workers, len(remaining)))
        except (OSError, PermissionError, NotImplementedError):
            # Process pools need working fork/spawn plus POSIX
            # semaphores; restricted environments (CI sandboxes, seccomp
            # jails) may offer neither.  The grid is still correct
            # serially.
            return _run_serial(cells, remaining, results, opts, journal,
                               streams, archiver)

        completed_here = 0
        pool_broke = False
        stalled: list[int] = []
        failed: list[tuple[int, BaseException]] = []
        future_of: dict = {}
        submitted_at: dict[int, float] = {}
        try:
            for i in remaining:
                submitted_at[i] = time.perf_counter()
                future_of[pool.submit(run_cell, replayable[i])] = i
        except BrokenProcessPool:
            pool_broke = True
        outstanding = set(future_of)
        while outstanding:
            done, _ = wait(outstanding, timeout=opts.cell_timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # Nothing finished within the budget: declare the pool
                # hung, kill its workers, and retry the stragglers.
                stalled = [future_of[f] for f in outstanding]
                _terminate_workers(pool)
                break
            for future in done:
                outstanding.discard(future)
                i = future_of[future]
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    pool_broke = True
                    failed.append((i, exc))
                except Exception as exc:
                    failed.append((i, exc))
                else:
                    if gm is not None:
                        gm.cell_ms.observe(
                            (time.perf_counter() - submitted_at[i]) * 1e3)
                        gm.completed.inc()
                    _store(results, journal, streams, cells[i], i, result,
                           archiver)
                    completed_here += 1
        pool.shutdown(wait=not stalled, cancel_futures=True)

        # -- charge the round's failures -------------------------------
        for i, exc in failed:
            if isinstance(exc, BrokenProcessPool):
                continue  # pool-level, charged to the rebuild budget
            attempts[i] += 1
            if gm is not None:
                gm.retried.inc()
            if attempts[i] > opts.retries:
                raise GridExecutionError(cells[i], attempts[i]) from exc
        worst = 0
        for i in stalled:
            attempts[i] += 1
            if gm is not None:
                gm.stalled.inc()
            worst = max(worst, attempts[i])
            if attempts[i] > opts.retries:
                raise GridExecutionError(cells[i], attempts[i]) from (
                    TimeoutError(
                        f"no grid cell completed within "
                        f"{opts.cell_timeout}s"))
        if pool_broke:
            pool_rebuilds += 1
            if gm is not None:
                gm.rebuilds.inc()
            if completed_here == 0 and pool_rebuilds >= _MAX_POOL_REBUILDS:
                # The pool breaks without making progress: stop burning
                # incarnations and finish the grid in-process.
                remaining = [i for i in remaining if results[i] is None]
                return _run_serial(cells, remaining, results, opts, journal,
                                   streams, archiver)
            worst = max(worst, pool_rebuilds)
        for i, exc in failed:
            if not isinstance(exc, BrokenProcessPool):
                worst = max(worst, attempts[i])
        remaining = [i for i in remaining if results[i] is None]
        if remaining and worst:
            _backoff(opts, worst)
