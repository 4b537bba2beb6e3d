"""The benchmark's workloads: what one pass runs and how it is checked.

A pass runs one workload once, from scratch, in a fresh process and one
thread (figure grids run serially, with no process pool).  Its set-up is
the process's CPU time from its start to the first simulated wave, so it
includes the interpreter and the program's imports; the timed region is
the rest.  Both are host CPU seconds (``time.process_time``): for this
single-threaded job that equals wall time on an idle host, and unlike
wall time it does not grow while other processes hold the CPUs.  The
pass's wall time is kept as well.

The seed is the workload seed: graphs, random-access streams and serve
arrivals all derive from it, and the program sees nothing else of the
benchmark.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.analysis import experiments, paper_data
from repro.analysis.parallel import GridOptions
from repro.config import ServeConfig
from repro.obs.live.slo import SloConfig
from repro.serve import ServeSession
from repro.serve.traffic import generate_arrivals
from repro.trace import TraceCache
from repro.uvm.driver import UvmDriver

import checks
import hostspeed
from tracer import Patches

#: Scale the committed figure tables were rendered at.
SCALE = "small"

#: Seed the committed figure tables were rendered with.
TABLE_SEED = 0

#: Driver event counts a pass sums over its cells or its serve run.
SIM_COUNTS = ("n_accesses", "n_local", "n_remote", "fault_migrations",
              "mapping_faults", "migrated_blocks", "prefetched_blocks",
              "evicted_blocks", "writeback_blocks", "thrash_migrations")

#: ``(figure runner, grid cells per paper workload)`` of each grid.
LIVE_GRIDS = (("figure6_7", 4),)
REPLAY_GRIDS = (("figure1", 3), ("figure4", 3), ("figure5", 3),
                ("figure6_7", 4), ("figure8", 5))

#: 96 tenants arrive open-loop at 200/s of simulated time onto a 64 MB
#: device: live oversubscription reaches the 1.5x admit watermark, so
#: throttling and queueing engage.  The queue holds every tenant, so none
#: is shed: with a queue of 8, 21 to 32 tenants were shed at seeds 1 to
#: 5, and which ones changed the session's work by a quarter.
SERVE = ServeConfig(arrival_rate=200.0, tenants=96,
                    workload_mix=("ra", "sssp", "bfs", "fdtd"),
                    scale="tiny", capacity_mb=64, throttle_watermark=1.2,
                    admit_watermark=1.5, shed_watermark=2.5, queue_depth=96,
                    scheduler="drr")
SLO = SloConfig(p99_latency_us=300.0, latency_attainment=0.95,
                max_shed_rate=0.1)

#: The most and the fewest tenants of one workload in a serve-mixed
#: arrival stream differ by at most this many.
MIX_TOLERANCE = 4


@dataclass
class Pass:
    """What one pass measured and produced."""

    #: Process CPU seconds up to the first simulated wave, and after it.
    setup_s: float
    timed_s: float
    #: Wall seconds of the workload's run (the interval traced spans cover).
    wall_s: float
    attempted: int
    accesses: int = 0
    #: Driver waves, and those the resident fast path resolved.
    waves: int = 0
    fast_path_waves: int = 0
    #: Failed operation id -> reason.
    failed: dict[str, str] = field(default_factory=dict)
    #: Hash of every simulated output of the pass.
    digest: str = ""
    #: |ln(measured/paper)| per figure cell (:func:`checks.log_errors`).
    log_errors: list[float] = field(default_factory=list)
    sim: dict[str, int] = field(default_factory=dict)
    serve: object | None = None


class Waves:
    """Counts a pass's driver waves and notes when the first one started.

    Both driver entry points are hooked, ``process_wave`` and
    ``process_wave_batch``.  The counts are deltas of the driver's own
    ``stats`` around the outermost of these calls, so they stay right
    whichever of the two calls the other.  ``tick``, when given, is
    called before each outermost call.
    """

    ENTRY_POINTS = ("process_wave", "process_wave_batch")

    def __init__(self, tick=None) -> None:
        self.first_at: float | None = None
        self.waves = 0
        self.fast_path_waves = 0
        self._tick = tick
        self._depth = 0

    def install(self, patches: Patches) -> None:
        def make(fn):
            @functools.wraps(fn)
            def counted(driver, *args, **kwargs):
                if self._depth:
                    return fn(driver, *args, **kwargs)
                if self.first_at is None:
                    self.first_at = time.process_time()
                if self._tick is not None:
                    self._tick()
                waves = driver.stats.waves
                fast = driver.stats.fast_path_waves
                self._depth += 1
                try:
                    return fn(driver, *args, **kwargs)
                finally:
                    self._depth -= 1
                    self.waves += driver.stats.waves - waves
                    self.fast_path_waves += driver.stats.fast_path_waves - fast
            return counted
        for name in self.ENTRY_POINTS:
            if hasattr(UvmDriver, name):
                patches.replace(UvmDriver, name, make)


def _figures(grids, seed: int, options: GridOptions):
    """Run figure grids; a runner that raises loses every cell it ran."""
    done, lost = [], {}
    for name, per_workload in grids:
        try:
            figs = getattr(experiments, name)(scale=SCALE, seed=seed,
                                              grid=options)
        except Exception as exc:  # noqa: BLE001 - reported as failed cells
            traceback.print_exc()
            cells = per_workload * len(paper_data.WORKLOAD_ORDER)
            lost.update({f"{name}/cell{i}": repr(exc) for i in range(cells)})
            continue
        done.append((name, figs if isinstance(figs, tuple) else (figs,)))
    return done, lost


def fig67_live(seed: int, workdir: Path):
    return _figures(LIVE_GRIDS, seed, GridOptions(retries=0))


def figures_replay(seed: int, workdir: Path):
    cache = TraceCache(workdir)
    for workload in paper_data.WORKLOAD_ORDER:
        cache.get_or_record(workload, SCALE, seed)
    return _figures(REPLAY_GRIDS, seed,
                    GridOptions(trace_cache=str(workdir), retries=0))


def serve_config(seed: int) -> ServeConfig:
    """The serve-mixed configuration for the workload seed ``seed``.

    The arrival stream draws each tenant's workload at random, so at a
    plain seed the share of each workload, and with it the work of the
    session, changes from seed to seed: 15 to 28 of the 96 tenants run
    fdtd at seeds 1 to 5.  The configuration is therefore the first of a
    sequence of session seeds derived from ``seed`` whose arrivals hold
    each workload about equally often (:data:`MIX_TOLERANCE`); about one
    stream in ten qualifies, and drawing one takes under a millisecond.
    """
    for attempt in itertools.count():
        state = np.random.SeedSequence((seed, attempt)).generate_state(1)
        config = SERVE.replace(seed=int(state[0]))
        counts = Counter(a.workload for a in generate_arrivals(config))
        if (len(counts) == len(SERVE.workload_mix)
                and max(counts.values()) - min(counts.values())
                <= MIX_TOLERANCE):
            return config


def serve_mixed(seed: int, workdir: Path):
    return ServeSession(serve_config(seed), slo=SLO).run()


def _cells(grids) -> int:
    return sum(n for _, n in grids) * len(paper_data.WORKLOAD_ORDER)


#: name -> (pass runner, operations per pass).
WORKLOADS = {
    "fig67-live": (fig67_live, _cells(LIVE_GRIDS)),
    "figures-replay": (figures_replay, _cells(REPLAY_GRIDS)),
    "serve-mixed": (serve_mixed, 1),
}


def run_pass(workload: str, seed: int, workdir: Path, root: Path,
             sampler: hostspeed.Sampler | None = None) -> Pass:
    """Run ``workload`` once at ``seed`` and check what it produced.

    With a ``sampler``, host-speed samples are taken between waves and
    their CPU time is left out of the timed region.
    """
    runner, ops = WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    waves = Waves(None if sampler is None else sampler.tick)
    outputs = error = None
    try:
        with Patches() as patches:
            waves.install(patches)
            wall0 = time.perf_counter()
            try:
                outputs = runner(seed, workdir)
            except Exception as exc:  # noqa: BLE001 - every op of the pass fails
                traceback.print_exc()
                error = exc
            t1, wall1 = time.process_time(), time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    start = t1 if waves.first_at is None else waves.first_at
    sampled = 0.0 if sampler is None else sampler.spent_s
    p = Pass(setup_s=start, timed_s=t1 - start - sampled,
             wall_s=wall1 - wall0, attempted=ops, waves=waves.waves,
             fast_path_waves=waves.fast_path_waves)
    if error is not None:
        p.failed = {f"{workload}/op{i}": repr(error) for i in range(ops)}
    elif workload == "serve-mixed":
        _check_serve(p, outputs)
    else:
        _check_grids(p, outputs, seed, root)
    return p


def _check_grids(p: Pass, outputs, seed: int, root: Path) -> None:
    done, lost = outputs
    p.failed.update(lost)
    tables = _tables(root) if seed == TABLE_SEED else None
    sim = dict.fromkeys(SIM_COUNTS, 0)
    digest = hashlib.sha256()
    for name, figs in done:
        p.failed.update(checks.grid_failures(name, figs, tables))
        for (series, workload), result in figs[0].runs.items():
            events = dataclasses.asdict(result.events)
            for key in SIM_COUNTS:
                sim[key] += events[key]
            digest.update(_canonical(
                [name, series, workload, result.total_cycles, events]))
        for fig in figs:
            p.log_errors.extend(checks.log_errors(fig))
            digest.update(fig.render().encode())
    p.sim = sim
    p.accesses = sim["n_accesses"]
    p.digest = digest.hexdigest()


def _check_serve(p: Pass, result) -> None:
    broken = checks.serve_failures(result)
    if broken:
        p.failed["serve-mixed/session"] = "; ".join(broken)
    p.sim = {key: int(result.driver_totals[key]) for key in SIM_COUNTS}
    p.accesses = result.total_accesses
    p.serve = result
    p.digest = hashlib.sha256(_canonical(result.as_dict())).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, default=repr).encode()


def _tables(root: Path) -> dict[str, str]:
    """The committed figure tables, read (never written)."""
    results = root / "benchmarks" / "results"
    return {path.name: path.read_text()
            for path in results.glob("figure*.txt")}
