"""Tracked performance harness for the simulator's hot path.

Measures (1) the simulator's throughput in simulated accesses per
second on a fixed workload set, run over a pre-recorded shared trace
cache (the grid fan-out configuration; live wave generation is timed
alongside for the ``replay_speedup`` ratio), (2) wall time of the
``bench_sweep`` grid serially and with ``--jobs`` worker processes,
(3) a steady-state resident-wave microbench that isolates the driver's
all-resident fast path, and (4) the serve path: a multi-tenant run, its
fused multi-tenant dispatch cell, and the live-telemetry tax.
Results are written to ``BENCH_driver.json`` at the repository root
(latest snapshot) and appended to ``BENCH_history.jsonl`` (one report
per line, tagged with the git commit) so every later change has a perf
trajectory to compare against — ``tools/check_regression.py`` gates on
that history.  A report taken on a dirty working tree is not appended:
it measures code no commit holds::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 0   # all cores
    PYTHONPATH=src python benchmarks/bench_perf.py --no-history

Wall-clock numbers are min-of-``--repeats`` to shave scheduler noise;
CPU time (``time.process_time``) is reported alongside because shared
boxes make wall time alone unreliable.  Numbers are testbed-specific:
compare ratios across commits on the same machine, not across hosts.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.analysis import (  # noqa: E402
    GridCell,
    GridOptions,
    default_jobs,
    oversubscription_sweep,
    run_grid,
)
from repro.analysis.parallel import run_cell  # noqa: E402
from repro.config import MigrationPolicy, SimulationConfig  # noqa: E402
from repro.memory.allocator import VirtualAddressSpace  # noqa: E402
from repro.memory.layout import MB  # noqa: E402
from repro.obs.regress import append_history  # noqa: E402
from repro.obs.store import git_info  # noqa: E402
from repro.trace import TraceCache  # noqa: E402
import repro.uvm.driver as uvm_driver  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_driver.json"
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: The bench_sweep grid: the acceptance workload for driver speedups.
SWEEP_LEVELS = (0.8, 1.0, 1.25, 1.5)
SWEEP_WORKLOADS = ("ra", "fdtd")
SWEEP_POLICIES = (MigrationPolicy.DISABLED, MigrationPolicy.ADAPTIVE)

#: Driver-throughput cells: one irregular and one regular workload per
#: pressure regime, adaptive policy (the paper's operating points).
THROUGHPUT_CELLS = tuple(
    (w, level) for w in ("ra", "sssp", "fdtd", "bfs") for level in (1.25,))


def _timed(fn, repeats: int) -> tuple[float, float, object]:
    """(best wall seconds, best CPU seconds, last result) over repeats."""
    best_wall = best_cpu = float("inf")
    result = None
    for _ in range(repeats):
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        best_wall = min(best_wall, time.perf_counter() - w0)
        best_cpu = min(best_cpu, time.process_time() - c0)
    return best_wall, best_cpu, result


def measure_throughput(scale: str, repeats: int) -> dict:
    """Simulated accesses/second over the fixed throughput cells.

    The headline ``accesses_per_second`` runs the grid over a shared
    trace cache (``GridOptions.trace_cache``): each cell replays its
    workload's memory-mapped access stream instead of regenerating the
    waves, exactly as every grid does.  Recording happens outside the
    timed region.  The ``live_*`` numbers run each cell through
    :func:`run_cell`, which generates its waves live (``run_grid`` would
    record and replay them), and ``replay_speedup`` is the ratio.
    """
    cells = [GridCell(w, MigrationPolicy.ADAPTIVE, level, scale)
             for w, level in THROUGHPUT_CELLS]
    live_wall, live_cpu, live_results = _timed(
        lambda: [run_cell(cell) for cell in cells], repeats)
    accesses = sum(r.events.n_accesses for r in live_results)
    with tempfile.TemporaryDirectory(prefix="bench-trace-cache-") as tmp:
        cache = TraceCache(tmp)
        for cell in cells:  # pre-warm: recording is not the timed path
            cache.get_or_record(cell.workload, cell.scale, cell.seed)
        opts = GridOptions(trace_cache=tmp)
        wall, cpu, results = _timed(lambda: run_grid(cells, options=opts),
                                    repeats)
    if sum(r.events.n_accesses for r in results) != accesses:
        raise RuntimeError("trace replay diverged from live generation")
    return {
        "cells": [f"{w}@{level}" for w, level in THROUGHPUT_CELLS],
        "scale": scale,
        "simulated_accesses": accesses,
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "accesses_per_second": round(accesses / wall, 1),
        "live_wall_seconds": round(live_wall, 4),
        "live_cpu_seconds": round(live_cpu, 4),
        "live_accesses_per_second": round(accesses / live_wall, 1),
        "replay_speedup": round(live_wall / wall, 3),
    }


def measure_fast_path(repeats: int) -> dict:
    """Steady-state resident-wave microbench: the fast path's home regime.

    Builds a driver whose capacity covers the whole footprint, warms the
    working set in via first-touch migration, then times passes of pure
    all-resident waves -- the steady state the resident fast path short
    circuits.  ``hit_rate`` is measured over the timed section (1.0 when
    warm-up fully migrated the working set).
    """
    size_mb, n_waves, wave_pages, passes = 32, 64, 512, 8
    vas = VirtualAddressSpace()
    data = vas.malloc_managed("bench.fastpath", size_mb * MB)
    cfg = SimulationConfig().with_policy(MigrationPolicy.DISABLED)
    cfg = cfg.with_device_capacity(2 * size_mb * MB)
    rng = np.random.default_rng(7)
    waves = []
    for _ in range(n_waves):
        pages = np.unique(rng.integers(data.first_page, data.last_page,
                                       size=wave_pages, dtype=np.int64))
        is_write = np.zeros(pages.size, dtype=bool)
        is_write[::4] = True
        waves.append((pages, is_write))
    accesses_per_pass = sum(p.size for p, _ in waves)

    driver = uvm_driver.UvmDriver(vas, cfg)
    for pages, w in waves:  # warm pass: first touch migrates everything
        driver.process_wave(pages, w)

    def steady() -> None:
        process = driver.process_wave
        for _ in range(passes):
            for pages, w in waves:
                process(pages, w)

    base_waves = driver.stats.waves
    base_hits = driver.stats.fast_path_waves
    wall, cpu, _ = _timed(steady, repeats)
    timed_waves = driver.stats.waves - base_waves
    hit_rate = ((driver.stats.fast_path_waves - base_hits) / timed_waves
                if timed_waves else 0.0)
    return {
        "waves_per_pass": n_waves,
        "passes": passes,
        "accesses_per_pass": accesses_per_pass,
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "steady_state_accesses_per_second":
            round(accesses_per_pass * passes / wall, 1),
        "hit_rate": round(hit_rate, 4),
    }


def _sweep_grid(scale: str, jobs: int) -> None:
    for w in SWEEP_WORKLOADS:
        oversubscription_sweep(w, levels=SWEEP_LEVELS, scale=scale,
                               policies=SWEEP_POLICIES, jobs=jobs)


def measure_sweep(scale: str, repeats: int, jobs: int) -> dict:
    """bench_sweep grid wall time, serial and parallel."""
    serial_wall, serial_cpu, _ = _timed(
        lambda: _sweep_grid(scale, 1), repeats)
    out = {
        "scale": scale,
        "levels": list(SWEEP_LEVELS),
        "workloads": list(SWEEP_WORKLOADS),
        "serial_wall_seconds": round(serial_wall, 4),
        "serial_cpu_seconds": round(serial_cpu, 4),
    }
    if jobs != 1:
        par_wall, _, _ = _timed(lambda: _sweep_grid(scale, jobs), repeats)
        out["jobs"] = jobs if jobs else default_jobs()
        out["parallel_wall_seconds"] = round(par_wall, 4)
        out["parallel_speedup"] = round(serial_wall / par_wall, 3)
    return out


#: The serve bench scenario: open-loop churn past 1.5x aggregate
#: oversubscription with a short queue, so throttle, queue and shed all
#: engage and ``shed_rate`` is a meaningful gated number.  Always tiny
#: scale: the serve path's cost is scheduling + driver interleave, not
#: footprint.
SERVE_SCENARIO = dict(tenants=10, seed=1, arrival_rate=2000.0,
                      queue_depth=2, throttle_watermark=1.0,
                      admit_watermark=1.8, shed_watermark=2.0)


def measure_serve(repeats: int) -> dict:
    """Multi-tenant serve run: wall time plus the serving metrics.

    ``accesses_per_second``/``p99_wave_latency_us``/``shed_rate`` come
    from the (deterministic) :class:`~repro.serve.session.ServeResult`
    -- simulated-clock quantities, so the gate catches behavioral
    regressions; ``wall_seconds`` tracks the host cost of the serving
    loop itself.
    """
    from repro.config import ServeConfig
    from repro.serve import ServeSession

    cfg = ServeConfig(**SERVE_SCENARIO)
    wall, cpu, result = _timed(lambda: ServeSession(cfg).run(), repeats)
    return {
        "scenario": {k: v for k, v in SERVE_SCENARIO.items()},
        "arrivals": result.arrivals,
        "admitted": result.admitted,
        "shed": result.shed,
        "throttle_events": result.throttle_events,
        "peak_live_oversubscription": round(
            result.peak_live_oversubscription, 3),
        "simulated_accesses": result.total_accesses,
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "accesses_per_second": round(result.accesses_per_second, 1),
        "p99_wave_latency_us": round(result.p99_wave_latency_us or 0.0, 3),
        "shed_rate": round(result.shed_rate, 4),
    }


#: The fused-batching bench cell: 8 ra tenants against 64MB -- 2x
#: aggregate oversubscription over the 8x16MB tiny ra footprint -- under
#: the drr scheduler, so every scheduler round is one 8-tenant group
#: whose wave slots the session hands to the driver as fused batch
#: dispatches.  ra at tiny scale is the fusion-friendly regime: many
#: small irregular waves whose per-wave Python overhead would dominate
#: a wave-at-a-time driver loop.
SERVE_FUSED_SCENARIO = dict(tenants=8, seed=1, arrival_rate=4000.0,
                            workload_mix=("ra",), scale="tiny",
                            capacity_mb=64, admit_watermark=2.0,
                            shed_watermark=2.5, throttle_watermark=2.0,
                            queue_depth=4, quantum=4, scheduler="drr")

#: Equation-1 migration penalty for the fused bench cell.  The high
#: penalty keeps the oversubscribed steady state in the remote-access
#: regime (few migrating waves), which is the state the zero-migration
#: prefix commit is built for -- migrating waves fall back to the
#: per-wave pipeline and would only add cost the cell does not target.
SERVE_FUSED_PENALTY = 32


def measure_serve_fused(repeats: int) -> dict:
    """Host-wall throughput of the fused multi-tenant serve cell.

    ``fused_accesses_per_second`` is gated ``higher``; ``batches`` and
    ``batch_occupancy`` show how much of the cell actually fused: the
    driver dispatches of two or more waves, and their mean wave count,
    counted on the warm-up run.
    """
    import dataclasses as _dc
    from unittest import mock

    from repro.config import ServeConfig
    from repro.serve import ServeSession
    from repro.uvm.driver import UvmDriver

    base = SimulationConfig()
    sim = _dc.replace(base, policy=_dc.replace(
        base.policy, migration_penalty=SERVE_FUSED_PENALTY))
    cfg = ServeConfig(**SERVE_FUSED_SCENARIO)

    def run_once():
        return ServeSession(cfg, sim_config=sim).run()

    sizes = []
    dispatch = UvmDriver.process_wave_batch

    def counted(self, waves, tenants=None):
        sizes.append(len(waves))
        return dispatch(self, waves, tenants)

    with mock.patch.object(UvmDriver, "process_wave_batch", counted):
        run_once()  # warm-up outside the timed region
    shared = [n for n in sizes if n > 1]
    wall, cpu, fused = _timed(run_once, repeats)
    return {
        "scenario": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in SERVE_FUSED_SCENARIO.items()},
        "migration_penalty": SERVE_FUSED_PENALTY,
        "simulated_accesses": fused.total_accesses,
        "batches": len(shared),
        "batch_occupancy": round(sum(shared) / len(shared), 2)
        if shared else 0.0,
        "fused_wall_seconds": round(wall, 4),
        "fused_cpu_seconds": round(cpu, 4),
        "fused_accesses_per_second": round(fused.total_accesses / wall, 1),
    }


def measure_telemetry(repeats: int) -> dict:
    """Host-side cost of live telemetry on the serve bench scenario.

    Times the serve scenario bare (its telemetry hub runs the default
    alert rules only), then again with the full telemetry stack
    attached -- metrics registry, event bus with a sink, and an SLO
    engine.  Simulated quantities are
    identical by construction (the zero-overhead contract, asserted
    here), so ``overhead_pct`` isolates the *wall-clock* tax of
    observing the run.  Gated ``lower``: telemetry must stay cheap.
    """
    from repro.config import ServeConfig
    from repro.obs import Observability
    from repro.obs.live import SloConfig
    from repro.obs.sinks import NullSink
    from repro.serve import ServeSession

    cfg = ServeConfig(**SERVE_SCENARIO)
    slo = SloConfig(p99_latency_us=300.0, latency_attainment=0.95,
                    max_shed_rate=0.1)

    def bare():
        return ServeSession(cfg).run()

    def instrumented():
        obs = Observability.create(metrics=True)
        obs.bus.attach(NullSink())
        return ServeSession(cfg, obs=obs, slo=slo).run()

    bare()  # untimed warm-up: the first serve pays one-time numpy
    # and import costs that would otherwise bias whichever variant
    # runs first (overhead is a ratio of the two walls).
    bare_wall, bare_cpu, bare_result = _timed(bare, repeats)
    tel_wall, tel_cpu, tel_result = _timed(instrumented, repeats)
    if tel_result.accesses_per_second != bare_result.accesses_per_second:
        raise RuntimeError("telemetry perturbed the simulated schedule")
    return {
        "scenario": {k: v for k, v in SERVE_SCENARIO.items()},
        "bare_wall_seconds": round(bare_wall, 4),
        "telemetry_wall_seconds": round(tel_wall, 4),
        "bare_cpu_seconds": round(bare_cpu, 4),
        "telemetry_cpu_seconds": round(tel_cpu, 4),
        "slo_violations": tel_result.slo_violations,
        "alerts_fired": tel_result.alerts_fired,
        "overhead_pct": round((tel_wall - bare_wall) / bare_wall * 100, 2),
    }


def run(scale: str, repeats: int, jobs: int) -> dict:
    report = {
        "schema_version": 2,
        "generated": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git": git_info(cwd=str(REPO_ROOT)),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "throughput": measure_throughput(scale, repeats),
        "sweep_grid": measure_sweep(scale, repeats, jobs),
        "fast_path": measure_fast_path(repeats),
        "serve": measure_serve(repeats),
        "serve_fused": measure_serve_fused(repeats),
        "telemetry": measure_telemetry(repeats),
    }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="tiny scale, single repeat (CI smoke)")
    ap.add_argument("--scale", default=None,
                    help="workload scale (default: small, or tiny "
                         "with --quick)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats, best-of (default 5, 1 "
                         "with --quick)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the parallel sweep "
                         "measurement (0 = one per CPU, 1 = skip)")
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="output JSON path (default: BENCH_driver.json "
                         "at the repo root)")
    ap.add_argument("--history", default=str(DEFAULT_HISTORY),
                    help="append the report to this JSONL history "
                         "(default: BENCH_history.jsonl at the repo root)")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append to the history file")
    args = ap.parse_args(argv)
    scale = args.scale or ("tiny" if args.quick else "small")
    repeats = args.repeats or (1 if args.quick else 5)

    report = run(scale, repeats, args.jobs)
    out = pathlib.Path(args.out)
    # ``report["git"]`` was read before this write, so rewriting the
    # tracked snapshot never makes the report itself dirty.
    out.write_text(json.dumps(report, indent=2) + "\n")
    appended = not args.no_history and append_history(args.history, report)
    if not args.no_history and not appended:
        print("bench_perf: working tree is dirty; not appending to "
              f"{args.history} (commit first)", file=sys.stderr)

    tp = report["throughput"]
    sg = report["sweep_grid"]
    fp = report["fast_path"]
    print(f"throughput: {tp['accesses_per_second']:,.0f} simulated "
          f"accesses/s ({tp['simulated_accesses']:,} accesses in "
          f"{tp['wall_seconds']:.3f}s; trace replay "
          f"{tp['replay_speedup']:.2f}x over live at "
          f"{tp['live_accesses_per_second']:,.0f}/s)")
    line = (f"sweep grid: {sg['serial_wall_seconds']:.3f}s serial wall, "
            f"{sg['serial_cpu_seconds']:.3f}s cpu")
    if "parallel_speedup" in sg:
        line += (f"; {sg['parallel_wall_seconds']:.3f}s with "
                 f"{sg['jobs']} jobs ({sg['parallel_speedup']:.2f}x)")
    print(line)
    print(f"resident fast path: "
          f"{fp['steady_state_accesses_per_second']:,.0f} steady-state "
          f"accesses/s, hit rate {fp['hit_rate']:.2f}")
    sv = report["serve"]
    print(f"serve: {sv['accesses_per_second']:,.0f} simulated accesses/s "
          f"across {sv['arrivals']} tenants "
          f"({sv['admitted']} admitted, {sv['shed']} shed, "
          f"shed rate {sv['shed_rate']:.2f}); "
          f"p99 wave latency {sv['p99_wave_latency_us']:.1f}us, "
          f"wall {sv['wall_seconds']:.3f}s")
    sf = report["serve_fused"]
    print(f"serve fused batching: "
          f"{sf['fused_accesses_per_second']:,.0f} accesses/s "
          f"({sf['fused_wall_seconds']:.3f}s wall; {sf['batches']} batches, "
          f"occupancy {sf['batch_occupancy']:.1f} waves/dispatch)")
    tl = report["telemetry"]
    print(f"telemetry: {tl['overhead_pct']:+.2f}% wall overhead with the "
          f"full live stack attached ({tl['telemetry_wall_seconds']:.3f}s "
          f"vs {tl['bare_wall_seconds']:.3f}s bare; "
          f"{tl['slo_violations']} violations, "
          f"{tl['alerts_fired']} alerts)")
    saved = f"[saved to {out}"
    if appended:
        saved += f"; appended to {args.history}"
    print(saved + "]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
