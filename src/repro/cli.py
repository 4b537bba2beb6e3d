"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Simulate one workload under one configuration and print the result
    summary (optionally with per-allocation access totals of its
    stream).
``compare``
    Run all four migration policies on one workload at one
    oversubscription level, replaying one recording of its stream, and
    print normalized runtimes.
``figure``
    Regenerate one of the paper's tables/figures and print the
    paper-vs-measured comparison (``--jobs N`` fans the experiment
    grid out over worker processes).
``sweep``
    Map a workload's runtime across oversubscription levels and
    policies (also ``--jobs``-parallel).
``trace``
    Record a workload's access trace to a file, or replay a trace file
    under a chosen configuration.
``inspect``
    Summarize a structured event log recorded with ``--events``:
    top-thrashing blocks and the threshold trajectory per allocation.
``serve``
    Multi-tenant open-loop serving run: seeded tenant arrivals admitted
    against a shared device capacity, wave streams interleaved onto one
    driver, graceful throttle/queue/shed degradation under overload.
``runs``
    List the archived runs under the run store.
``diff``
    Compare two archived runs: per-metric deltas, config changes, and
    (when both event logs were archived) round-trip quantiles,
    thrashing-set differences and ``t_d`` trajectories.
``config``
    Validate declarative scenario configs (``repro config validate``)
    or print one fully resolved (``repro config show``); the scenario
    format is documented in ``docs/scenarios.md``.
``list``
    Show available workloads, scales, policies and figures.

The knob flags of ``run``, ``compare``, ``trace replay`` and ``serve``
are scenario keys: each flag sets one dotted key of the scenario schema
and is generated from that key's declaration (spelling, type or
choices, help, documented default), and the flags given form a scenario
that compiles exactly like a YAML one.  ``run``, ``sweep`` and
``serve`` also accept declarative YAML scenario configs (``--config
scenario.yaml``; for ``sweep`` additionally ``--config-dir
configs/``) -- see the ``configs/`` library and ``docs/scenarios.md``.
With ``--config``, the knob flags given alongside override the file's
keys.  Archived
config-driven runs embed the resolved scenario (flags included) in
their manifest, so ``repro diff`` explains them by scenario-key deltas.

The simulation commands (``run``, ``trace replay``, ``serve``) accept
the observability flags ``--events out.jsonl[.gz]`` (structured event
log), ``--metrics out.json`` (counter/histogram rollup), ``--profile``
(host self time per span), ``--timeline out.trace.json``
(Chrome-trace export for Perfetto), and ``--archive`` (persist the run
under ``.repro/runs/<run_id>/`` for later ``repro diff``); the grid
commands (``figure``, ``sweep``) accept ``--metrics`` for per-cell
timing and retry rollups, and ``--archive`` to file every grid cell
under a shared sweep id.  All of these are off by default and cost
nothing when off.  Every grid records each access stream once and
replays it memory-mapped in all the cells that share it; ``--trace-cache
DIR`` keeps those recordings in ``DIR`` for later grids instead of a
temporary directory removed when the grid ends.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import analysis
from .analysis.tables import format_table
from .config import MigrationPolicy
from .scenario.compile import compiled_default
from .scenario.schema import SCHEMA, show
from .sim.simulator import Simulator
from .trace import TraceWorkload, record_trace
from .workloads import ALL_WORKLOADS, SCALES, make_workload


@contextlib.contextmanager
def _exit_on_error(command: str):
    """Turn a bad input into a one-line ``repro <command>: ...`` exit.

    Wraps the building of a command's inputs (scenario, configs, trace
    file); a :class:`~repro.scenario.ScenarioError` is a ``ValueError``.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro {command}: {exc}") from None


def _scenario(args, command: str, mode: str = "run") -> dict:
    """The scenario a simulation command runs.

    Every knob flag's ``dest`` is its scenario schema path and the flag
    has no parser default, so the flags actually given form a scenario
    of their own.  With ``--config`` that scenario is deep-merged over
    the loaded one: explicit flags override the file's keys.
    """
    from .scenario import deep_merge
    from .scenario.schema import unflatten
    flags = unflatten({path: value for path, value in vars(args).items()
                       if path in SCHEMA and value is not None})
    if not getattr(args, "config", None):
        return {"mode": mode, **flags}
    return deep_merge(_load_scenario_file(args.config, command), flags)


def _make_workload(name: str, scale: str):
    """Instantiate a workload, turning registry KeyErrors into CLI errors."""
    try:
        return make_workload(name, scale)
    except KeyError as exc:
        raise SystemExit(f"repro: {exc.args[0]}") from None


def _grid_options(args):
    """Build GridOptions from the resilience flags (figure/sweep)."""
    from .analysis import GridOptions
    registry = None
    if getattr(args, "metrics", None):
        from .obs import MetricsRegistry
        registry = MetricsRegistry()
    store = None
    if getattr(args, "archive", False):
        from .obs.store import RunStore
        store = RunStore(getattr(args, "runs", None))
    try:
        return GridOptions(retries=args.retries,
                           cell_timeout=args.cell_timeout,
                           checkpoint=args.checkpoint,
                           resume=args.resume,
                           metrics=registry,
                           archive=store,
                           trace_cache=getattr(args, "trace_cache", None))
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from None


def _finish_grid_metrics(grid, args) -> None:
    """Write the grid runner's metric rollup after a figure/sweep."""
    if grid.metrics is not None:
        grid.metrics.write_json(args.metrics)
        print(f"[grid metrics written to {args.metrics}]")
    if grid.archive is not None:
        print(f"[grid cells archived under {grid.archive.root}; list with "
              f"`repro runs`, compare with `repro diff`]")


def _make_obs(args):
    """Build an Observability handle from the simulation obs flags.

    Returns ``None`` when every flag (``--events``, ``--metrics``,
    ``--profile``, ``--timeline``, ``--archive``) is off, which keeps
    the simulation on the zero-overhead uninstrumented path.
    """
    events = getattr(args, "events", None)
    metrics = getattr(args, "metrics", None)
    profile = getattr(args, "profile", False)
    timeline = getattr(args, "timeline", None)
    archive = getattr(args, "archive", False)
    prom = getattr(args, "prom", None)
    if not (events or metrics or profile or timeline or archive or prom):
        return None
    from .obs import Observability
    try:
        return Observability.create(
            events_path=events, metrics=bool(metrics) or bool(prom),
            profile=profile, timeline=bool(timeline),
            events_flush=getattr(args, "flush_events", None))
    except ValueError as exc:  # e.g. --flush-events on a .gz log
        raise SystemExit(f"repro: {exc}")


def _begin_archive(args, obs, manifest):
    """Open a run-archive slot and stream the event log into it.

    Returns the open :class:`~repro.obs.store.RunWriter` (or ``None``
    when ``--archive`` is off).  ``manifest`` builds the run's manifest
    from the :class:`~repro.obs.store.RunStore`; the manifest -- and
    with it the content-addressed run id -- is derived *before* the
    simulation runs, so the archived event log can be written in place
    rather than copied afterwards.  A config-driven run embeds its fully
    resolved scenario (flags merged in) in the manifest config and
    names it in ``manifest.scenario``, so ``repro diff`` can explain two
    runs by their scenario deltas.
    """
    if not getattr(args, "archive", False):
        return None
    from .obs import JsonlSink
    from .obs.store import RunStore
    store = RunStore(getattr(args, "runs", None))
    writer = store.open_run(manifest(store))
    obs.bus.attach(JsonlSink(writer.events_path))
    return writer


def _finish_archive(writer, result, obs) -> None:
    """Commit an archived run after its sinks have been flushed."""
    if writer is None:
        return
    metrics = obs.metrics.as_dict() if obs.metrics is not None else None
    run_id = writer.commit(result, metrics=metrics)
    print(f"[archived as {run_id}; list with `repro runs`, compare with "
          f"`repro diff {run_id} <other-run>`]")


def _finish_obs(obs, args) -> None:
    """Flush observability outputs after a simulation command."""
    if obs is None:
        return
    obs.close()
    # Artifact notes are status, not results: stderr keeps --json
    # stdout a clean machine-readable document.
    def note(msg):
        print(msg, file=sys.stderr)

    if getattr(args, "metrics", None):
        obs.metrics.write_json(args.metrics)
        note(f"[metrics written to {args.metrics}]")
    if getattr(args, "events", None):
        note(f"[events written to {args.events}; summarize with "
             f"`repro inspect {args.events}`]")
    if getattr(args, "timeline", None):
        obs.timeline.write(args.timeline)
        note(f"[timeline written to {args.timeline}; open it in Perfetto "
             f"(ui.perfetto.dev) or chrome://tracing]")
    if getattr(args, "prom", None):
        from .obs.live.export import write_openmetrics
        write_openmetrics(obs.metrics, args.prom)
        note(f"[OpenMetrics exposition written to {args.prom}]")
    if getattr(args, "profile", False):
        # A table is not part of a --json document.
        out = sys.stderr if getattr(args, "json", False) else sys.stdout
        print(file=out)
        print(obs.profiler.render(), file=out)


def _print_summary(result) -> None:
    rows = [[k, v if not isinstance(v, float) else round(v, 3)]
            for k, v in result.summary().items()]
    print(format_table(["metric", "value"], rows,
                       title=f"== {result.workload} =="))
    t = result.timing
    rows = [[comp, f"{getattr(t, comp):,.0f}",
             f"{100 * getattr(t, comp) / max(t.total, 1e-9):.1f}%"]
            for comp in ("compute", "local", "remote", "fault_handling",
                         "migration", "writeback")]
    print()
    print(format_table(["component", "cycles", "of total"], rows,
                       title="-- cycle breakdown (components overlap; "
                             "sum may exceed total)"))


def _load_scenario_file(path: str, command: str) -> dict:
    """Load + validate one scenario file, mapping errors to CLI exits."""
    from .scenario import ScenarioError, load_scenario
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise SystemExit(f"repro {command}: {exc}") from None


def _run_scenario_batch(args, scenarios, command: str, jobs: int = 1,
                        grid=None) -> int:
    """Execute scenarios through the batch runner; print per-scenario
    tables."""
    from .scenario import run_scenarios
    store = None
    if grid is None and getattr(args, "archive", False):
        from .obs.store import RunStore
        store = RunStore(getattr(args, "runs", None))
    with _exit_on_error(command):
        outcomes = run_scenarios(scenarios, jobs=jobs, options=grid,
                                 store=store)
    print("\n\n".join(o.render() for o in outcomes))
    return 0


#: Flags of ``run`` and ``serve`` that only a single simulation reads,
#: as ``(argparse dest, flag)``: the scenario batch route runs whole
#: scenarios and reads none of them.
_SINGLE_RUN_FLAGS = (
    ("events", "--events"), ("flush_events", "--flush-events"),
    ("metrics", "--metrics"), ("prom", "--prom"),
    ("profile", "--profile"), ("timeline", "--timeline"),
    ("histogram", "--histogram"),
    ("debug_invariants", "--debug-invariants"),
    ("json", "--json"), ("slo_config", "--slo-config"))


def _reject_single_run_flags(args, command: str, what: str) -> None:
    """Exit naming the first single-run flag given: ``what`` (a kind of
    scenario) runs through the scenario batch route, which would drop
    it."""
    for dest, flag in _SINGLE_RUN_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value is not False:
            raise SystemExit(
                f"repro {command}: {flag} applies to a single run; {what} "
                "runs through the scenario batch route, which does not "
                "read it")


def _sim_config(args, variant: dict):
    """The config ``variant`` compiles to, under the CLI-only
    ``--debug-invariants`` overlay: it audits a run, never changes what
    it simulates."""
    from .scenario import build_sim_config
    return build_sim_config(variant).replace(
        debug_invariants=args.debug_invariants)


def _simulate(args, cfg, wl, oversub: float, scale: str,
              scenario: dict | None = None) -> int:
    """Run one simulation under the observability flags and report it."""
    obs = _make_obs(args)
    archive = _begin_archive(args, obs, lambda store: store.run_manifest(
        cfg, wl.name, scale, oversub, scenario=scenario,
        name=scenario.get("name") if scenario is not None else None))
    result = Simulator(cfg).run(wl, oversubscription=oversub, obs=obs)
    _print_summary(result)
    _finish_obs(obs, args)
    _finish_archive(archive, result, obs)
    return 0


def cmd_run(args) -> int:
    from .scenario import build_cell
    if args.config and args.workload is not None:
        raise SystemExit("repro run: give either a workload or "
                         "--config, not both")
    if not args.config and args.workload is None:
        raise SystemExit("repro run: a workload name or --config "
                         "scenario.yaml is required")
    scenario = _scenario(args, "run")
    mode = scenario.get("mode", "run")
    if mode != "run":
        # Sweeps, serve and multigpu scenarios still run (batch path,
        # compact output); the detailed single-run report below only
        # makes sense for one simulation.
        _reject_single_run_flags(args, "run", f"a {mode!r} scenario")
        return _run_scenario_batch(args, [scenario], "run")
    with _exit_on_error("run"):
        cell = build_cell(scenario)
        cfg = _sim_config(args, scenario)
    wl = _make_workload(cell.workload, cell.scale)
    trace = None
    if args.histogram:
        # Summarize a recording of the run's stream, and simulate its
        # replay (bit-identical to the live run) so that the stream is
        # generated once.
        trace = record_trace(wl, seed=cfg.seed)
        wl = TraceWorkload(trace)
    # Only config-driven runs archive a scenario: a flag run's manifest
    # is its config alone.
    status = _simulate(args, cfg, wl, cell.oversubscription, cell.scale,
                       scenario=scenario if args.config else None)
    if trace is not None:
        print()
        print(analysis.allocation_table(
            analysis.allocation_totals(trace),
            "-- access histogram per allocation"))
    return status


def cmd_compare(args) -> int:
    from .scenario import build_cell, deep_merge
    scenario = _scenario(args, "compare")
    with _exit_on_error("compare"):
        cell = build_cell(scenario)
        configs = {pol: _sim_config(args, deep_merge(
                       scenario, {"policy": {"variant": pol.value}}))
                   for pol in MigrationPolicy}
    # One recording replayed under every policy, as a grid does: replay
    # is bit-identical to generating the stream live for each run.
    wl = TraceWorkload(record_trace(
        _make_workload(cell.workload, cell.scale), seed=cell.seed))
    results = {pol: Simulator(cfg).run(
                   wl, oversubscription=cell.oversubscription)
               for pol, cfg in configs.items()}
    base = results[MigrationPolicy.DISABLED]
    rows = []
    for pol, r in results.items():
        rows.append([pol.value,
                     f"{r.runtime_seconds * 1e3:.2f}",
                     f"{r.normalized_runtime(base) * 100:.1f}%",
                     r.fault_count, r.events.n_remote,
                     r.events.thrash_migrations])
    print(format_table(
        ["policy", "runtime (ms)", "vs baseline", "faults", "remote",
         "thrash"],
        rows, title=f"== {cell.workload} @ {cell.oversubscription:.0%} "
                    f"of device memory =="))
    return 0


#: Figures whose data is a SeriesResult (CSV-exportable).
_FIGURE_SERIES = {
    "fig1": lambda scale, jobs, grid: analysis.figure1(scale, jobs=jobs,
                                                       grid=grid),
    "fig4": lambda scale, jobs, grid: analysis.figure4(scale, jobs=jobs,
                                                       grid=grid),
    "fig5": lambda scale, jobs, grid: analysis.figure5(scale, jobs=jobs,
                                                       grid=grid),
    "fig6": lambda scale, jobs, grid: analysis.figure6_7(scale, jobs=jobs,
                                                         grid=grid)[0],
    "fig7": lambda scale, jobs, grid: analysis.figure6_7(scale, jobs=jobs,
                                                         grid=grid)[1],
    "fig8": lambda scale, jobs, grid: analysis.figure8(scale, jobs=jobs,
                                                       grid=grid),
}

_FIGURES = {
    "table1": lambda scale, jobs, grid: analysis.table1(),
    "fig2": lambda scale, jobs, grid: analysis.render_figure2(
        analysis.figure2(scale, trace_cache=grid.trace_cache)),
    "fig3": lambda scale, jobs, grid: analysis.render_figure3(
        analysis.figure3(scale, trace_cache=grid.trace_cache)),
}
_FIGURES.update({
    fid: (lambda scale, jobs, grid, _s=series: _s(scale, jobs, grid).render())
    for fid, series in _FIGURE_SERIES.items()
})


def cmd_figure(args) -> int:
    ids = sorted(_FIGURES) if args.id == "all" else [args.id]
    grid = _grid_options(args)
    chunks = []
    for fid in ids:
        if args.csv:
            series = _FIGURE_SERIES.get(fid)
            if series is None:
                raise SystemExit(
                    f"--csv is only available for bar figures, not {fid!r}")
            chunks.append(series(args.scale, args.jobs, grid).to_csv())
        else:
            chunks.append(_FIGURES[fid](args.scale, args.jobs, grid))
    text = "\n\n".join(chunks) if not args.csv else "".join(chunks)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[saved to {args.out}]")
    _finish_grid_metrics(grid, args)
    return 0


def _cmd_sweep_config(args) -> int:
    """``repro sweep --config-dir DIR`` / ``--config scenario.yaml``."""
    from .scenario import ScenarioError, load_directory
    if args.config_dir:
        try:
            scenarios = load_directory(args.config_dir)
        except ScenarioError as exc:
            raise SystemExit(f"repro sweep: {exc}") from None
    else:
        scenarios = [_load_scenario_file(args.config, "sweep")]
    grid = _grid_options(args)
    status = _run_scenario_batch(args, scenarios, "sweep", jobs=args.jobs,
                                 grid=grid)
    _finish_grid_metrics(grid, args)
    return status


def cmd_sweep(args) -> int:
    if args.config or args.config_dir:
        if args.config and args.config_dir:
            raise SystemExit("repro sweep: give either --config or "
                             "--config-dir, not both")
        if args.workload is not None:
            raise SystemExit("repro sweep: give either a workload or "
                             "--config/--config-dir, not both")
        return _cmd_sweep_config(args)
    if args.workload is None:
        raise SystemExit("repro sweep: a workload name or "
                         "--config/--config-dir is required")
    grid = _grid_options(args)
    if args.fault_rates:
        try:
            rates = tuple(float(r) for r in args.fault_rates.split(","))
            policy = MigrationPolicy(args.policies.split(",")[0])
        except ValueError as exc:
            raise SystemExit(f"repro sweep: {exc}") from None
        res = analysis.fault_rate_sweep(
            args.workload, policy=policy, rates=rates, scale=args.scale,
            seed=args.seed, jobs=args.jobs, grid=grid)
        print(res.render())
        _finish_grid_metrics(grid, args)
        return 0
    try:
        policies = tuple(MigrationPolicy(p)
                         for p in args.policies.split(","))
        levels = tuple(float(l) for l in args.levels.split(","))
    except ValueError as exc:
        raise SystemExit(f"repro sweep: {exc}") from None
    res = analysis.oversubscription_sweep(
        args.workload, policies=policies, levels=levels, scale=args.scale,
        seed=args.seed, jobs=args.jobs, grid=grid)
    print(res.render())
    _finish_grid_metrics(grid, args)
    return 0


def cmd_trace(args) -> int:
    from .trace import save_trace
    if args.trace_cmd == "record":
        data = record_trace(_make_workload(args.workload, args.scale),
                            seed=args.seed)
        path = save_trace(data, args.output)
        print(f"recorded {data.num_waves} waves / "
              f"{data.num_accesses} accesses to {path}")
        return 0
    # replay: the trace names the workload, the flags its knobs.
    from .scenario import build_cell
    scenario = _scenario(args, "trace")
    with _exit_on_error("trace"):
        wl = TraceWorkload(args.input)
        cell = build_cell({**scenario, "workload": wl.name})
        cfg = _sim_config(args, scenario)
    return _simulate(args, cfg, wl, cell.oversubscription, "-")


def _print_serve_summary(result) -> None:
    fmt_us = lambda v: "-" if v is None else f"{v / 1e3:.2f}"  # noqa: E731
    rows = [
        ["arrivals", result.arrivals],
        ["admitted", result.admitted],
        ["queued", result.queued],
        ["shed", result.shed],
        ["completed", result.completed],
        ["shed rate", f"{result.shed_rate:.1%}"],
        ["peak live oversubscription",
         f"{result.peak_live_oversubscription:.2f}x"],
        ["throttle events", result.throttle_events],
        ["duration (ms)", fmt_us(result.duration_us)],
        ["waves", result.total_waves],
        ["accesses/s", f"{result.accesses_per_second:,.0f}"],
        ["p50 wave latency (us)",
         "-" if result.p50_wave_latency_us is None
         else f"{result.p50_wave_latency_us:.1f}"],
        ["p99 wave latency (us)",
         "-" if result.p99_wave_latency_us is None
         else f"{result.p99_wave_latency_us:.1f}"],
        ["first throttle (ms)", fmt_us(result.first_throttle_us)],
        ["first queue (ms)", fmt_us(result.first_queue_us)],
        ["first shed (ms)", fmt_us(result.first_shed_us)],
        ["slo violations", result.slo_violations],
        ["alerts fired", result.alerts_fired],
        ["scheduler", result.scheduler],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"== serve: {result.arrivals} tenants @ "
                             f"{result.config.capacity_mb}MB =="))
    rows = []
    for t in result.tenants:
        if t.shed:
            state = f"shed ({t.shed_reason})"
        elif t.complete_us is not None:
            state = "complete"
        else:
            state = "admitted"
        rows.append([
            t.tenant, t.workload, f"{t.footprint_mb:.1f}",
            f"{t.arrival_us / 1e3:.2f}", f"{t.queued_us / 1e3:.2f}",
            state, t.waves,
            "-" if t.p99_wave_latency_us is None
            else f"{t.p99_wave_latency_us:.1f}",
            t.throttled_rounds, t.thrash_migrations, t.cross_evictions])
    print()
    print(format_table(
        ["tenant", "workload", "MB", "arrive ms", "queued ms", "state",
         "waves", "p99 us", "thr rounds", "thrash", "x-evict"],
        rows, title="-- per-tenant lifecycle"))


def _load_slo_config(args):
    """Parse ``--slo-config FILE`` into an :class:`SloConfig` or None.

    The file holds the ``slo.*`` keys of a ``mode: serve`` scenario,
    either nested under a ``slo:`` section, flat
    (``slo.p99_latency_us: 300``) or bare (``p99_latency_us: 300``).
    They are checked against the schema and compiled like a scenario's
    ``slo:`` section, so a bad value is rejected before anything runs.
    """
    path = getattr(args, "slo_config", None)
    if path is None:
        return None
    from pathlib import Path
    from .scenario import ScenarioError, build_slo_config, check
    from .scenario.loader import _load_yaml
    try:
        data = _load_yaml(Path(path))
    except ScenarioError as exc:
        raise SystemExit(f"repro serve: --slo-config: {exc}") from None
    section = data["slo"] if isinstance(data.get("slo"), dict) else {
        key.removeprefix("slo."): value for key, value in data.items()}
    scenario = {"mode": "serve", "slo": section}
    try:
        errors = check(scenario)
        if errors:
            raise ValueError("; ".join(errors))
        config = build_slo_config(scenario)
    except ValueError as exc:
        raise SystemExit(f"repro serve: --slo-config {path}: "
                         f"{exc}") from None
    if config is None:
        raise SystemExit(f"repro serve: --slo-config {path} sets no "
                         "objective (need at least one of p99_latency_us, "
                         "max_shed_rate, min_throughput)")
    return config


def cmd_serve(args) -> int:
    from .scenario import build_serve_config, build_slo_config, expand
    from .serve import ServeSession
    scenario = _scenario(args, "serve", mode="serve")
    if scenario.get("mode", "run") != "serve":
        raise SystemExit(
            f"repro serve: {scenario.get('name')} has mode "
            f"{scenario.get('mode', 'run')!r}; `repro serve --config` "
            "needs mode: serve (other modes run via `repro run --config` "
            "or `repro sweep --config-dir`)")
    variants = expand(scenario)
    if len(variants) > 1:
        # A swept serve scenario: batch path with one row per variant.
        _reject_single_run_flags(args, "serve", "a swept serve scenario")
        return _run_scenario_batch(args, [scenario], "serve")
    variant = variants[0].data
    with _exit_on_error("serve"):
        serve_cfg = build_serve_config(variant)
        sim_cfg = _sim_config(args, variant)
        slo = build_slo_config(variant)
    # --slo-config on the command line overrides the scenario's slo:
    # section wholesale (objectives are not merged key-by-key).
    flag_slo = _load_slo_config(args)
    if flag_slo is not None:
        slo = flag_slo
    obs = _make_obs(args)
    archive = _begin_archive(args, obs, lambda store: store.serve_manifest(
        serve_cfg, sim_cfg, scenario=scenario if args.config else None,
        name=scenario.get("name") if args.config else None))
    with _exit_on_error("serve"):
        result = ServeSession(serve_cfg, sim_config=sim_cfg, obs=obs,
                              scenario=scenario.get("name"),
                              slo=slo).run()
    if args.json:
        import json as _json
        print(_json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        _print_serve_summary(result)
    _finish_obs(obs, args)
    if archive is not None:
        metrics = obs.metrics.as_dict() if obs.metrics is not None else None
        run_id = archive.commit_dict(result.as_dict(), metrics=metrics)
        print(f"[archived as {run_id}; list with `repro runs`]",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_inspect(args) -> int:
    from .obs.inspect import render_summary, summarize
    try:
        summary = summarize(args.events)
    except OSError as exc:
        raise SystemExit(f"repro inspect: {exc}") from None
    print(render_summary(summary, top=args.top))
    return 0


def cmd_top(args) -> int:
    from .obs.live.top import run_top
    return run_top(args.events, follow=args.follow,
                   interval=args.interval, frames=args.frames)


def cmd_runs(args) -> int:
    from .obs.store import RunStore
    store = RunStore(args.runs)
    manifests = store.list()
    if not manifests:
        print(f"no archived runs under {store.root} "
              f"(create some with `repro run <workload> --archive`)")
        return 0
    import datetime
    rows = []
    for m in manifests:
        when = datetime.datetime.fromtimestamp(
            m.created).strftime("%Y-%m-%d %H:%M")
        sha = (m.git or {}).get("sha") or "-"
        rows.append([m.run_id, m.kind, m.workload, m.policy,
                     m.oversubscription if m.oversubscription is not None
                     else "-",
                     m.seed, (m.sweep_id or "-")[:8], sha[:8], when])
    print(format_table(
        ["run id", "kind", "workload", "policy", "oversub", "seed",
         "sweep", "commit", "archived"],
        rows, title=f"== archived runs ({store.root}) =="))
    return 0


def cmd_diff(args) -> int:
    import json as _json
    from .obs.compare import diff_runs, render_diff
    from .obs.store import RunStore
    store = RunStore(args.runs)
    try:
        run_a = store.load(args.run_a)
        run_b = store.load(args.run_b)
    except (KeyError, OSError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        raise SystemExit(f"repro diff: {msg}") from None
    diff = diff_runs(run_a, run_b, tolerance=args.tolerance / 100.0,
                     top=args.top)
    if args.json:
        print(_json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
    return 0


def _collect_scenario_paths(paths, command: str):
    """Expand files/directories into runnable scenario file paths."""
    import os
    from .scenario import ScenarioError, scenario_files
    collected = []
    for path in paths:
        if os.path.isdir(path):
            try:
                collected.extend(scenario_files(path))
            except ScenarioError as exc:
                raise SystemExit(f"repro {command}: {exc}") from None
        else:
            collected.append(path)
    return collected


def cmd_config(args) -> int:
    from .scenario import ScenarioError, compile_check, load_scenario
    if args.config_cmd == "show":
        import json as _json
        scenario = _load_scenario_file(args.path, "config")
        try:
            labels = compile_check(scenario)
        except ScenarioError as exc:
            raise SystemExit(f"repro config: {exc}") from None
        print(_json.dumps(scenario, indent=2, sort_keys=True))
        if len(labels) > 1 or "sweep" in scenario:
            print(f"\n# expands to {len(labels)} variant(s):")
            for label in labels:
                print(f"#   {label}")
        return 0
    # validate
    failures = 0
    for path in _collect_scenario_paths(args.paths, "config"):
        try:
            scenario = load_scenario(path)
            labels = compile_check(scenario)
        except ScenarioError as exc:
            print(f"FAIL {path}\n  {exc}", file=sys.stderr)
            failures += 1
            continue
        suffix = (f" ({len(labels)} variants)" if len(labels) > 1 else "")
        print(f"ok   {path} [{scenario.get('mode', 'run')}]{suffix}")
    if failures:
        print(f"\n{failures} scenario(s) failed validation",
              file=sys.stderr)
        return 1
    return 0


def cmd_list(args) -> int:
    print("workloads:", ", ".join(ALL_WORKLOADS))
    print("scales:   ", ", ".join(SCALES))
    print("policies: ", ", ".join(p.value for p in MigrationPolicy))
    print("figures:  ", ", ".join(_FIGURES))
    return 0


def _jobs_arg(text: str) -> int:
    """Parse ``--jobs``: non-negative int, 0 meaning one worker per CPU."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one worker per CPU), got {value}")
    return value


def _workload_arg(name: str) -> str:
    """Validate a workload name at parse time, listing the registry."""
    if name not in ALL_WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(ALL_WORKLOADS)}")
    return name


def _list_arg(key):
    """The argparse type of a list knob: comma-separated items, each of
    the key's item type and, when it has choices, one of them."""
    item = float if float in key.item else str

    def parse(text: str) -> list:
        try:
            values = [item(v.strip()) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated numbers, got {text!r}") from None
        for value in values:
            if key.choices is not None and value not in key.choices:
                raise argparse.ArgumentTypeError(
                    f"unknown value {value!r}; choose from "
                    f"{', '.join(key.choices)}")
        return values
    return parse


def _add_knob(p, path: str, mode: str = "run", **spec) -> None:
    """Add the option the scenario schema declares for ``path``.

    Its ``dest`` is the path, and its spelling, type or choices, metavar
    and help come from the key's entry; the help ends with the default
    the key compiles to in ``mode``.  Unless ``spec`` gives one, it has
    no parser default: an omitted option leaves the key unset (see
    :func:`_scenario`), so it keeps the ``--config`` value or that
    default.
    """
    key = SCHEMA[path]
    text = key.help
    default = compiled_default(path, mode)
    if default is not None:
        text += f" (default: {show(default)})"
    if bool in key.type:
        arg = {"action": "store_true", "default": None}
    elif key.item is not None:
        arg = {"type": _list_arg(key), "metavar": key.metavar}
    elif key.choices is not None:
        arg = {"choices": key.choices}
    else:
        arg = {"type": key.type[-1], "metavar": key.metavar}
    arg.update(help=text.replace("%", "%%"), **spec)
    if key.flag is None:
        p.add_argument(path, **arg)  # a positional's dest is its name
    else:
        p.add_argument(key.flag, dest=path, **arg)


def _add_workload(p, **spec) -> None:
    """The workload positional; :func:`_workload_arg` lists the registry
    on a miss, where argparse choices would list it in the usage line."""
    _add_knob(p, "workload", type=_workload_arg, choices=None, **spec)


def _add_sim_flags(p, mode: str = "run", skip: tuple = ()) -> None:
    """A simulation command's flags: the knob flag of every simulation
    knob (and, under ``serve``, every serve knob) outside ``skip``, and
    the ``--debug-invariants`` audit overlay."""
    for path, key in SCHEMA.items():
        if key.flag and path not in skip and (
                key.cell or mode == "serve" and path.startswith("serve.")):
            _add_knob(p, path, mode)
    p.add_argument("--debug-invariants", action="store_true",
                   help="check residency/capacity accounting after "
                        "every wave (slow; for debugging)")


def _add_obs_args(p) -> None:
    """Observability flags for the simulation commands (run, replay,
    serve)."""
    p.add_argument("--events", default=None, metavar="PATH",
                   help="write structured driver events (migration "
                        "decisions, evictions, counter halvings) to this "
                        "JSONL file (gzipped when the path ends in .gz); "
                        "summarize with `repro inspect`")
    p.add_argument("--flush-events", type=int, default=None, metavar="N",
                   help="flush the --events log every N events so it can "
                        "be tailed live (`repro top --follow`); rejected "
                        "for .gz logs, which only become readable at "
                        "close")
    p.add_argument("--prom", default=None, metavar="PATH",
                   help="write the metric rollup as a Prometheus/"
                        "OpenMetrics text exposition after the run "
                        "(implies a metrics registry)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write the metric rollup (decision counters, "
                        "threshold histogram, PCIe queue depth series) "
                        "to this JSON file")
    p.add_argument("--profile", action="store_true",
                   help="print host self time per span after the run "
                        "(root, wave generation, timing model, serve "
                        "dispatch, driver wave, migrate drain, "
                        "eviction), as shares that add up to the root's "
                        "time; on stderr under --json")
    p.add_argument("--timeline", default=None, metavar="PATH",
                   help="export the same spans, driver events and wave "
                        "boundaries as a Chrome-trace JSON file "
                        "(open in Perfetto or chrome://tracing)")
    p.add_argument("--archive", action="store_true",
                   help="persist the run (manifest, result, metrics, "
                        "compressed event log) under the run store for "
                        "`repro diff`")
    _add_runs_arg(p)


def _add_runs_arg(p) -> None:
    p.add_argument("--runs", default=None, metavar="DIR",
                   help="run-store root (default: $REPRO_RUNS_DIR or "
                        ".repro/runs)")


def _add_grid_args(p) -> None:
    """Resilience flags for the grid-running commands (figure, sweep)."""
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write grid-runner metrics (per-cell wall time, "
                        "retries, pool rebuilds) to this JSON file")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts per grid cell after a failure")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="declare the worker pool hung when no cell "
                        "completes for this long, then rebuild it")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="append completed cells to this JSONL journal")
    p.add_argument("--resume", action="store_true",
                   help="serve cells already in the --checkpoint journal "
                        "instead of re-simulating them")
    p.add_argument("--archive", action="store_true",
                   help="archive every grid cell's result under the run "
                        "store, grouped by a shared sweep id")
    p.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="keep the grid's recorded (workload, scale, seed) "
                        "access streams in this shared trace cache, so "
                        "later grids replay them instead of recording "
                        "again (every grid records each stream once and "
                        "replays it in all its cells; by default into a "
                        "temporary directory removed at the end)")
    _add_runs_arg(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive page migration under GPU memory "
                    "oversubscription (IPDPS 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one workload")
    _add_workload(p, nargs="?", default=None)
    p.add_argument("--config", default=None, metavar="YAML",
                   help="run a declarative scenario config (see "
                        "docs/scenarios.md); simulation flags given with "
                        "it override the scenario's keys")
    p.add_argument("--histogram", action="store_true",
                   help="also print per-allocation read and write totals "
                        "of the run's access stream")
    _add_sim_flags(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="all four policies on one workload")
    _add_workload(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("id", choices=sorted(_FIGURES) + ["all"])
    _add_knob(p, "scale", default=compiled_default("scale"))
    p.add_argument("--jobs", type=_jobs_arg, default=1,
                   help="worker processes for the experiment grid "
                        "(0 = one per CPU, 1 = serial)")
    p.add_argument("--out", default=None, help="also save to this file")
    p.add_argument("--csv", action="store_true",
                   help="emit CSV instead of the rendered table "
                        "(bar figures only)")
    _add_grid_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("sweep", help="oversubscription sweep on one workload")
    _add_workload(p, nargs="?", default=None)
    p.add_argument("--config", default=None, metavar="YAML",
                   help="run one declarative scenario config "
                        "(sweep axes expand to the experiment grid)")
    p.add_argument("--config-dir", default=None, metavar="DIR",
                   help="run every scenario in a config directory "
                        "(files starting with '_' are inheritance "
                        "bases and are skipped); all grid cells share "
                        "one worker pool")
    _add_knob(p, "scale", default=compiled_default("scale"))
    p.add_argument("--levels",
                   default=",".join(str(l) for l in analysis.DEFAULT_LEVELS),
                   help="comma-separated oversubscription levels")
    p.add_argument("--policies", default="disabled,adaptive",
                   help="comma-separated migration policies to sweep")
    p.add_argument("--fault-rates", default=None,
                   help="sweep injected transient-fault rates instead of "
                        "oversubscription levels (comma-separated; uses "
                        "the first --policies entry)")
    _add_knob(p, "seed", default=compiled_default("seed"))
    p.add_argument("--jobs", type=_jobs_arg, default=1,
                   help="worker processes for the sweep grid "
                        "(0 = one per CPU, 1 = serial)")
    _add_grid_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="record or replay access traces")
    tsub = p.add_subparsers(dest="trace_cmd", required=True)
    pr = tsub.add_parser("record")
    _add_workload(pr)
    _add_knob(pr, "scale", default=compiled_default("scale"))
    _add_knob(pr, "seed", default=compiled_default("seed"))
    pr.add_argument("-o", "--output", required=True)
    pr.set_defaults(func=cmd_trace)
    pp = tsub.add_parser("replay")
    pp.add_argument("-i", "--input", required=True)
    # The trace fixes the access stream, scale included.
    _add_sim_flags(pp, skip=("scale",))
    _add_obs_args(pp)
    pp.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="multi-tenant open-loop serving run")
    p.add_argument("--config", default=None, metavar="YAML",
                   help="run a mode: serve scenario config (see "
                        "docs/scenarios.md); serve and simulation flags "
                        "given with it override the scenario's keys")
    p.add_argument("--json", action="store_true",
                   help="print the full serve result as JSON")
    p.add_argument("--slo-config", default=None, metavar="YAML",
                   help="per-tenant serving objectives (slo.* keys: "
                        "p99_latency_us, max_shed_rate, min_throughput, "
                        "...); enables the streaming SLO engine and "
                        "alerting (overrides a scenario's slo: section)")
    # Tenants share a fixed capacity instead of an oversubscription.
    _add_sim_flags(p, "serve", skip=("oversubscription",))
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("top", help="terminal dashboard over a serve "
                                   "event log (per-tenant SLO table)")
    p.add_argument("events", help="JSONL event log written by "
                                  "`repro serve --events` (plain .jsonl "
                                  "only; .gz logs are not tailable)")
    p.add_argument("--follow", action="store_true",
                   help="refresh while the log grows (pair with "
                        "`--flush-events 1` on the serve side)")
    p.add_argument("--interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="refresh interval in --follow mode (default 0.5)")
    p.add_argument("--frames", type=int, default=None, metavar="N",
                   help="stop after N refreshes (default: until the log "
                        "stops growing)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("inspect", help="summarize a structured event log")
    p.add_argument("events", help="JSONL event log written by --events "
                                  "(plain or .jsonl.gz)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="thrashing blocks to show (default 10)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("runs", help="list archived runs")
    _add_runs_arg(p)
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("diff", help="compare two archived runs")
    p.add_argument("run_a", help="archived run id (unique prefix ok)")
    p.add_argument("run_b", help="archived run id (unique prefix ok)")
    p.add_argument("--json", action="store_true",
                   help="emit the full delta report as JSON")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="thrashing blocks compared per run (default 10)")
    p.add_argument("--tolerance", type=float, default=1.0, metavar="PCT",
                   help="relative change (percent) below which a metric "
                        "delta is reported as noise (default 1.0)")
    _add_runs_arg(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("config",
                       help="validate or show declarative scenario configs")
    csub = p.add_subparsers(dest="config_cmd", required=True)
    pv = csub.add_parser("validate",
                         help="resolve, schema-check and dry-compile "
                              "scenario files or config directories")
    pv.add_argument("paths", nargs="+", metavar="PATH",
                    help="scenario YAML files and/or config directories")
    pv.set_defaults(func=cmd_config)
    ps = csub.add_parser("show",
                         help="print one scenario fully resolved "
                              "(post-inheritance) plus its sweep variants")
    ps.add_argument("path", metavar="YAML", help="scenario file")
    ps.set_defaults(func=cmd_config)

    p = sub.add_parser("list", help="show available names")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
