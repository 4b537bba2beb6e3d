"""Execute resolved scenarios on the existing execution surfaces.

The runner is a thin orchestration layer: :func:`run_scenarios` takes
fully resolved scenario mappings (from :mod:`repro.scenario.loader`),
expands their sweeps (:mod:`repro.scenario.compile`), and dispatches
each variant by mode:

* ``run``/``sweep`` variants compile to :class:`GridCell`\\ s.  All
  grid cells from *every* scenario in the batch are pooled into ONE
  :func:`~repro.analysis.parallel.run_grid` call -- they share the
  worker pool, the retry machinery, the checkpoint journal, and the
  trace cache -- then regrouped per scenario for reporting.  Cell
  order inside a scenario follows variant declaration order, so a
  config-driven sweep is bit-identical (same cells, same order) to the
  flag-driven equivalent.
* ``serve`` and ``multigpu`` variants run serially in-process (each is
  internally heavyweight and stateful; there are rarely many).

When archiving is requested, every variant's manifest embeds the fully
resolved scenario (post-inheritance, post-expansion) under
``config["scenario"]`` and carries ``manifest.scenario = <name>``, so
``repro diff`` explains any two archived variants by their scenario
key deltas and ``repro runs`` shows where a run came from.  The
runner archives scenario cells itself (the grid runner's own archiver
is bypassed) precisely so the manifests carry that provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.parallel import GridCell, GridOptions, run_grid
from ..analysis.tables import format_table
from .compile import (Variant, build_cell, build_multigpu_spec,
                      build_serve_config, build_sim_config, expand)
from .schema import ScenarioError

__all__ = ["run_scenarios", "ScenarioOutcome", "VariantOutcome"]


@dataclass(frozen=True)
class VariantOutcome:
    """One executed variant: its label, spec, and raw result."""

    label: str
    #: The resolved post-expansion scenario (what got archived).
    data: dict
    #: ``RunResult`` | ``ServeResult`` | ``MultiGpuResult``.
    result: object
    #: Archived run id, or ``None`` when archiving was off.
    run_id: str | None = None


@dataclass
class ScenarioOutcome:
    """Every variant outcome of one scenario, in expansion order."""

    name: str
    mode: str
    variants: list[VariantOutcome] = field(default_factory=list)

    def render(self) -> str:
        """A compact per-variant comparison table."""
        title = f"== scenario {self.name} ({self.mode}) =="
        if self.mode in ("run", "sweep"):
            rows = [[v.label, f"{v.result.runtime_seconds * 1e3:.2f}",
                     v.result.fault_count, v.result.events.n_remote,
                     v.result.events.thrash_migrations,
                     v.run_id or "-"]
                    for v in self.variants]
            return format_table(
                ["variant", "runtime (ms)", "faults", "remote", "thrash",
                 "run id"], rows, title=title)
        if self.mode == "serve":
            rows = [[v.label, v.result.arrivals, v.result.completed,
                     v.result.shed, f"{v.result.shed_rate:.1%}",
                     f"{v.result.peak_live_oversubscription:.2f}x",
                     "-" if v.result.p99_wave_latency_us is None
                     else f"{v.result.p99_wave_latency_us:.1f}",
                     v.run_id or "-"]
                    for v in self.variants]
            return format_table(
                ["variant", "arrivals", "done", "shed", "shed rate",
                 "peak oversub", "p99 us", "run id"], rows, title=title)
        rows = [[v.label, v.result.num_gpus, v.result.partition,
                 f"{v.result.makespan_cycles:,.0f}",
                 f"{v.result.load_imbalance:.2f}",
                 v.result.total_thrash, v.run_id or "-"]
                for v in self.variants]
        return format_table(
            ["variant", "gpus", "partition", "makespan (cycles)",
             "imbalance", "thrash", "run id"], rows, title=title)


class _ScenarioArchiver:
    """Archives scenario variants with resolved-config manifests."""

    def __init__(self, store, sweep_id: str | None = None) -> None:
        from ..obs.store import git_info, host_info
        self.store = store
        self.sweep_id = sweep_id
        self._git = git_info()
        self._host = host_info()

    def archive_cell(self, name: str, variant: Variant, cell: GridCell,
                     result) -> str:
        from ..analysis.checkpoint import encode_cell
        from ..obs.store import RunManifest
        # Encoded like the grid archiver's cells: no trace path in the
        # identity.
        manifest = RunManifest.create(
            kind="grid-cell", workload=cell.workload,
            policy=cell.policy.value, scale=cell.scale, seed=cell.seed,
            oversubscription=cell.oversubscription,
            config={"cell": encode_cell(cell), "scenario": variant.data},
            git=self._git, host=self._host, sweep_id=self.sweep_id,
            scenario=name)
        return self.store.archive(manifest, result)

    def archive_serve(self, name: str, variant: Variant, serve_cfg,
                      sim_cfg, result) -> str:
        from ..analysis.checkpoint import encode_config
        from ..obs.store import RunManifest
        manifest = RunManifest.create(
            kind="serve", workload="+".join(serve_cfg.workload_mix),
            policy=sim_cfg.policy.policy.value, scale=serve_cfg.scale,
            seed=serve_cfg.seed, oversubscription=None,
            config={"serve": serve_cfg.as_dict(),
                    "sim": encode_config(sim_cfg),
                    "scenario": variant.data},
            git=self._git, host=self._host, sweep_id=self.sweep_id,
            scenario=name)
        writer = self.store.open_run(manifest)
        return writer.commit_dict(result.as_dict())

    def archive_multigpu(self, name: str, variant: Variant, spec,
                         result) -> str:
        import dataclasses as _dc
        from ..analysis.checkpoint import encode_config
        from ..obs.store import RunManifest
        manifest = RunManifest.create(
            kind="multigpu", workload=spec.workload,
            policy=spec.config.policy.policy.value, scale=spec.scale,
            seed=spec.config.seed, oversubscription=spec.oversubscription,
            config={"sim": encode_config(spec.config),
                    "multigpu": {"gpus": spec.gpus,
                                 "partition": spec.partition,
                                 "throttle": spec.throttle},
                    "scenario": variant.data},
            git=self._git, host=self._host, sweep_id=self.sweep_id,
            scenario=name)
        writer = self.store.open_run(manifest)
        payload = _dc.asdict(result)
        payload["per_gpu_events"] = [_dc.asdict(e)
                                     for e in result.per_gpu_events]
        payload["per_gpu_timing"] = [_dc.asdict(t)
                                     for t in result.per_gpu_timing]
        return writer.commit_dict(payload)


def run_scenarios(scenarios: list[dict], jobs: int = 1,
                  options: GridOptions | None = None,
                  store=None) -> list[ScenarioOutcome]:
    """Execute resolved scenarios; returns outcomes in input order.

    ``options`` configures the pooled grid run (retries, checkpoint,
    trace cache); its ``archive`` store -- or the explicit ``store``
    argument -- turns on scenario-aware archiving for every mode, with
    the resolved config embedded in each manifest.  The grid runner's
    own per-cell archiver is bypassed so cells are not archived twice.
    """
    opts = options or GridOptions()
    if store is None and opts.archive is not None:
        store = opts.archive

    outcomes: list[ScenarioOutcome] = []
    grid_work: list[tuple[ScenarioOutcome, Variant, GridCell]] = []
    serial_work: list[tuple[ScenarioOutcome, Variant]] = []
    for scenario in scenarios:
        mode = scenario.get("mode", "run")
        outcome = ScenarioOutcome(name=scenario.get("name", "scenario"),
                                  mode=mode)
        outcomes.append(outcome)
        for variant in expand(scenario):
            if mode in ("run", "sweep"):
                grid_work.append((outcome, variant,
                                  build_cell(variant.data)))
            else:
                serial_work.append((outcome, variant))

    archiver = None
    if store is not None:
        from ..obs.store import derive_sweep_id
        cells = [cell for _, _, cell in grid_work]
        sweep_id = derive_sweep_id(cells) if cells else None
        archiver = _ScenarioArchiver(store, sweep_id)

    if grid_work:
        import dataclasses as _dc
        # Scenario manifests replace the grid runner's plain per-cell
        # archiving (which knows nothing about resolved configs).
        grid_opts = _dc.replace(opts, archive=None, sweep_id=None)
        results = run_grid([cell for _, _, cell in grid_work],
                           max_workers=jobs, options=grid_opts)
        for (outcome, variant, cell), result in zip(grid_work, results):
            run_id = None
            if archiver is not None:
                run_id = archiver.archive_cell(outcome.name, variant, cell,
                                               result)
            outcome.variants.append(VariantOutcome(
                label=variant.label, data=variant.data, result=result,
                run_id=run_id))

    for outcome, variant in serial_work:
        if outcome.mode == "serve":
            _run_serve(outcome, variant, archiver)
        elif outcome.mode == "multigpu":
            _run_multigpu(outcome, variant, archiver)
        else:  # pragma: no cover - validate() rejects unknown modes
            raise ScenarioError(f"unknown mode {outcome.mode!r}")
    return outcomes


def _run_serve(outcome: ScenarioOutcome, variant: Variant,
               archiver) -> None:
    from ..serve import ServeSession
    serve_cfg = build_serve_config(variant.data)
    sim_cfg = build_sim_config(variant.data)
    result = ServeSession(serve_cfg, sim_config=sim_cfg,
                          scenario=outcome.name).run()
    run_id = None
    if archiver is not None:
        run_id = archiver.archive_serve(outcome.name, variant, serve_cfg,
                                        sim_cfg, result)
    outcome.variants.append(VariantOutcome(
        label=variant.label, data=variant.data, result=result,
        run_id=run_id))


def _run_multigpu(outcome: ScenarioOutcome, variant: Variant,
                  archiver) -> None:
    from ..multigpu import MultiGpuSimulator
    from ..workloads import make_workload
    spec = build_multigpu_spec(variant.data)
    sim = MultiGpuSimulator(spec.config, num_gpus=spec.gpus,
                            throttle=spec.throttle,
                            partition=spec.partition)
    result = sim.run(make_workload(spec.workload, spec.scale),
                     oversubscription=spec.oversubscription)
    run_id = None
    if archiver is not None:
        run_id = archiver.archive_multigpu(outcome.name, variant, spec,
                                           result)
    outcome.variants.append(VariantOutcome(
        label=variant.label, data=variant.data, result=result,
        run_id=run_id))
