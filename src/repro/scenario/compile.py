"""Compile resolved scenarios into runnable experiment specs.

:func:`expand` turns one scenario into its sweep variants (the cross
product of the ``sweep:`` axes, in declaration order with the first
axis outermost -- the same nesting :func:`repro.analysis.sweeps.
oversubscription_sweep` uses, so a config-driven sweep enumerates
cells in exactly the order the flag-driven one does).  The ``build_*``
functions then map a single variant onto the existing execution
surfaces:

* :func:`build_cell` -> :class:`~repro.analysis.parallel.GridCell`
  (modes ``run`` and ``sweep``), with field values matching the CLI
  defaults exactly so a config-built cell is *equal* to the flag-built
  one -- the bit-identity contract the property tests pin;
* :func:`build_serve_config` -> :class:`~repro.config.ServeConfig`
  (mode ``serve``);
* :func:`build_multigpu_spec` -> :class:`MultiGpuSpec` (mode
  ``multigpu``), including the Section VIII throttle knob.

Omitted keys never materialize: the builders only override a default
when the scenario actually sets the key, so the constructed configs
are bit-identical to hand-constructed ones for unset knobs (including
``backend``, which keeps honouring ``REPRO_BACKEND``).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from ..analysis.parallel import GridCell
from ..config import (EvictionGranularity, MigrationPolicy, PrefetcherKind,
                      ServeConfig, SimulationConfig)
from .schema import ScenarioError, flatten

__all__ = ["expand", "build_cell", "build_serve_config",
           "build_sim_config", "build_multigpu_spec", "build_slo_config",
           "compile_check", "MultiGpuSpec", "Variant"]


@dataclass(frozen=True)
class Variant:
    """One point of a scenario's sweep: a fully concrete scenario."""

    #: Scenario name plus the swept coordinates, e.g.
    #: ``fig1[oversubscription=1.25]`` (just the name when unswept).
    label: str
    #: The resolved scenario with this variant's values substituted and
    #: the ``sweep:`` key removed -- exactly what gets archived.
    data: dict
    #: The swept ``{axis: value}`` coordinates (empty when unswept).
    coords: dict


def _set_path(data: dict, path: str, value) -> None:
    """Deep-set ``a.b.c`` into nested dicts, creating sections."""
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _deep_copy(data):
    if isinstance(data, dict):
        return {k: _deep_copy(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_deep_copy(v) for v in data]
    return data


def expand(scenario: dict) -> list[Variant]:
    """All sweep variants of a resolved scenario, in deterministic order.

    Axes expand in declaration order with the first axis outermost;
    without a ``sweep:`` key the scenario is its own single variant.
    """
    name = scenario.get("name", "scenario")
    axes = scenario.get("sweep") or {}
    base = {k: _deep_copy(v) for k, v in scenario.items() if k != "sweep"}
    if not axes:
        return [Variant(label=name, data=base, coords={})]
    paths = list(axes)
    variants = []
    for values in itertools.product(*(axes[p] for p in paths)):
        coords = dict(zip(paths, values))
        data = _deep_copy(base)
        for path, value in coords.items():
            _set_path(data, path, value)
        coord_str = ",".join(f"{p}={v}" for p, v in coords.items())
        variants.append(Variant(label=f"{name}[{coord_str}]", data=data,
                                coords=coords))
    return variants


def _get(flat: dict, path: str, default):
    """Flat lookup treating an explicit ``null`` as unset."""
    value = flat.get(path)
    return default if value is None else value


def build_cell(variant: dict) -> GridCell:
    """Map one concrete scenario onto a :class:`GridCell`.

    Every default below is the :class:`GridCell` dataclass default, so
    a scenario that omits a key builds a cell *equal* (and therefore
    checkpoint-identical) to one built from CLI flags that omitted the
    matching flag.
    """
    flat = flatten(variant)
    workload = flat.get("workload")
    if not workload:
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return GridCell(
        workload=workload,
        policy=MigrationPolicy(_get(flat, "policy.variant", "adaptive")),
        oversubscription=float(_get(flat, "oversubscription", 1.25)),
        scale=_get(flat, "scale", "small"),
        ts=int(_get(flat, "policy.static_threshold", 8)),
        p=int(_get(flat, "policy.migration_penalty", 8)),
        seed=int(_get(flat, "seed", 0)),
        transfer_fault_rate=float(_get(flat, "faults.transfer_rate", 0.0)),
        migration_fault_rate=float(_get(flat, "faults.migration_rate", 0.0)),
        fault_retries=int(_get(flat, "faults.max_retries", 3)),
        fault_burst_on=float(_get(flat, "faults.burst_on", 0.0)),
        fault_burst_off=float(_get(flat, "faults.burst_off", 0.25)),
        fault_burst_mult=float(_get(flat, "faults.burst_multiplier", 8.0)),
        evict=_get(flat, "memory.eviction", "2mb"),
        prefetcher=_get(flat, "memory.prefetcher", "tree"),
        prefetch_degree=int(_get(flat, "memory.prefetch_degree", 4)),
        threshold_variant=_get(flat, "policy.threshold_variant",
                               "multiplicative"),
        historic_counters=bool(_get(flat, "policy.historic_counters", True)),
        backend=flat.get("backend"),
    )


#: ``serve.*`` schema path -> (ServeConfig field, coercion).
_SERVE_FIELDS = {
    "serve.arrival_rate": ("arrival_rate", float),
    "serve.tenants": ("tenants", int),
    "serve.duration_ms": ("duration_ms", float),
    "serve.process": ("process", str),
    "serve.burst_factor": ("burst_factor", float),
    "serve.burst_len_ms": ("burst_len_ms", float),
    "serve.calm_len_ms": ("calm_len_ms", float),
    "serve.workload_mix": ("workload_mix", tuple),
    "serve.capacity_mb": ("capacity_mb", int),
    "serve.admit_watermark": ("admit_watermark", float),
    "serve.shed_watermark": ("shed_watermark", float),
    "serve.throttle_watermark": ("throttle_watermark", float),
    "serve.queue_depth": ("queue_depth", int),
    "serve.quantum": ("quantum", int),
    "serve.throttle_rounds": ("throttle_rounds", int),
    "serve.live_admission": ("live_admission", bool),
    "serve.live_thrash_threshold": ("live_thrash_threshold", float),
    "serve.window_ms": ("window_ms", float),
    "serve.scheduler": ("scheduler", str),
    "serve.weights": ("weights", lambda v: tuple(float(w) for w in v)),
    "serve.throttle_decay": ("throttle_decay", float),
}

#: ``slo.*`` schema path -> (SloConfig field, coercion).
_SLO_FIELDS = {
    "slo.p99_latency_us": ("p99_latency_us", float),
    "slo.latency_attainment": ("latency_attainment", float),
    "slo.max_shed_rate": ("max_shed_rate", float),
    "slo.min_throughput": ("min_throughput", float),
    "slo.fast_windows": ("fast_windows", int),
    "slo.slow_windows": ("slow_windows", int),
    "slo.burn_threshold": ("burn_threshold", float),
}


def build_slo_config(variant: dict):
    """Map a variant's ``slo.*`` keys onto an
    :class:`~repro.obs.live.slo.SloConfig`, or ``None`` when the
    scenario states no objective (tuning keys alone do not enable the
    engine).
    """
    from ..obs.live.slo import SloConfig

    flat = flatten(variant)
    kwargs: dict = {}
    for path, (name, coerce) in _SLO_FIELDS.items():
        value = flat.get(path)
        if value is not None:
            kwargs[name] = coerce(value)
    config = SloConfig(**kwargs)
    if not config.enabled:
        return None
    config.validate()
    return config


def build_serve_config(variant: dict) -> ServeConfig:
    """Map one concrete scenario onto a :class:`ServeConfig`.

    Only keys the scenario sets are passed, so omitted ones take the
    :class:`ServeConfig` dataclass defaults (note serving defaults to
    ``scale: tiny``; the top-level ``scale``/``seed`` keys apply here
    too).
    """
    flat = flatten(variant)
    kwargs: dict = {}
    for path, (name, coerce) in _SERVE_FIELDS.items():
        value = flat.get(path)
        if value is not None:
            kwargs[name] = coerce(value)
    if flat.get("scale") is not None:
        kwargs["scale"] = flat["scale"]
    if flat.get("seed") is not None:
        kwargs["seed"] = int(flat["seed"])
    return ServeConfig(**kwargs).validate()


def build_sim_config(variant: dict) -> SimulationConfig:
    """Construct the :class:`SimulationConfig` a variant describes.

    Applies the same mutation sequence as
    :func:`repro.analysis.experiments.run_single` (and only for keys
    actually set), so the config -- and any simulation run from it --
    is bit-identical to the equivalent flag-driven invocation.
    """
    flat = flatten(variant)
    cfg = SimulationConfig(seed=int(_get(flat, "seed", 0)))
    if flat.get("backend") is not None:
        cfg = cfg.replace(backend=flat["backend"])
    cfg = cfg.with_policy(
        MigrationPolicy(_get(flat, "policy.variant", "adaptive")),
        static_threshold=int(_get(flat, "policy.static_threshold", 8)),
        migration_penalty=int(_get(flat, "policy.migration_penalty", 8)))
    variant_fn = _get(flat, "policy.threshold_variant", "multiplicative")
    historic = bool(_get(flat, "policy.historic_counters", True))
    if variant_fn != "multiplicative" or not historic:
        cfg = cfg.replace(policy=dataclasses.replace(
            cfg.policy, threshold_variant=variant_fn,
            historic_counters=historic))
    if _get(flat, "memory.eviction", "2mb") == "64kb":
        cfg = cfg.with_eviction_granularity(EvictionGranularity.BLOCK_64KB)
    prefetcher = _get(flat, "memory.prefetcher", "tree")
    degree = int(_get(flat, "memory.prefetch_degree", 4))
    if prefetcher != "tree" or degree != 4:
        cfg = cfg.with_prefetcher(PrefetcherKind(prefetcher), degree=degree)
    transfer = float(_get(flat, "faults.transfer_rate", 0.0))
    migration = float(_get(flat, "faults.migration_rate", 0.0))
    if transfer or migration:
        fault_kwargs = dict(
            transfer_fault_rate=transfer, migration_fault_rate=migration,
            max_retries=int(_get(flat, "faults.max_retries", 3)))
        burst_on = float(_get(flat, "faults.burst_on", 0.0))
        if burst_on:
            fault_kwargs.update(
                burst_on_prob=burst_on,
                burst_off_prob=float(_get(flat, "faults.burst_off", 0.25)),
                burst_multiplier=float(
                    _get(flat, "faults.burst_multiplier", 8.0)))
        cfg = cfg.with_faults(**fault_kwargs)
    return cfg.validate()


@dataclass(frozen=True)
class MultiGpuSpec:
    """Everything a ``mode: multigpu`` variant needs to execute."""

    config: SimulationConfig
    workload: str
    scale: str
    oversubscription: float
    gpus: int
    partition: str
    throttle: float


def build_multigpu_spec(variant: dict) -> MultiGpuSpec:
    """Map one concrete scenario onto a :class:`MultiGpuSpec`."""
    flat = flatten(variant)
    workload = flat.get("workload")
    if not workload:
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return MultiGpuSpec(
        config=build_sim_config(variant),
        workload=workload,
        scale=_get(flat, "scale", "small"),
        oversubscription=float(_get(flat, "oversubscription", 1.25)),
        gpus=int(_get(flat, "multigpu.gpus", 2)),
        partition=_get(flat, "multigpu.partition", "chunk"),
        throttle=float(_get(flat, "multigpu.throttle", 1.0)),
    )


def compile_check(scenario: dict) -> list[str]:
    """Compile every variant to its mode-specific spec without running.

    The dry-run behind ``repro config validate``: catches problems
    schema validation alone cannot see (a workload only unset after
    expansion, cross-field config invariants like watermark ordering or
    fault-rate bounds).  Returns the variant labels in expansion order;
    raises :class:`ScenarioError` on the first variant that fails.
    """
    mode = scenario.get("mode", "run")
    labels = []
    for variant in expand(scenario):
        try:
            if mode in ("run", "sweep"):
                build_cell(variant.data)
                build_sim_config(variant.data)
            elif mode == "serve":
                build_serve_config(variant.data)
                build_sim_config(variant.data)
                build_slo_config(variant.data)
            else:
                spec = build_multigpu_spec(variant.data)
                if not 0.0 < spec.throttle <= 1.0:
                    raise ValueError(
                        f"multigpu.throttle must be in (0, 1], got "
                        f"{spec.throttle}")
                if spec.gpus < 1:
                    raise ValueError("multigpu.gpus must be >= 1")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(
                f"{variant.label}: {exc}") from exc
        labels.append(variant.label)
    return labels
