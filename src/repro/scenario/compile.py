"""Compile resolved scenarios into runnable experiment specs.

:func:`expand` turns one scenario into its sweep variants (the cross
product of the ``sweep:`` axes, in declaration order with the first
axis outermost -- the same nesting :func:`repro.analysis.sweeps.
oversubscription_sweep` uses, so a config-driven sweep enumerates
cells in exactly the order the flag-driven one does).  The ``build_*``
functions then map a single variant onto the existing execution
surfaces:

* :func:`build_cell` -> :class:`~repro.analysis.parallel.GridCell`
  (modes ``run`` and ``sweep``);
* :func:`build_sim_config` -> :class:`~repro.config.SimulationConfig`
  (every mode), through :func:`~repro.analysis.parallel.cell_config`,
  the one mapping from knobs to a config;
* :func:`build_serve_config` -> :class:`~repro.config.ServeConfig`
  and :func:`build_slo_config` -> its SLO (mode ``serve``);
* :func:`build_multigpu_spec` -> :class:`MultiGpuSpec` (mode
  ``multigpu``), including the Section VIII throttle knob.

Each builder reads its keys through one schema-path -> field table and
passes only the keys a scenario sets, so an omitted key takes the
dataclass default (``backend`` keeps honouring ``REPRO_BACKEND``).
The CLI's simulation flags compile through the same builders: a flag
is its schema path, so a scenario and the equivalent flags build equal
cells and configs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..analysis.parallel import GridCell, cell_config
from ..config import MigrationPolicy, ServeConfig, SimulationConfig
from .loader import deep_merge
from .schema import ScenarioError, flatten, unflatten

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
        data = _deep_copy(deep_merge(base, unflatten(coords)))
        coord_str = ",".join(f"{p}={v}" for p, v in coords.items())
        variants.append(Variant(label=f"{name}[{coord_str}]", data=data,
                                coords=coords))
    return variants


def _fields(flat: dict, table: dict) -> dict:
    """Constructor kwargs for the keys ``flat`` sets, through ``table``.

    ``table`` maps a schema path to ``(field, coercion)``; an unset key
    (or an explicit ``null``) is left out, so it takes the field's
    dataclass default.
    """
    return {name: coerce(flat[path])
            for path, (name, coerce) in table.items()
            if flat.get(path) is not None}


#: Schema path -> (GridCell field, coercion) for every cell knob.
_CELL_FIELDS = {
    "policy.variant": ("policy", MigrationPolicy),
    "oversubscription": ("oversubscription", float),
    "scale": ("scale", str),
    "policy.static_threshold": ("ts", int),
    "policy.migration_penalty": ("p", int),
    "seed": ("seed", int),
    "faults.transfer_rate": ("transfer_fault_rate", float),
    "faults.migration_rate": ("migration_fault_rate", float),
    "faults.max_retries": ("fault_retries", int),
    "faults.burst_on": ("fault_burst_on", float),
    "faults.burst_off": ("fault_burst_off", float),
    "faults.burst_multiplier": ("fault_burst_mult", float),
    "memory.eviction": ("evict", str),
    "memory.prefetcher": ("prefetcher", str),
    "memory.prefetch_degree": ("prefetch_degree", int),
    "policy.threshold_variant": ("threshold_variant", str),
    "policy.historic_counters": ("historic_counters", bool),
    "backend": ("backend", str),
}


def build_cell(variant: dict) -> GridCell:
    """Map one concrete scenario onto a :class:`GridCell`.

    Omitted keys take the :class:`GridCell` defaults, so a scenario
    that omits a key builds a cell *equal* (and therefore
    checkpoint-identical) to a hand-built one that omits the field.
    """
    flat = flatten(variant)
    workload = flat.get("workload")
    if not workload:
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return GridCell(workload=workload, **_fields(flat, _CELL_FIELDS))


def build_sim_config(variant: dict) -> SimulationConfig:
    """Construct the :class:`SimulationConfig` a variant describes.

    The variant's cell knobs go through
    :func:`~repro.analysis.parallel.cell_config`, the mapping every
    grid cell runs under, so the config -- and any simulation run from
    it -- is bit-identical to the equivalent cell or flag invocation.
    """
    return cell_config(_fields(flatten(variant), _CELL_FIELDS))


#: ``serve.*`` schema path -> (ServeConfig field, coercion); the
#: top-level ``scale``/``seed`` keys apply to serving too.
_SERVE_FIELDS = {
    "serve.arrival_rate": ("arrival_rate", float),
    "serve.tenants": ("tenants", int),
    "serve.duration_ms": ("duration_ms", float),
    "serve.process": ("process", str),
    "serve.burst_factor": ("burst_factor", float),
    "serve.burst_len_ms": ("burst_len_ms", float),
    "serve.calm_len_ms": ("calm_len_ms", float),
    "serve.workload_mix": ("workload_mix", tuple),
    "scale": ("scale", str),
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
    "seed": ("seed", int),
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

    config = SloConfig(**_fields(flatten(variant), _SLO_FIELDS))
    if not config.enabled:
        return None
    config.validate()
    return config


def build_serve_config(variant: dict) -> ServeConfig:
    """Map one concrete scenario onto a :class:`ServeConfig`.

    Omitted keys take the :class:`ServeConfig` dataclass defaults (note
    serving defaults to ``scale: tiny``).
    """
    return ServeConfig(**_fields(flatten(variant), _SERVE_FIELDS)).validate()


@dataclass(frozen=True)
class MultiGpuSpec:
    """Everything a ``mode: multigpu`` variant needs to execute."""

    config: SimulationConfig
    workload: str
    scale: str
    oversubscription: float
    gpus: int = 2
    partition: str = "chunk"
    throttle: float = 1.0


#: ``multigpu.*`` schema path -> (MultiGpuSpec field, coercion).
_MULTIGPU_FIELDS = {
    "multigpu.gpus": ("gpus", int),
    "multigpu.partition": ("partition", str),
    "multigpu.throttle": ("throttle", float),
}


def build_multigpu_spec(variant: dict) -> MultiGpuSpec:
    """Map one concrete scenario onto a :class:`MultiGpuSpec`."""
    cell = build_cell(variant)
    return MultiGpuSpec(
        config=build_sim_config(variant), workload=cell.workload,
        scale=cell.scale, oversubscription=cell.oversubscription,
        **_fields(flatten(variant), _MULTIGPU_FIELDS))


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
