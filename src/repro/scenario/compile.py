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

Each builder reads its keys through a schema-path -> field table
derived from :data:`~repro.scenario.schema.SCHEMA`: a simulation knob
sets the :class:`GridCell` field its entry names, and ``serve.*``,
``slo.*`` and ``multigpu.*`` keys set the field of their leaf name
(the top-level ``scale`` and ``seed`` keys apply to serving too).  A
builder passes only the keys a scenario sets, so an omitted key takes
the dataclass default; :func:`compiled_default` reads that default
back as the key's documented one.  The CLI's knob flags compile
through the same builders: a flag is its schema path, so a scenario
and the equivalent flags build equal cells and configs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import MISSING, dataclass, fields

from ..analysis.parallel import GridCell, cell_config
from ..config import ServeConfig, SimulationConfig
from ..obs.live.slo import SloConfig
from .loader import deep_merge
from .schema import SCHEMA, ScenarioError, flatten, unflatten

__all__ = ["expand", "build_cell", "build_serve_config",
           "build_sim_config", "build_multigpu_spec", "build_slo_config",
           "compile_check", "compiled_default", "MultiGpuSpec", "Variant"]


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


def _coercion(key, default):
    """How a scenario value of ``key`` becomes its field's value."""
    if isinstance(default, enum.Enum):
        return type(default)
    if key.item is not None:
        item = float if float in key.item else str
        return lambda values: tuple(item(v) for v in values)
    return float if float in key.type else key.type[0]


def _table(cls, names: dict) -> dict:
    """Schema path -> (field, coercion, default) of ``cls`` for each
    ``{path: field name}`` in ``names``."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {path: (name, _coercion(SCHEMA[path], defaults[name]),
                   defaults[name])
            for path, name in names.items()}


def _by_leaf(cls, *sections: str) -> dict:
    """:func:`_table` of the keys of ``sections`` (``""``: top level)
    whose leaf names a field of ``cls``."""
    names = {f.name for f in fields(cls)}
    return _table(cls, {path: leaf for path in SCHEMA
                        for section, _, leaf in [path.rpartition(".")]
                        if section in sections and leaf in names})


#: Every simulation knob, onto the GridCell field its entry names.
_CELL = _table(GridCell, {path: key.cell for path, key in SCHEMA.items()
                          if key.cell is not None})
#: ``serve.*`` keys plus the top-level ``scale`` and ``seed``.
_SERVE = _by_leaf(ServeConfig, "serve", "")
_SLO = _by_leaf(SloConfig, "slo")
_MULTIGPU = _by_leaf(MultiGpuSpec, "multigpu")


def _fields(flat: dict, table: dict) -> dict:
    """Constructor kwargs for the keys ``flat`` sets, through ``table``.

    An unset key (or an explicit ``null``) is left out, so it takes the
    field's dataclass default.
    """
    return {name: coerce(flat[path])
            for path, (name, coerce, _) in table.items()
            if flat.get(path) is not None}


def compiled_default(path: str, mode: str = "run"):
    """The value a scenario of ``mode`` compiles ``path`` to when it
    omits the key, spelled as a scenario value.

    It is the default of the dataclass field the key sets, so a
    ``serve`` scenario's ``scale`` is ``ServeConfig``'s and any other
    mode's is ``GridCell``'s.  ``None`` when the key sets no field or
    the field's default leaves it unset (the key's help says what
    omitting it means).
    """
    cell_first = (_SERVE, _CELL) if mode == "serve" else (_CELL, _SERVE)
    for table in (*cell_first, _SLO, _MULTIGPU):
        if path in table:
            value = table[path][2]
            if isinstance(value, enum.Enum):
                return value.value
            if isinstance(value, tuple):
                return list(value)
            return None if value is MISSING else value
    return None


def build_cell(variant: dict) -> GridCell:
    """Map one concrete scenario onto a :class:`GridCell`.

    Omitted keys take the :class:`GridCell` defaults, so a scenario
    that omits a key builds a cell *equal* (and therefore
    checkpoint-identical) to a hand-built one that omits the field.
    """
    flat = flatten(variant)
    if not flat.get("workload"):
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return GridCell(**_fields(flat, _CELL))


def build_sim_config(variant: dict) -> SimulationConfig:
    """Construct the :class:`SimulationConfig` a variant describes.

    The variant's cell knobs go through
    :func:`~repro.analysis.parallel.cell_config`, the mapping every
    grid cell runs under, so the config -- and any simulation run from
    it -- is bit-identical to the equivalent cell or flag invocation.
    """
    return cell_config(_fields(flatten(variant), _CELL))


def build_slo_config(variant: dict):
    """Map a variant's ``slo.*`` keys onto an
    :class:`~repro.obs.live.slo.SloConfig`, or ``None`` when the
    scenario states no objective (tuning keys alone do not enable the
    engine).
    """
    config = SloConfig(**_fields(flatten(variant), _SLO))
    if not config.enabled:
        return None
    config.validate()
    return config


def build_serve_config(variant: dict) -> ServeConfig:
    """Map one concrete scenario onto a :class:`ServeConfig`.

    Omitted keys take the :class:`ServeConfig` dataclass defaults (note
    serving defaults to ``scale: tiny``).
    """
    return ServeConfig(**_fields(flatten(variant), _SERVE)).validate()


def build_multigpu_spec(variant: dict) -> MultiGpuSpec:
    """Map one concrete scenario onto a :class:`MultiGpuSpec`."""
    cell = build_cell(variant)
    return MultiGpuSpec(
        config=build_sim_config(variant), workload=cell.workload,
        scale=cell.scale, oversubscription=cell.oversubscription,
        **_fields(flatten(variant), _MULTIGPU))


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
