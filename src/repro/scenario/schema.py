"""The scenario schema: every YAML key, typed and validated.

A *scenario* is a declarative experiment description: one YAML mapping
whose keys cover every knob the simulator exposes -- workload, scale,
policy, memory management, fault injection, kernel backend, tenancy
(``serve:``) and multi-GPU topology (``multigpu:``) -- plus the two
structural keys ``inherits:`` (resolved by :mod:`repro.scenario.loader`)
and ``sweep:`` (expanded by :mod:`repro.scenario.compile`).

The schema is a flat registry of :class:`Key` descriptors keyed by
dotted path (``policy.static_threshold``).  Everything downstream is
derived from this one table:

* :func:`validate` walks a resolved scenario and reports *every*
  problem at once (unknown keys with suggestions, type mismatches,
  out-of-choice values, unsweepable axes) with field-qualified paths;
* ``tools/check_docs.py`` validates the fenced YAML examples in the
  documentation against it, and checks that the key-reference table in
  ``docs/scenarios.md`` covers every path listed here;
* defaults are documentation of the *effective* value an omitted key
  takes (they mirror the :mod:`repro.config` dataclass defaults; the
  compiler never materializes them, so an omitted key really does
  inherit the config default, including ``REPRO_BACKEND``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.parallel import EVICTION_GRANULARITIES
from ..config import (KNOWN_ARRIVAL_PROCESSES, KNOWN_BACKENDS,
                      KNOWN_SCHEDULERS, KNOWN_THRESHOLD_VARIANTS)
from ..multigpu.cluster import KNOWN_PARTITIONS
from ..workloads import SCALES, workload_names

#: Execution modes a scenario can declare.
KNOWN_MODES: tuple[str, ...] = ("run", "sweep", "serve", "multigpu")

#: Eviction granularities by CLI-style name.
KNOWN_EVICT: tuple[str, ...] = tuple(EVICTION_GRANULARITIES)

#: Prefetcher kinds (mirrors :class:`repro.config.PrefetcherKind`).
KNOWN_PREFETCHERS: tuple[str, ...] = ("tree", "none", "sequential", "random")

#: Migration policies by value (mirrors :class:`MigrationPolicy`).
KNOWN_POLICIES: tuple[str, ...] = ("disabled", "always", "oversub",
                                   "adaptive")



class ScenarioError(ValueError):
    """A scenario failed to load, resolve, or validate.

    The message always names the offending file (or doc block) and
    lists every problem found, one per line.
    """


@dataclass(frozen=True)
class Key:
    """One schema entry: a dotted path plus its contract."""

    path: str
    #: Accepted python type(s) of a value (int also satisfies float).
    type: tuple
    description: str
    #: Closed vocabulary, or ``None`` for open values.
    choices: tuple | None = None
    #: Whether ``sweep:`` may use this path as an axis.
    sweepable: bool = True
    #: Effective value when omitted (documentation; never materialized).
    default: object = None


def _k(path, type_, description, choices=None, sweepable=True,
       default=None) -> Key:
    type_ = type_ if isinstance(type_, tuple) else (type_,)
    return Key(path, type_, description, choices, sweepable, default)


#: The full schema, one entry per legal dotted path.
SCHEMA: dict[str, Key] = {k.path: k for k in (
    # -- structural ------------------------------------------------------
    _k("name", str, "scenario name (defaults to the file stem)",
       sweepable=False, default="<file stem>"),
    _k("description", str, "free-form note shown by `repro config`",
       sweepable=False, default=""),
    _k("inherits", (str, list), "base config(s) to deep-merge under this "
       "file (resolved relative to the file, then the config root)",
       sweepable=False),
    _k("mode", str, "what running the scenario means",
       choices=KNOWN_MODES, sweepable=False, default="run"),
    _k("sweep", dict, "sweep axes: {dotted.key: [values, ...]}; expands "
       "to the cross product in declaration order (first axis outermost)",
       sweepable=False),
    # -- the single-run surface -----------------------------------------
    _k("workload", str, "workload name (see `repro list`)",
       choices=workload_names(extended=True)),
    _k("scale", str, "workload scale preset", choices=tuple(SCALES),
       default="small"),
    _k("oversubscription", (int, float), "working set as a fraction of "
       "device capacity (1.25 = 125% oversubscription)", default=1.25),
    _k("seed", int, "root RNG seed", default=0),
    _k("backend", str, "hot-loop kernel backend",
       choices=KNOWN_BACKENDS, default="$REPRO_BACKEND or python"),
    # -- policy ----------------------------------------------------------
    _k("policy.variant", str, "migration policy scheme",
       choices=KNOWN_POLICIES, default="adaptive"),
    _k("policy.static_threshold", int, "static access-counter threshold "
       "ts (Table I)", default=8),
    _k("policy.migration_penalty", int, "multiplicative migration "
       "penalty p (Equation 1)", default=8),
    _k("policy.threshold_variant", str, "Equation-1 growth function",
       choices=KNOWN_THRESHOLD_VARIANTS, default="multiplicative"),
    _k("policy.historic_counters", bool, "judge the adaptive threshold "
       "against historic counters (False = Volta ablation)",
       default=True),
    # -- memory management ----------------------------------------------
    _k("memory.eviction", str, "eviction granularity",
       choices=KNOWN_EVICT, default="2mb"),
    _k("memory.prefetcher", str, "hardware prefetcher strategy",
       choices=KNOWN_PREFETCHERS, default="tree"),
    _k("memory.prefetch_degree", int, "blocks pulled per fault by the "
       "sequential/random prefetchers", default=4),
    # -- fault injection -------------------------------------------------
    _k("faults.transfer_rate", (int, float), "per-migration PCIe "
       "transfer-fault probability", default=0.0),
    _k("faults.migration_rate", (int, float), "per-migration device "
       "allocation-fault probability", default=0.0),
    _k("faults.max_retries", int, "retries before degrading a faulted "
       "migration to remote access", default=3),
    _k("faults.burst_on", (int, float), "calm->storm transition "
       "probability of the correlated fault chain (0 disables)",
       default=0.0),
    _k("faults.burst_off", (int, float), "storm->calm transition "
       "probability", default=0.25),
    _k("faults.burst_multiplier", (int, float), "fault-rate multiplier "
       "while a storm is active", default=8.0),
    # -- multi-tenant serving (mode: serve) ------------------------------
    _k("serve.arrival_rate", (int, float), "tenant arrivals per second "
       "of simulated time", default=400.0),
    _k("serve.tenants", int, "tenant arrivals to generate", default=12),
    _k("serve.duration_ms", (int, float), "arrival window in simulated "
       "milliseconds (omit: cut by tenants alone)", default=None),
    _k("serve.process", str, "arrival process",
       choices=KNOWN_ARRIVAL_PROCESSES, default="poisson"),
    _k("serve.burst_factor", (int, float), "arrival-rate multiplier "
       "inside a burst (bursty process)", default=8.0),
    _k("serve.burst_len_ms", (int, float), "mean burst sojourn, "
       "simulated ms", default=2.0),
    _k("serve.calm_len_ms", (int, float), "mean calm sojourn, "
       "simulated ms", default=10.0),
    _k("serve.workload_mix", list, "workloads tenants are drawn from",
       sweepable=False, default=["ra", "sssp", "bfs", "fdtd"]),
    _k("serve.capacity_mb", int, "shared device capacity in MB",
       default=32),
    _k("serve.admit_watermark", (int, float), "oversubscription up to "
       "which arrivals are admitted immediately", default=1.5),
    _k("serve.shed_watermark", (int, float), "oversubscription past "
       "which arrivals are shed", default=2.5),
    _k("serve.throttle_watermark", (int, float), "oversubscription at "
       "which the heaviest-thrashing tenant is throttled", default=1.2),
    _k("serve.queue_depth", int, "bounded admission queue depth",
       default=8),
    _k("serve.quantum", int, "waves per runnable tenant per scheduler "
       "round", default=4),
    _k("serve.throttle_rounds", int, "rounds a throttled tenant sits "
       "out", default=8),
    _k("serve.live_admission", bool, "drive the throttle from live "
       "windowed interference telemetry instead of the static "
       "watermark alone", default=False),
    _k("serve.live_thrash_threshold", (int, float), "EWMA thrash "
       "migrations per wave at which live admission throttles",
       default=0.25),
    _k("serve.window_ms", (int, float), "live-telemetry tumbling-window "
       "width, simulated ms", default=5.0),
    _k("serve.scheduler", str, "wave scheduler interleaving live "
       "tenants", choices=KNOWN_SCHEDULERS, default="round_robin"),
    _k("serve.weights", list, "per-tenant fair-share weights under drr "
       "(tenant i gets weights[i mod len]; empty = equal shares)",
       default=[]),
    _k("serve.throttle_decay", (int, float), "drr weight multiplier "
       "while a tenant is throttled (1.0 = throttle ignored)",
       default=0.25),
    # -- serving SLOs (mode: serve; enables the SLO engine) --------------
    _k("slo.p99_latency_us", (int, float), "per-tenant wave-latency "
       "target in simulated us (omit: no latency objective)",
       default=None),
    _k("slo.latency_attainment", (int, float), "required fraction of "
       "waves under the latency target", default=0.99),
    _k("slo.max_shed_rate", (int, float), "service-level ceiling on the "
       "fraction of arrivals shed (omit: no shed objective)",
       default=None),
    _k("slo.min_throughput", (int, float), "per-tenant accesses-per-"
       "second floor (omit: no throughput objective)", default=None),
    _k("slo.fast_windows", int, "closed windows merged into the fast "
       "burn-rate horizon", default=3),
    _k("slo.slow_windows", int, "closed windows merged into the slow "
       "burn-rate horizon", default=12),
    _k("slo.burn_threshold", (int, float), "error-budget burn rate both "
       "horizons must exceed to flag a violation", default=2.0),
    # -- multi-GPU topology (mode: multigpu) -----------------------------
    _k("multigpu.gpus", int, "devices in the collaborative cluster",
       default=2),
    _k("multigpu.partition", str, "wave-stream partition strategy",
       choices=KNOWN_PARTITIONS, default="chunk"),
    _k("multigpu.throttle", (int, float), "fraction of each device's "
       "memory the driver may use (Section VIII throttle knob)",
       default=1.0),
)}

#: Section names (key prefixes) the schema knows about.
SECTIONS: tuple[str, ...] = tuple(sorted(
    {p.split(".")[0] for p in SCHEMA if "." in p}))


def flatten(data: dict, prefix: str = "") -> dict:
    """``{"policy": {"variant": ...}}`` -> ``{"policy.variant": ...}``.

    Only known section prefixes recurse; other dict values (e.g. the
    ``sweep:`` mapping) stay whole so they validate as their own type.
    """
    flat: dict = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and path in SECTIONS:
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def unflatten(flat: dict) -> dict:
    """Inverse of :func:`flatten`: ``{"policy.variant": ...}`` ->
    ``{"policy": {"variant": ...}}``."""
    nested: dict = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return nested


def _type_ok(value, types: tuple) -> bool:
    # bool is an int subclass; only accept it where bool is declared.
    if isinstance(value, bool):
        return bool in types
    if float in types and isinstance(value, int):
        return True
    return isinstance(value, tuple(t for t in types if t is not bool))


def _type_names(types: tuple) -> str:
    return "/".join(t.__name__ for t in types)


def _suggest(path: str) -> str:
    """Closest schema paths to an unknown one (same leaf, prefix, typo)."""
    leaf = path.rsplit(".", 1)[-1]
    hits = [p for p in SCHEMA
            if p.rsplit(".", 1)[-1] == leaf or p.startswith(path)]
    if not hits:
        import difflib
        hits = difflib.get_close_matches(path, SCHEMA, n=3, cutoff=0.8)
    return f" (did you mean {' or '.join(sorted(hits)[:3])}?)" if hits else ""


def _check_value(path: str, value, errors: list[str]) -> None:
    key = SCHEMA[path]
    if value is None:
        return  # explicit null = "unset", always legal
    if not _type_ok(value, key.type):
        errors.append(
            f"{path}: expected {_type_names(key.type)}, got "
            f"{type(value).__name__} ({value!r})")
        return
    if key.choices is not None and value not in key.choices:
        errors.append(f"{path}: unknown value {value!r}; choose from "
                      f"{', '.join(map(str, key.choices))}")
    if path == "serve.workload_mix":
        known = workload_names(extended=True)
        for item in value:
            if item not in known:
                errors.append(f"{path}: unknown workload {item!r}; "
                              f"available: {', '.join(known)}")
    if path == "serve.weights":
        for item in value:
            if not isinstance(item, (int, float)) or isinstance(item, bool) \
                    or item <= 0:
                errors.append(f"{path}: weights must be positive numbers, "
                              f"got {item!r}")


def _check_sweep(sweep, errors: list[str]) -> None:
    if not isinstance(sweep, dict):
        errors.append(f"sweep: expected a mapping of axis -> value list, "
                      f"got {type(sweep).__name__}")
        return
    for axis, values in sweep.items():
        key = SCHEMA.get(axis)
        if key is None:
            errors.append(f"sweep.{axis}: unknown axis{_suggest(axis)}")
            continue
        if not key.sweepable:
            errors.append(f"sweep.{axis}: this key cannot be swept")
            continue
        if not isinstance(values, list) or not values:
            errors.append(f"sweep.{axis}: expected a non-empty list of "
                          f"values, got {values!r}")
            continue
        for v in values:
            _check_value(axis, v, errors)


def check(data: dict) -> list[str]:
    """Every schema violation in ``data`` (resolved scenario mapping)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"scenario must be a YAML mapping, got "
                f"{type(data).__name__}"]
    for path, value in flatten(data).items():
        if path == "sweep":
            _check_sweep(value, errors)
            continue
        if path == "inherits":
            continue  # consumed by the loader before validation
        if path not in SCHEMA:
            errors.append(f"{path}: unknown key{_suggest(path)}")
            continue
        _check_value(path, value, errors)
    errors.extend(_check_mode(data))
    return errors


def _check_mode(data: dict) -> list[str]:
    """Cross-key requirements per execution mode."""
    errors: list[str] = []
    mode = data.get("mode", "run")
    if mode not in KNOWN_MODES:
        return errors  # already reported as a value error
    axes = data.get("sweep") if isinstance(data.get("sweep"), dict) else {}
    if mode in ("run", "sweep", "multigpu"):
        if "workload" not in data and "workload" not in axes:
            errors.append(f"workload: required for mode {mode!r} (set it "
                          "or sweep it)")
    if mode == "run" and axes:
        errors.append("sweep: mode 'run' is a single simulation; use "
                      "mode: sweep to expand axes")
    return errors


def validate(data: dict, source: str = "<scenario>") -> dict:
    """Validate a resolved scenario; returns it, raises on any problem."""
    errors = check(data)
    if errors:
        raise ScenarioError(
            f"invalid scenario {source}:\n  - " + "\n  - ".join(errors))
    return data


def key_reference() -> list[Key]:
    """Schema entries in documentation order (structural keys first)."""
    return list(SCHEMA.values())
