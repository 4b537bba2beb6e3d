"""The scenario schema: every knob, declared once.

A *scenario* is a declarative experiment description: one YAML mapping
whose keys cover every knob the simulator exposes -- workload, scale,
policy, memory management, fault injection, tenancy
(``serve:``), serving objectives (``slo:``) and multi-GPU topology
(``multigpu:``) -- plus the two structural keys ``inherits:`` (resolved
by :mod:`repro.scenario.loader`) and ``sweep:`` (expanded by
:mod:`repro.scenario.compile`).

:data:`SCHEMA` is a flat registry of :class:`Key` declarations keyed by
dotted path (``policy.static_threshold``), and each knob is declared
nowhere else.  An entry gives the key's type and choices, one help
text, its command-line flag and, for a simulation knob, the
:class:`~repro.analysis.parallel.GridCell` field it sets.  Everything
downstream is derived from this one table:

* :func:`validate` walks a resolved scenario and reports *every*
  problem at once (unknown keys with suggestions, type mismatches,
  out-of-choice values, unsweepable axes) with field-qualified paths,
  each type or value error followed by the key's help text;
* :mod:`repro.cli` generates the knob flags of ``run``, ``compare``,
  ``trace replay`` and ``serve`` from the entries that declare a flag
  (spelling, metavar, type or choices, and help), as well as the
  ``workload`` positional and the ``--scale`` and ``--seed`` options
  wherever other commands take them;
* :mod:`repro.scenario.compile` maps each key onto the field it sets --
  ``serve.*``, ``slo.*`` and ``multigpu.*`` keys by leaf name onto
  ``ServeConfig``, ``SloConfig`` and ``MultiGpuSpec`` -- and reads a
  key's default from that field (:func:`repro.scenario.compile.
  compiled_default`), so no default is written here;
* ``tools/check_docs.py`` renders the key table of ``docs/scenarios.md``
  from it and validates the documentation's fenced YAML examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.parallel import EVICTION_GRANULARITIES
from ..config import (KNOWN_ARRIVAL_PROCESSES, KNOWN_SCHEDULERS,
                      KNOWN_THRESHOLD_VARIANTS, MigrationPolicy,
                      PrefetcherKind)
from ..multigpu.cluster import KNOWN_PARTITIONS
from ..workloads import SCALES, workload_names

#: Execution modes a scenario can declare.
KNOWN_MODES: tuple[str, ...] = ("run", "sweep", "serve", "multigpu")


class ScenarioError(ValueError):
    """A scenario failed to load, resolve, or validate.

    The message always names the offending file (or doc block) and
    lists every problem found, one per line.
    """


@dataclass(frozen=True)
class Key:
    """One knob's declaration: a dotted path plus its contract."""

    path: str
    #: Accepted python type(s) of a value (int also satisfies float).
    type: tuple
    #: What the key means: its ``--help`` text, the context of its
    #: validation errors and the docs' "meaning" column.
    help: str
    #: Closed vocabulary (of each item, for a list key), or ``None``.
    choices: tuple | None = None
    #: Whether ``sweep:`` may use this path as an axis.
    sweepable: bool = True
    #: Command-line spelling (``--ts``), or ``None`` for a key no flag
    #: sets (``workload`` is the commands' positional argument).
    flag: str | None = None
    #: Placeholder for the flag's value in ``--help``.
    metavar: str | None = None
    #: The :class:`~repro.analysis.parallel.GridCell` field a
    #: simulation knob sets.
    cell: str | None = None
    #: Accepted type(s) of each item of a list value.
    item: tuple | None = None


def _k(path, type_, help, *, item=None, **contract) -> Key:
    def types(t):
        return t if isinstance(t, tuple) or t is None else (t,)
    return Key(path, types(type_), help, item=types(item), **contract)


_NUMBER = (int, float)

#: The full schema, one entry per legal dotted path.
SCHEMA: dict[str, Key] = {k.path: k for k in (
    # -- structural ------------------------------------------------------
    _k("name", str, "scenario name (defaults to the file stem)",
       sweepable=False),
    _k("description", str, "free-form note shown by `repro config`",
       sweepable=False),
    _k("inherits", (str, list), "base config(s) to deep-merge under this "
       "file (resolved relative to the file, then the config root)",
       sweepable=False),
    _k("mode", str, "what running the scenario means (omit: run)",
       choices=KNOWN_MODES, sweepable=False),
    _k("sweep", dict, "sweep axes `{dotted.key: [values, ...]}`; expands "
       "to the cross product in declaration order (first axis outermost)",
       sweepable=False),
    # -- the single-run surface -----------------------------------------
    _k("workload", str, "workload name (see `repro list`)",
       choices=workload_names(extended=True), cell="workload"),
    _k("scale", str, "workload scale preset", choices=SCALES,
       flag="--scale", cell="scale"),
    _k("oversubscription", _NUMBER, "working set as a fraction of device "
       "memory (1.25 = 125% oversubscription)", flag="--oversub",
       metavar="FACTOR", cell="oversubscription"),
    _k("seed", int, "root RNG seed", flag="--seed", cell="seed"),
    # -- policy ----------------------------------------------------------
    _k("policy.variant", str, "migration policy scheme",
       choices=tuple(p.value for p in MigrationPolicy), flag="--policy",
       cell="policy"),
    _k("policy.static_threshold", int, "static access-counter threshold "
       "ts (Table I)", flag="--ts", metavar="N", cell="ts"),
    _k("policy.migration_penalty", int, "multiplicative migration "
       "penalty p (Equation 1)", flag="--penalty", metavar="P", cell="p"),
    _k("policy.threshold_variant", str, "Equation-1 growth function",
       choices=KNOWN_THRESHOLD_VARIANTS, cell="threshold_variant"),
    _k("policy.historic_counters", bool, "judge the adaptive threshold "
       "against historic counters (false = Volta ablation)",
       cell="historic_counters"),
    # -- memory management ----------------------------------------------
    _k("memory.eviction", str, "eviction granularity",
       choices=tuple(EVICTION_GRANULARITIES), flag="--evict",
       cell="evict"),
    _k("memory.prefetcher", str, "hardware prefetcher strategy",
       choices=tuple(k.value for k in PrefetcherKind),
       flag="--prefetcher", cell="prefetcher"),
    _k("memory.prefetch_degree", int, "blocks pulled per fault by the "
       "sequential/random prefetchers", flag="--prefetch-degree",
       metavar="N", cell="prefetch_degree"),
    # -- fault injection -------------------------------------------------
    _k("faults.transfer_rate", _NUMBER, "probability of an injected "
       "transient PCIe transfer fault per migration attempt",
       flag="--fault-rate", metavar="PROB", cell="transfer_fault_rate"),
    _k("faults.migration_rate", _NUMBER, "probability of an injected "
       "device allocation fault per migration attempt",
       flag="--migration-fault-rate", metavar="PROB",
       cell="migration_fault_rate"),
    _k("faults.max_retries", int, "driver retries before degrading a "
       "faulted migration to remote zero-copy access",
       flag="--fault-retries", metavar="N", cell="fault_retries"),
    _k("faults.burst_on", _NUMBER, "per-migration probability of "
       "entering a correlated fault storm that multiplies both fault "
       "rates (0 = uncorrelated faults only)", flag="--fault-burst-on",
       metavar="PROB", cell="fault_burst_on"),
    _k("faults.burst_off", _NUMBER, "per-migration probability of a "
       "fault storm ending", flag="--fault-burst-off", metavar="PROB",
       cell="fault_burst_off"),
    _k("faults.burst_multiplier", _NUMBER, "fault-rate multiplier while "
       "a storm is active", flag="--fault-burst-mult", metavar="X",
       cell="fault_burst_mult"),
    # -- multi-tenant serving (mode: serve) ------------------------------
    _k("serve.arrival_rate", _NUMBER, "tenant arrivals per second of "
       "simulated time (open loop: arrivals never wait for service)",
       flag="--arrival-rate", metavar="PER_S"),
    _k("serve.tenants", int, "tenant arrivals to generate",
       flag="--tenants", metavar="N"),
    _k("serve.duration_ms", _NUMBER, "arrival window in simulated "
       "milliseconds (omit: cut by the tenant count alone)",
       flag="--duration", metavar="MS"),
    _k("serve.process", str, "arrival process (bursty = Markov-modulated "
       "Poisson with calm/burst sojourns)",
       choices=KNOWN_ARRIVAL_PROCESSES, flag="--process"),
    _k("serve.burst_factor", _NUMBER, "arrival-rate multiplier inside a "
       "burst (bursty process only)", flag="--burst-factor",
       metavar="X"),
    _k("serve.burst_len_ms", _NUMBER, "mean burst-state sojourn in "
       "simulated milliseconds", flag="--burst-len", metavar="MS"),
    _k("serve.calm_len_ms", _NUMBER, "mean calm-state sojourn in "
       "simulated milliseconds", flag="--calm-len", metavar="MS"),
    _k("serve.workload_mix", list, "workloads tenants are drawn from "
       "(seeded uniform choice; comma-separated as a flag)",
       item=str, choices=workload_names(extended=True), sweepable=False,
       flag="--mix", metavar="W1,W2,..."),
    _k("serve.capacity_mb", int, "shared device memory capacity in MB",
       flag="--capacity-mb", metavar="MB"),
    _k("serve.admit_watermark", _NUMBER, "projected live "
       "oversubscription up to which arrivals are admitted immediately",
       flag="--admit-watermark", metavar="X"),
    _k("serve.shed_watermark", _NUMBER, "projected oversubscription past "
       "which an arrival is shed outright", flag="--shed-watermark",
       metavar="X"),
    _k("serve.throttle_watermark", _NUMBER, "live oversubscription at "
       "which the heaviest-thrashing tenant is throttled",
       flag="--throttle-watermark", metavar="X"),
    _k("serve.queue_depth", int, "bounded admission queue depth (full = "
       "shed)", flag="--queue-depth", metavar="N"),
    _k("serve.quantum", int, "waves per runnable tenant per scheduler "
       "round", flag="--quantum", metavar="N"),
    _k("serve.throttle_rounds", int, "scheduler rounds a throttled "
       "tenant sits out", flag="--throttle-rounds", metavar="N"),
    _k("serve.live_admission", bool, "let live windowed telemetry drive "
       "the throttle: it also engages below the throttle watermark once "
       "EWMA thrash migrations per wave reach the live threshold, and "
       "suspends the tenant thrashing most in recent windows instead of "
       "the all-time heaviest (off = bit-identical to the telemetry-free "
       "path)", flag="--live-admission"),
    _k("serve.live_thrash_threshold", _NUMBER, "EWMA thrash migrations "
       "per wave at which live admission engages the throttle",
       flag="--live-thrash-threshold", metavar="RATE"),
    _k("serve.window_ms", _NUMBER, "live-telemetry tumbling-window width "
       "in simulated milliseconds", flag="--window-ms", metavar="MS"),
    _k("serve.scheduler", str, "wave scheduler: round_robin (quantum "
       "rotation) or drr (deficit-weighted fair queuing; throttling "
       "decays the weight instead of suspending the stream)",
       choices=KNOWN_SCHEDULERS, flag="--scheduler"),
    _k("serve.weights", list, "per-tenant drr fair-share weights; tenant "
       "i gets weights[i mod len] (empty = equal shares; comma-separated "
       "as a flag)", item=_NUMBER, flag="--weights",
       metavar="W1,W2,..."),
    _k("serve.throttle_decay", _NUMBER, "drr weight multiplier while a "
       "tenant is throttled (1.0 = throttle ignored)",
       flag="--throttle-decay", metavar="FACTOR"),
    # -- serving SLOs (mode: serve; enables the SLO engine) --------------
    _k("slo.p99_latency_us", _NUMBER, "per-tenant wave-latency target in "
       "simulated microseconds (omit: no latency objective)"),
    _k("slo.latency_attainment", _NUMBER, "required fraction of waves "
       "under the latency target"),
    _k("slo.max_shed_rate", _NUMBER, "service-level ceiling on the "
       "fraction of arrivals shed (omit: no shed objective)"),
    _k("slo.min_throughput", _NUMBER, "per-tenant accesses-per-second "
       "floor (omit: no throughput objective)"),
    _k("slo.fast_windows", int, "closed windows merged into the fast "
       "burn-rate horizon"),
    _k("slo.slow_windows", int, "closed windows merged into the slow "
       "burn-rate horizon"),
    _k("slo.burn_threshold", _NUMBER, "error-budget burn rate both "
       "horizons must exceed to flag a violation"),
    # -- multi-GPU topology (mode: multigpu) -----------------------------
    _k("multigpu.gpus", int, "devices in the collaborative cluster"),
    _k("multigpu.partition", str, "wave-stream partition strategy",
       choices=KNOWN_PARTITIONS),
    _k("multigpu.throttle", _NUMBER, "fraction of each device's memory "
       "the driver may use (Section VIII throttle knob)"),
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
        errors.append(f"{path}: expected {_type_names(key.type)}, got "
                      f"{type(value).__name__} ({value!r}) -- {key.help}")
        return
    for item in (value if key.item else [value]):
        if key.item and not _type_ok(item, key.item):
            errors.append(f"{path}: expected {_type_names(key.item)} "
                          f"items, got {type(item).__name__} ({item!r}) "
                          f"-- {key.help}")
        elif key.choices is not None and item not in key.choices:
            errors.append(f"{path}: unknown value {item!r}; choose from "
                          f"{', '.join(map(str, key.choices))} -- "
                          f"{key.help}")
        elif path == "serve.weights" and item <= 0:
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


#: Key sections only one mode reads, and that mode.
_SECTION_MODE = {"serve": "serve", "slo": "serve", "multigpu": "multigpu"}
#: Top-level keys a serve scenario never reads.
_UNSERVED = ("workload", "oversubscription")


def reads(mode: str, path: str) -> bool:
    """Whether a scenario of ``mode`` reads the key at ``path``."""
    section = path.rpartition(".")[0]
    if section in _SECTION_MODE:
        return _SECTION_MODE[section] == mode
    return not (mode == "serve" and path in _UNSERVED)


def _unread(mode: str, path: str, label: str) -> str:
    section = path.rpartition(".")[0]
    why = (f"only mode {_SECTION_MODE[section]!r} does"
           if section in _SECTION_MODE else
           "serve tenants draw their workloads from serve.workload_mix "
           "and share serve.capacity_mb")
    return f"{label}: mode {mode!r} never reads this key ({why})"


def _check_mode(data: dict) -> list[str]:
    """Cross-key requirements per execution mode."""
    errors: list[str] = []
    mode = data.get("mode", "run")
    if mode not in KNOWN_MODES:
        return errors  # already reported as a value error
    axes = data.get("sweep") if isinstance(data.get("sweep"), dict) else {}
    errors += [_unread(mode, path, path) for path in flatten(data)
               if path in SCHEMA and not reads(mode, path)]
    errors += [_unread(mode, axis, f"sweep.{axis}") for axis in axes
               if axis in SCHEMA and not reads(mode, axis)]
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


def show(value) -> str:
    """A value as a scenario file spells it (``true``, ``[ra, bfs]``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(show, value))}]"
    return str(value)
