"""The CLI's option surface, pinned option by option.

Every subcommand's options are listed here with their option strings,
``dest``, type or choices, metavar, action and default.  A knob flag's
``dest`` is its scenario schema path and it has no parser default, so
an omitted flag leaves its key unset.  Option order and help prose are
free to change; anything listed here is not.  Custom argument parsers
are pinned by what they accept and reject.
"""

import argparse

import pytest

from repro.cli import build_parser

SCALES = ("tiny", "small", "medium")
POLICIES = ("disabled", "always", "oversub", "adaptive")
EVICTIONS = ("2mb", "64kb")
PREFETCHERS = ("tree", "none", "sequential", "random")
PROCESSES = ("poisson", "bursty")
SCHEDULERS = ("round_robin", "drr")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
           "table1", "all")


def opt(dest, type=None, *, choices=None, metavar=None, default=None,
        nargs=None, required=None):
    """A store action.  ``required=None`` stands for argparse's own
    default: optional for a flag, required for a positional."""
    return ("store", dest, type, choices, metavar, default, nargs, required)


def flag(dest, default=False):
    """A ``store_true`` switch."""
    return ("store_true", dest, None, None, None, default, 0, False)


SURFACE = {
    "run": {
        "--archive": flag("archive"),
        "--config": opt("config", metavar="YAML"),
        "--debug-invariants": flag("debug_invariants"),
        "--events": opt("events", metavar="PATH"),
        "--evict": opt("memory.eviction", choices=EVICTIONS),
        "--fault-burst-mult":
            opt("faults.burst_multiplier", "float", metavar="X"),
        "--fault-burst-off": opt("faults.burst_off", "float", metavar="PROB"),
        "--fault-burst-on": opt("faults.burst_on", "float", metavar="PROB"),
        "--fault-rate": opt("faults.transfer_rate", "float", metavar="PROB"),
        "--fault-retries": opt("faults.max_retries", "int", metavar="N"),
        "--flush-events": opt("flush_events", "int", metavar="N"),
        "--histogram": flag("histogram"),
        "--metrics": opt("metrics", metavar="PATH"),
        "--migration-fault-rate":
            opt("faults.migration_rate", "float", metavar="PROB"),
        "--oversub": opt("oversubscription", "float", metavar="FACTOR"),
        "--penalty": opt("policy.migration_penalty", "int", metavar="P"),
        "--policy": opt("policy.variant", choices=POLICIES),
        "--prefetch-degree": opt("memory.prefetch_degree", "int", metavar="N"),
        "--prefetcher": opt("memory.prefetcher", choices=PREFETCHERS),
        "--profile": flag("profile"),
        "--prom": opt("prom", metavar="PATH"),
        "--runs": opt("runs", metavar="DIR"),
        "--scale": opt("scale", choices=SCALES),
        "--seed": opt("seed", "int"),
        "--timeline": opt("timeline", metavar="PATH"),
        "--ts": opt("policy.static_threshold", "int", metavar="N"),
        "workload": opt("workload", "parser", nargs="?", required=False),
    },
    "compare": {
        "--debug-invariants": flag("debug_invariants"),
        "--evict": opt("memory.eviction", choices=EVICTIONS),
        "--fault-burst-mult":
            opt("faults.burst_multiplier", "float", metavar="X"),
        "--fault-burst-off": opt("faults.burst_off", "float", metavar="PROB"),
        "--fault-burst-on": opt("faults.burst_on", "float", metavar="PROB"),
        "--fault-rate": opt("faults.transfer_rate", "float", metavar="PROB"),
        "--fault-retries": opt("faults.max_retries", "int", metavar="N"),
        "--migration-fault-rate":
            opt("faults.migration_rate", "float", metavar="PROB"),
        "--oversub": opt("oversubscription", "float", metavar="FACTOR"),
        "--penalty": opt("policy.migration_penalty", "int", metavar="P"),
        "--policy": opt("policy.variant", choices=POLICIES),
        "--prefetch-degree": opt("memory.prefetch_degree", "int", metavar="N"),
        "--prefetcher": opt("memory.prefetcher", choices=PREFETCHERS),
        "--scale": opt("scale", choices=SCALES),
        "--seed": opt("seed", "int"),
        "--ts": opt("policy.static_threshold", "int", metavar="N"),
        "workload": opt("workload", "parser"),
    },
    "figure": {
        "--archive": flag("archive"),
        "--cell-timeout": opt("cell_timeout", "float", metavar="SECONDS"),
        "--checkpoint": opt("checkpoint", metavar="PATH"),
        "--csv": flag("csv"),
        "--jobs": opt("jobs", "parser", default=1),
        "--metrics": opt("metrics", metavar="PATH"),
        "--out": opt("out"),
        "--resume": flag("resume"),
        "--retries": opt("retries", "int", default=2),
        "--runs": opt("runs", metavar="DIR"),
        "--scale": opt("scale", choices=SCALES, default="small"),
        "--trace-cache": opt("trace_cache", metavar="DIR"),
        "id": opt("id", choices=FIGURES),
    },
    "sweep": {
        "--archive": flag("archive"),
        "--cell-timeout": opt("cell_timeout", "float", metavar="SECONDS"),
        "--checkpoint": opt("checkpoint", metavar="PATH"),
        "--config": opt("config", metavar="YAML"),
        "--config-dir": opt("config_dir", metavar="DIR"),
        "--fault-rates": opt("fault_rates"),
        "--jobs": opt("jobs", "parser", default=1),
        "--levels": opt("levels", default="0.8,1.0,1.1,1.25,1.4,1.5"),
        "--metrics": opt("metrics", metavar="PATH"),
        "--policies": opt("policies", default="disabled,adaptive"),
        "--resume": flag("resume"),
        "--retries": opt("retries", "int", default=2),
        "--runs": opt("runs", metavar="DIR"),
        "--scale": opt("scale", choices=SCALES, default="small"),
        "--seed": opt("seed", "int", default=0),
        "--trace-cache": opt("trace_cache", metavar="DIR"),
        "workload": opt("workload", "parser", nargs="?", required=False),
    },
    "trace record": {
        "--scale": opt("scale", choices=SCALES, default="small"),
        "--seed": opt("seed", "int", default=0),
        "-o/--output": opt("output", required=True),
        "workload": opt("workload", "parser"),
    },
    "trace replay": {
        "--archive": flag("archive"),
        "--debug-invariants": flag("debug_invariants"),
        "--events": opt("events", metavar="PATH"),
        "--evict": opt("memory.eviction", choices=EVICTIONS),
        "--fault-burst-mult":
            opt("faults.burst_multiplier", "float", metavar="X"),
        "--fault-burst-off": opt("faults.burst_off", "float", metavar="PROB"),
        "--fault-burst-on": opt("faults.burst_on", "float", metavar="PROB"),
        "--fault-rate": opt("faults.transfer_rate", "float", metavar="PROB"),
        "--fault-retries": opt("faults.max_retries", "int", metavar="N"),
        "--flush-events": opt("flush_events", "int", metavar="N"),
        "--metrics": opt("metrics", metavar="PATH"),
        "--migration-fault-rate":
            opt("faults.migration_rate", "float", metavar="PROB"),
        "--oversub": opt("oversubscription", "float", metavar="FACTOR"),
        "--penalty": opt("policy.migration_penalty", "int", metavar="P"),
        "--policy": opt("policy.variant", choices=POLICIES),
        "--prefetch-degree": opt("memory.prefetch_degree", "int", metavar="N"),
        "--prefetcher": opt("memory.prefetcher", choices=PREFETCHERS),
        "--profile": flag("profile"),
        "--prom": opt("prom", metavar="PATH"),
        "--runs": opt("runs", metavar="DIR"),
        "--seed": opt("seed", "int"),
        "--timeline": opt("timeline", metavar="PATH"),
        "--ts": opt("policy.static_threshold", "int", metavar="N"),
        "-i/--input": opt("input", required=True),
    },
    "serve": {
        "--admit-watermark":
            opt("serve.admit_watermark", "float", metavar="X"),
        "--archive": flag("archive"),
        "--arrival-rate": opt("serve.arrival_rate", "float", metavar="PER_S"),
        "--burst-factor": opt("serve.burst_factor", "float", metavar="X"),
        "--burst-len": opt("serve.burst_len_ms", "float", metavar="MS"),
        "--calm-len": opt("serve.calm_len_ms", "float", metavar="MS"),
        "--capacity-mb": opt("serve.capacity_mb", "int", metavar="MB"),
        "--config": opt("config", metavar="YAML"),
        "--debug-invariants": flag("debug_invariants"),
        "--duration": opt("serve.duration_ms", "float", metavar="MS"),
        "--events": opt("events", metavar="PATH"),
        "--evict": opt("memory.eviction", choices=EVICTIONS),
        "--fault-burst-mult":
            opt("faults.burst_multiplier", "float", metavar="X"),
        "--fault-burst-off": opt("faults.burst_off", "float", metavar="PROB"),
        "--fault-burst-on": opt("faults.burst_on", "float", metavar="PROB"),
        "--fault-rate": opt("faults.transfer_rate", "float", metavar="PROB"),
        "--fault-retries": opt("faults.max_retries", "int", metavar="N"),
        "--flush-events": opt("flush_events", "int", metavar="N"),
        "--json": flag("json"),
        "--live-admission": flag("serve.live_admission", default=None),
        "--live-thrash-threshold":
            opt("serve.live_thrash_threshold", "float", metavar="RATE"),
        "--metrics": opt("metrics", metavar="PATH"),
        "--migration-fault-rate":
            opt("faults.migration_rate", "float", metavar="PROB"),
        "--mix": opt("serve.workload_mix", "parser", metavar="W1,W2,..."),
        "--penalty": opt("policy.migration_penalty", "int", metavar="P"),
        "--policy": opt("policy.variant", choices=POLICIES),
        "--prefetch-degree": opt("memory.prefetch_degree", "int", metavar="N"),
        "--prefetcher": opt("memory.prefetcher", choices=PREFETCHERS),
        "--process": opt("serve.process", choices=PROCESSES),
        "--profile": flag("profile"),
        "--prom": opt("prom", metavar="PATH"),
        "--quantum": opt("serve.quantum", "int", metavar="N"),
        "--queue-depth": opt("serve.queue_depth", "int", metavar="N"),
        "--runs": opt("runs", metavar="DIR"),
        "--scale": opt("scale", choices=SCALES),
        "--scheduler": opt("serve.scheduler", choices=SCHEDULERS),
        "--seed": opt("seed", "int"),
        "--shed-watermark": opt("serve.shed_watermark", "float", metavar="X"),
        "--slo-config": opt("slo_config", metavar="YAML"),
        "--tenants": opt("serve.tenants", "int", metavar="N"),
        "--throttle-decay":
            opt("serve.throttle_decay", "float", metavar="FACTOR"),
        "--throttle-rounds": opt("serve.throttle_rounds", "int", metavar="N"),
        "--throttle-watermark":
            opt("serve.throttle_watermark", "float", metavar="X"),
        "--timeline": opt("timeline", metavar="PATH"),
        "--ts": opt("policy.static_threshold", "int", metavar="N"),
        "--weights": opt("serve.weights", "parser", metavar="W1,W2,..."),
        "--window-ms": opt("serve.window_ms", "float", metavar="MS"),
    },
    "top": {
        "--follow": flag("follow"),
        "--frames": opt("frames", "int", metavar="N"),
        "--interval": opt("interval", "float", metavar="SECONDS", default=0.5),
        "events": opt("events"),
    },
    "inspect": {
        "--top": opt("top", "int", metavar="N", default=10),
        "events": opt("events"),
    },
    "runs": {
        "--runs": opt("runs", metavar="DIR"),
    },
    "diff": {
        "--json": flag("json"),
        "--runs": opt("runs", metavar="DIR"),
        "--tolerance": opt("tolerance", "float", metavar="PCT", default=1.0),
        "--top": opt("top", "int", metavar="N", default=10),
        "run_a": opt("run_a"),
        "run_b": opt("run_b"),
    },
    "config validate": {
        "paths": opt("paths", metavar="PATH", nargs="+"),
    },
    "config show": {
        "path": opt("path", metavar="YAML"),
    },
    "list": {
    },
}


def _commands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def _describe(action):
    kind = {argparse._StoreAction: "store",
            argparse._StoreTrueAction: "store_true"}[type(action)]
    if action.type is None or action.type in (int, float, str):
        type_ = getattr(action.type, "__name__", None)
    else:
        type_ = "parser"  # pinned by behaviour below
    choices = None if action.choices is None else tuple(action.choices)
    required = action.required
    if kind == "store" and required is (not action.option_strings):
        required = None  # argparse's own default for the option kind
    return (kind, action.dest, type_, choices, action.metavar,
            action.default, action.nargs, required)


def _surface():
    return {name: {"/".join(a.option_strings) or a.dest: _describe(a)
                   for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, parser in _commands(build_parser())}


def test_every_command_is_listed():
    assert list(_surface()) == list(SURFACE)


@pytest.mark.parametrize("command", list(SURFACE))
def test_command_options(command):
    assert _surface()[command] == SURFACE[command]


def _parse(argv):
    return build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["run", "nosuch"],
    ["compare", "nosuch"],
    ["sweep", "nosuch"],
    ["trace", "record", "nosuch", "-o", "t.npz"],
    ["serve", "--mix", "ra,nope"],
    ["serve", "--weights", "a"],
    ["sweep", "ra", "--jobs", "-1"],
    ["figure", "fig1", "--jobs", "x"],
])
def test_custom_parsers_reject_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _parse(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_custom_parsers_accept():
    assert _parse(["run", "pagerank"]).workload == "pagerank"
    assert _parse(["run"]).workload is None
    args = _parse(["serve", "--mix", "ra, bfs,", "--weights", "2,1.5"])
    assert getattr(args, "serve.workload_mix") == ["ra", "bfs"]
    assert getattr(args, "serve.weights") == [2.0, 1.5]
    assert _parse(["sweep", "ra", "--jobs", "0"]).jobs == 0
