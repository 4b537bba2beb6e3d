"""Knob flags and YAML keys compile to the same configs.

Every knob flag of ``run``, ``compare``, ``trace replay`` and ``serve``
sets one scenario schema path.  For a random subset of a command's knob
flags, with values drawn from each key's schema declaration (its type
and choices), the argv route (:func:`repro.cli._scenario`) and the
equivalent YAML mapping must build an equal :class:`GridCell`, an equal
``encode_config`` of the :class:`SimulationConfig` and an equal
``ServeConfig.as_dict()`` -- or fail with the same message.  Nothing is
simulated.
"""

import argparse
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.checkpoint import encode_config
from repro.cli import _scenario, build_parser
from repro.scenario import (SCHEMA, build_cell, build_serve_config,
                            build_sim_config, check)
from repro.scenario.schema import unflatten

yaml = pytest.importorskip("yaml")

#: Command -> (argv prefix, scenario mode).
COMMANDS = {
    "run": (["run", "ra"], "run"),
    "compare": (["compare", "ra"], "run"),
    "trace replay": (["trace", "replay", "-i", "t.npz"], "run"),
    "serve": (["serve"], "serve"),
}

#: Value ranges the configs accept, where a declared type is wider.
RANGES = {
    "oversubscription": (0.5, 2.0),
    "faults.transfer_rate": (0.0, 0.1),
    "faults.migration_rate": (0.0, 0.1),
    "faults.burst_on": (0.0, 1.0),
    "faults.burst_off": (0.01, 1.0),
    "faults.burst_multiplier": (1.0, 8.0),
    "serve.burst_factor": (1.0, 8.0),
    "serve.throttle_watermark": (0.5, 1.2),
    "serve.admit_watermark": (1.2, 2.0),
    "serve.shed_watermark": (2.0, 3.0),
}


#: Parsing leaves a parser unchanged, so every example shares one.
PARSER = build_parser()


def _subparser(command):
    parser = PARSER
    for name in command.split():
        (sub,) = (a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def knob_flags(command):
    """Schema path -> option string of every knob flag of a command."""
    return {a.dest: a.option_strings[0]
            for a in _subparser(command)._actions
            if a.option_strings and a.dest in SCHEMA}


def test_knob_flags_cover_flagged_keys():
    paths = set().union(*(knob_flags(c) for c in COMMANDS))
    assert len(paths) == 32
    assert all(path in SCHEMA for path in paths)


def _number(path, types):
    lo, hi = RANGES.get(path, (0.05, 64.0) if float in types else (1, 64))
    ints = st.integers(math.ceil(lo), math.floor(hi))
    if float not in types:
        return ints
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.one_of(floats, ints) if math.ceil(lo) <= hi else floats


def values(path):
    """Strategy over legal values of one schema key."""
    key = SCHEMA[path]
    if path == "serve.workload_mix":
        return st.lists(st.sampled_from(SCHEMA["workload"].choices),
                        min_size=1, max_size=4)
    if path == "serve.weights":
        return st.lists(_number(path, (int, float)), max_size=4)
    if bool in key.type:
        return st.just(True)  # a switch can only turn a key on
    if key.choices is not None:
        return st.sampled_from(key.choices)
    return _number(path, key.type)


def _arg(value):
    if isinstance(value, list):
        return ",".join(_arg(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def invocations(draw, command):
    """A command's argv and the ``{path: value}`` knobs it sets."""
    prefix, _ = COMMANDS[command]
    flags = knob_flags(command)
    paths = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    knobs = {path: draw(values(path)) for path in paths}
    argv = list(prefix)
    for path, value in knobs.items():
        argv.append(flags[path])
        if value is not True:
            argv.append(_arg(value))
    return argv, knobs


def compiled(scenario, mode):
    """What a scenario builds, each target an object or an error."""
    targets = {"sim": lambda: encode_config(build_sim_config(scenario))}
    if mode == "serve":
        targets["serve"] = lambda: build_serve_config(scenario).as_dict()
    else:
        targets["cell"] = lambda: build_cell(scenario)
    out = {}
    for name, build in targets.items():
        try:
            out[name] = build()
        except ValueError as exc:
            out[name] = f"error: {exc}"
    return out


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_argv_and_yaml_build_the_same_configs(command, data):
    argv, knobs = data.draw(invocations(command))
    _, mode = COMMANDS[command]
    from_argv = _scenario(PARSER.parse_args(argv),
                          command.split()[0], mode=mode)
    mapping = {"mode": mode, **unflatten(knobs)}
    if mode != "serve":
        mapping["workload"] = "ra"
        from_argv = {**from_argv, "workload": "ra"}
    from_yaml = yaml.safe_load(yaml.safe_dump(mapping))
    assert check(from_yaml) == []
    assert compiled(from_argv, mode) == compiled(from_yaml, mode)
