#!/usr/bin/env python
"""Digest the outputs of a fixed set of tiny ``repro run`` invocations.

    PYTHONPATH=src python tools/driver_golden.py           # check
    PYTHONPATH=src python tools/driver_golden.py --write   # regenerate

Each case is the argv of one ``repro run`` at tiny scale and 150%
oversubscription: ra, bfs, sssp and nw under the ``disabled`` and
``adaptive`` policies at both eviction granularities, plus one run with
the sequential prefetcher and one with injected migration faults.  A
case's digests are the SHA-256 of its :class:`~repro.sim.results.RunResult`
(the checkpoint encoding less the config it was given, as sorted-key
JSON) and of its full ``--events`` JSONL stream, less the kernel
backend named in the ``run_meta`` header: the backend is a performance
hint whose outputs are bit-identical by contract, so one set of digests
checks both backends.  They pin one driver run end to end: any change
to what the driver does, or to the order of the events it emits,
changes a digest.

Without ``--write`` the script recomputes every case, prints one line
per mismatch and exits 1 if there is any; with it, it rewrites
``tests/data/driver_golden/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "tests" / "data" / "driver_golden" / "digests.json")

_BASE = ("--scale", "tiny", "--oversub", "1.5")

#: ``repro run`` argv of every golden case.
CASES: tuple[tuple[str, ...], ...] = tuple(
    (wl, *_BASE, "--policy", policy, "--evict", evict)
    for wl in ("ra", "bfs", "sssp", "nw")
    for policy in ("disabled", "adaptive")
    for evict in ("2mb", "64kb")
) + (
    ("bfs", *_BASE, "--policy", "adaptive", "--prefetcher", "sequential"),
    ("ra", *_BASE, "--policy", "adaptive", "--migration-fault-rate", "0.1"),
)


def case_name(argv: tuple[str, ...]) -> str:
    """The key a case's digests are stored under."""
    return " ".join(argv)


def digest_run(argv: tuple[str, ...]) -> dict[str, str]:
    """Run ``repro run *argv --events <tmp>``; digest result and events."""
    from repro import cli
    from repro.analysis.checkpoint import encode_result
    from repro.scenario import build_cell
    from repro.sim.simulator import Simulator

    with tempfile.TemporaryDirectory(prefix="driver-golden-") as tmp:
        events = pathlib.Path(tmp) / "events.jsonl"
        args = cli.build_parser().parse_args(
            ["run", *argv, "--events", str(events)])
        scenario = cli._scenario(args, "run")
        cell = build_cell(scenario)
        cfg = cli._sim_config(args, scenario)
        obs = cli._make_obs(args)
        result = Simulator(cfg).run(
            cli._make_workload(cell.workload, cell.scale),
            oversubscription=cell.oversubscription, obs=obs)
        obs.close()
        lines = events.read_text().splitlines(keepends=True)
    encoded = encode_result(result)
    encoded.pop("config")
    events_digest = hashlib.sha256()
    for line in lines:
        if line.startswith('{"event":"run_meta"'):
            row = json.loads(line)
            row.pop("backend", None)
            line = json.dumps(row, separators=(",", ":")) + "\n"
        events_digest.update(line.encode())
    return {
        "result": hashlib.sha256(
            json.dumps(encoded, sort_keys=True).encode()).hexdigest(),
        "events": events_digest.hexdigest(),
    }


def compute() -> dict[str, dict[str, str]]:
    """Digests of every case, keyed by :func:`case_name`."""
    return {case_name(argv): digest_run(argv) for argv in CASES}


def load() -> dict[str, dict[str, str]]:
    """The committed digests."""
    return json.loads(GOLDEN.read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    digests = compute()
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {len(digests)} cases to {GOLDEN}")
        return 0
    golden = load()
    bad = [f"{name}: {part} digest differs"
           for name, got in digests.items()
           for part in ("result", "events")
           if golden.get(name, {}).get(part) != got[part]]
    bad += [f"{name}: no longer a case" for name in golden
            if name not in digests]
    print("\n".join(bad) if bad else f"{len(digests)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
