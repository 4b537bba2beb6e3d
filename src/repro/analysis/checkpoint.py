"""JSONL checkpoint journal for experiment grids.

A grid sweep can run for hours; losing every completed cell to one
crashed worker (or a killed job) is the harness-side equivalent of the
thrashing the paper fights.  :class:`CheckpointJournal` makes completed
cells durable: :func:`~repro.analysis.parallel.run_grid` appends each
:class:`~repro.sim.results.RunResult` to an append-only JSONL file the
moment it finishes, and a resumed sweep replays those lines instead of
re-simulating.

Journal format
--------------

One JSON object per line::

    {"cell": {<GridCell fields, enums by value>}, "result": {<RunResult>}}

* The **key** of an entry is the canonical (sorted-keys) JSON encoding
  of its ``cell`` object -- a cell spec is a pure description of one
  simulation, so equal specs always produce equal results and may be
  shared across figures, sweeps, and sessions.
* Duplicate keys are legal; the last line wins.
* A line torn by a kill mid-write fails to parse and is skipped on
  load, so a crashed sweep always leaves a *consistent* journal: every
  parseable line is a fully-committed result.
* A journal written while ``collect_histogram`` and ``collect_trace``
  were cell fields still resumes: they never changed a result, and
  only cells with both false were journaled.

Round-trip fidelity: every serialized field (including floats, which
JSON round-trips exactly via ``repr``) decodes bit-identical, so a
resumed grid is indistinguishable from an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os

from ..config import (
    EvictionGranularity,
    FaultConfig,
    GpuConfig,
    InterconnectConfig,
    MemoryConfig,
    MigrationPolicy,
    PolicyConfig,
    PrefetcherKind,
    ReplacementPolicy,
    SimulationConfig,
    TimingConfig,
)
from ..gpu.timing import WaveTiming
from ..sim.results import RunResult
from ..uvm.driver import WaveOutcome


def _encode(obj):
    """Recursively encode dataclasses/enums into plain JSON values."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


def _known_fields(cls, data: dict) -> dict:
    """Constructor kwargs restricted to ``cls``'s declared fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in data.items() if k in names}


#: GridCell fields that are pure performance hints: they never change
#: results (property-tested bit-identical), so they are excluded from
#: the cell's checkpoint identity and a journal entry is shared across
#: replay sources.
_PERF_HINT_FIELDS = ("trace_path",)

#: Retired GridCell fields that never changed a result, dropped from a
#: journaled cell's key on load.
_RETIRED_CELL_FIELDS = ("collect_histogram", "collect_trace")


def encode_cell(cell) -> dict:
    """JSON-safe encoding of a grid cell (any dataclass spec).

    The performance hint ``trace_path`` is excluded: replay produces
    bit-identical results, so a cached journal entry or an archived run
    must be shared between live and replayed runs of the same cell, and
    between hosts with different cache directories.
    """
    data = _encode(cell)
    for name in _PERF_HINT_FIELDS:
        data.pop(name, None)
    return data


def cell_key(cell) -> str:
    """Canonical string key of a grid cell (see :func:`encode_cell`)."""
    return json.dumps(encode_cell(cell), sort_keys=True)


def encode_config(config: SimulationConfig) -> dict:
    """JSON-safe encoding of a simulation configuration."""
    return _encode(config)


def decode_config(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`encode_config`.

    Keys of retired fields are ignored, except that an archive written
    with ``prefetcher_enabled: false`` decodes to ``prefetcher: none``.
    """
    mem = dict(data.get("memory", {}))
    if mem.get("prefetcher_enabled") is False:
        mem["prefetcher"] = PrefetcherKind.NONE.value
    pol = data.get("policy", {})
    top = _known_fields(SimulationConfig, data)
    top.update(
        gpu=GpuConfig(**_known_fields(GpuConfig, data.get("gpu", {}))),
        interconnect=InterconnectConfig(
            **_known_fields(InterconnectConfig, data.get("interconnect", {}))),
        memory=MemoryConfig(**{
            **_known_fields(MemoryConfig, mem),
            "eviction_granularity": EvictionGranularity(
                mem["eviction_granularity"]),
            "replacement": ReplacementPolicy(mem["replacement"]),
            "prefetcher": PrefetcherKind(mem["prefetcher"]),
        }),
        policy=PolicyConfig(**{
            **_known_fields(PolicyConfig, pol),
            "policy": MigrationPolicy(pol["policy"]),
        }),
        timing=TimingConfig(
            **_known_fields(TimingConfig, data.get("timing", {}))),
        faults=FaultConfig(
            **_known_fields(FaultConfig, data.get("faults", {}))),
    )
    return SimulationConfig(**top)


def encode_result(result: RunResult) -> dict:
    """JSON-safe encoding of a run result."""
    return {
        "workload": result.workload,
        "config": encode_config(result.config),
        "total_cycles": result.total_cycles,
        "timing": _encode(result.timing),
        "events": _encode(result.events),
        "footprint_bytes": result.footprint_bytes,
        "device_capacity_bytes": result.device_capacity_bytes,
        "unique_thrashed_blocks": result.unique_thrashed_blocks,
    }


def decode_result(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`encode_result`."""
    return RunResult(
        workload=data["workload"],
        config=decode_config(data["config"]),
        total_cycles=data["total_cycles"],
        timing=WaveTiming(**_known_fields(WaveTiming, data["timing"])),
        events=WaveOutcome(**_known_fields(WaveOutcome, data["events"])),
        footprint_bytes=data.get("footprint_bytes", 0),
        device_capacity_bytes=data.get("device_capacity_bytes", 0),
        unique_thrashed_blocks=data.get("unique_thrashed_blocks", 0),
    )


class CheckpointJournal:
    """Append-only JSONL journal of completed grid cells.

    Appends are flushed line-by-line so a killed process loses at most
    the line it was writing -- which :meth:`load` then skips.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = None

    def load(self) -> dict[str, RunResult]:
        """Read every committed entry, keyed by canonical cell key.

        Malformed lines (torn writes from a killed run, manual edits)
        are skipped rather than fatal; duplicate keys keep the last
        occurrence.
        """
        entries: dict[str, RunResult] = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    cell = record["cell"]
                    # Mirror cell_key(): perf hints are not identity.
                    for name in _PERF_HINT_FIELDS + _RETIRED_CELL_FIELDS:
                        cell.pop(name, None)
                    key = json.dumps(cell, sort_keys=True)
                    entries[key] = decode_result(record["result"])
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    continue
        return entries

    def append(self, cell, result: RunResult) -> None:
        """Durably record one completed cell."""
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        # Journals are replay-source-agnostic (see encode_cell).
        record = {"cell": encode_cell(cell), "result": encode_result(result)}
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle (loads stay possible)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
