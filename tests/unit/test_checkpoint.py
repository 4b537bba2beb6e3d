"""Unit tests for the JSONL checkpoint journal."""

import dataclasses
import json
from unittest import mock

import pytest

from repro.analysis.checkpoint import (
    CheckpointJournal,
    cell_key,
    decode_config,
    decode_result,
    encode_config,
    encode_result,
)
from repro.analysis.parallel import GridCell, GridOptions, run_cell, run_grid
from repro.config import (
    EvictionGranularity,
    MigrationPolicy,
    PrefetcherKind,
    SimulationConfig,
)
from repro.sim.results import RunResult
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def tiny_result():
    return run_cell(GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny"))


class TestEncoding:
    def test_cell_key_is_canonical(self):
        a = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25)
        b = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25)
        c = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.0)
        assert cell_key(a) == cell_key(b)
        assert cell_key(a) != cell_key(c)
        # The key must survive a JSON round-trip unchanged (that is how
        # resume matches journal lines back to requested cells).
        assert json.dumps(json.loads(cell_key(a)),
                          sort_keys=True) == cell_key(a)

    def test_config_roundtrip_exact(self):
        cfg = (SimulationConfig(seed=3)
               .with_policy(MigrationPolicy.OVERSUB, static_threshold=16)
               .with_eviction_granularity(EvictionGranularity.BLOCK_64KB)
               .with_prefetcher(PrefetcherKind.SEQUENTIAL)
               .with_faults(transfer_fault_rate=0.125, max_retries=1))
        assert decode_config(encode_config(cfg)) == cfg

    def test_archived_config_with_retired_shards_decodes(self):
        """Configs archived while ``shards``, ``backend``,
        ``collect_timeline``, ``memory.prefetch_degree``,
        ``memory.page_size`` and ``memory.prefetcher_enabled`` were
        settings still load: the retired keys are ignored, everything
        else round-trips."""
        cfg = SimulationConfig(seed=3).with_policy(MigrationPolicy.ADAPTIVE)
        archived = dict(encode_config(cfg), shards=4, backend="numba",
                        collect_timeline=True)
        archived["memory"] = dict(archived["memory"], prefetch_degree=4,
                                  page_size=4096, prefetcher_enabled=True)
        assert decode_config(archived) == cfg

    @pytest.mark.parametrize("kind", [k for k in PrefetcherKind
                                      if k is not PrefetcherKind.NONE])
    def test_archived_prefetcher_disabled_decodes_as_none(self, kind):
        """An archive written with ``prefetcher_enabled: false`` ran
        without prefetching, whichever strategy it named."""
        archived = encode_config(SimulationConfig().with_prefetcher(kind))
        archived["memory"]["prefetcher_enabled"] = False
        decoded = decode_config(archived)
        assert decoded.memory.prefetcher is PrefetcherKind.NONE
        assert decoded == SimulationConfig().with_prefetcher(
            PrefetcherKind.NONE)

    def test_result_roundtrip_exact(self, tiny_result):
        clone = decode_result(encode_result(tiny_result))
        assert clone.workload == tiny_result.workload
        assert clone.config == tiny_result.config
        assert clone.total_cycles == tiny_result.total_cycles
        assert clone.timing == tiny_result.timing
        assert clone.events == tiny_result.events
        assert clone.footprint_bytes == tiny_result.footprint_bytes

    def test_stats_not_serialized(self, tiny_result):
        """A result is its fields, all of them serialized: no
        instrumentation rides along to be dropped."""
        encoded = encode_result(tiny_result)
        assert "stats" not in encoded
        assert set(encoded) == {f.name for f in dataclasses.fields(RunResult)}


class TestJournal:
    def test_append_load_roundtrip(self, tmp_path, tiny_result):
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        with CheckpointJournal(path) as journal:
            journal.append(cell, tiny_result)
        loaded = CheckpointJournal(path).load()
        assert set(loaded) == {cell_key(cell)}
        assert loaded[cell_key(cell)].total_cycles \
            == tiny_result.total_cycles

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "nope.jsonl").load() == {}

    def test_torn_line_skipped(self, tmp_path, tiny_result):
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        with CheckpointJournal(path) as journal:
            journal.append(cell, tiny_result)
        committed = path.read_text()
        # Simulate a kill mid-write: a second entry torn halfway through.
        path.write_text(committed + committed[:len(committed) // 2])
        loaded = CheckpointJournal(path).load()
        assert set(loaded) == {cell_key(cell)}

    def test_garbage_lines_skipped(self, tmp_path, tiny_result):
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        with CheckpointJournal(path) as journal:
            journal.append(cell, tiny_result)
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"cell": {"workload": "x"}}\n')  # missing result
            fh.write("\n")
        assert set(CheckpointJournal(path).load()) == {cell_key(cell)}

    def test_duplicate_key_last_wins(self, tmp_path, tiny_result):
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        doctored = decode_result(encode_result(tiny_result))
        doctored.total_cycles = 123.0
        with CheckpointJournal(path) as journal:
            journal.append(cell, tiny_result)
            journal.append(cell, doctored)
        loaded = CheckpointJournal(path).load()
        assert loaded[cell_key(cell)].total_cycles == 123.0

    def test_append_creates_parent_dirs(self, tmp_path, tiny_result):
        path = tmp_path / "deep" / "nested" / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        with CheckpointJournal(path) as journal:
            journal.append(cell, tiny_result)
        assert path.exists()

    def test_entry_with_retired_cell_field_loads_but_never_resumes(
            self, tmp_path, tiny_result):
        """A journal written while ``prefetch_degree`` was a cell field
        still loads; its cells key on the old field set, so a resumed
        grid re-simulates them rather than serving them."""
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        record = {"cell": dict(json.loads(cell_key(cell)),
                               prefetch_degree=4),
                  "result": encode_result(tiny_result)}
        path.write_text(json.dumps(record) + "\n")
        loaded = CheckpointJournal(path).load()
        assert len(loaded) == 1
        assert cell_key(cell) not in loaded

    def test_entry_with_retired_collector_switches_resumes(
            self, tmp_path, tiny_result):
        """A journal written while ``collect_histogram`` and
        ``collect_trace`` were cell fields (journaled only when both
        were false, with the two config switches of the same names off)
        is served on resume: the grid simulates nothing."""
        path = tmp_path / "journal.jsonl"
        cell = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
        result = encode_result(tiny_result)
        result["config"].update(collect_page_histogram=False,
                                collect_access_trace=False)
        record = {"cell": dict(json.loads(cell_key(cell)),
                               collect_histogram=False, collect_trace=False),
                  "result": result}
        path.write_text(json.dumps(record) + "\n")
        with mock.patch.object(Simulator, "run",
                               side_effect=AssertionError("simulated")):
            [served] = run_grid([cell], options=GridOptions(
                checkpoint=str(path), resume=True))
        assert encode_result(served) == encode_result(tiny_result)
