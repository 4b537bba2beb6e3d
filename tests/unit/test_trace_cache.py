"""Unit tests for the trace directory layout and the shared trace cache."""

import numpy as np
import pytest

from repro.trace import (
    TraceCache,
    TraceWorkload,
    load_trace_dir,
    record_trace,
    save_trace_dir,
    trace_key,
)
from repro.trace.recorder import MANIFEST_NAME
from repro.workloads import make_workload

from tests.conftest import StreamWorkload


class TestTraceDir:
    def test_roundtrip(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2, iterations=2), seed=1)
        path = save_trace_dir(data, tmp_path / "t")
        loaded = load_trace_dir(path)
        assert loaded.alloc_names == data.alloc_names
        assert loaded.alloc_advice == data.alloc_advice
        assert loaded.kernel_names == data.kernel_names
        assert loaded.meta == data.meta
        for name in ("alloc_sizes", "alloc_read_only", "kernel_iterations",
                     "wave_kernel", "wave_offsets", "pages", "is_write",
                     "counts"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(data, name)), name
        # wave_compute is float and uses NaN for "no explicit cost".
        assert np.array_equal(loaded.wave_compute, data.wave_compute,
                              equal_nan=True)
        loaded.validate()

    def test_arrays_are_memory_mapped(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2), seed=0)
        path = save_trace_dir(data, tmp_path / "t")
        loaded = load_trace_dir(path)
        assert isinstance(loaded.pages, np.memmap)
        plain = load_trace_dir(path, mmap=False)
        assert not isinstance(plain.pages, np.memmap)
        assert np.array_equal(plain.pages, loaded.pages)

    def test_manifest_is_commit_marker(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2), seed=0)
        path = save_trace_dir(data, tmp_path / "t")
        (path / MANIFEST_NAME).unlink()
        with pytest.raises(FileNotFoundError):
            load_trace_dir(path)

    def test_malformed_groups_file_rejected(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2), seed=0)
        path = save_trace_dir(data, tmp_path / "t")
        np.save(path / "groups.npy", np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="does not fit"):
            load_trace_dir(path)

    def test_replay_accepts_directory_path(self, tmp_path):
        data = record_trace(make_workload("ra", "tiny"), seed=2)
        path = save_trace_dir(data, tmp_path / "t")
        wl = TraceWorkload(str(path))
        assert wl.name == "ra"


class TestTraceKey:
    def test_stable_and_distinct(self):
        assert trace_key("ra", "tiny", 0) == trace_key("ra", "tiny", 0)
        keys = {trace_key("ra", "tiny", 0), trace_key("ra", "tiny", 1),
                trace_key("ra", "small", 0), trace_key("bfs", "tiny", 0)}
        assert len(keys) == 4


class TestTraceCache:
    def test_records_then_hits(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        p1 = cache.get_or_record("ra", "tiny", 0)
        assert (p1 / MANIFEST_NAME).exists()
        assert (cache.recorded, cache.hits) == (1, 0)
        p2 = cache.get_or_record("ra", "tiny", 0)
        assert p2 == p1
        assert (cache.recorded, cache.hits) == (1, 1)

    def test_distinct_streams_get_distinct_entries(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        a = cache.get_or_record("ra", "tiny", 0)
        b = cache.get_or_record("ra", "tiny", 1)
        assert a != b
        assert cache.recorded == 2

    def test_entry_names_are_human_readable(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.path_for("sssp", "tiny", 3)
        assert path.name.startswith("sssp-tiny-s3-")

    def test_no_temp_dirs_left_behind(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        cache.get_or_record("ra", "tiny", 0)
        leftovers = [p for p in (tmp_path / "cache").iterdir()
                     if ".tmp-" in p.name]
        assert leftovers == []

    def test_losing_a_commit_race_uses_winner(self, tmp_path, monkeypatch):
        import pathlib

        import repro.trace.cache as cache_mod
        cache = TraceCache(tmp_path / "cache")

        def racing_rename(src, dst):
            # A concurrent recorder lands the entry first; ours fails.
            dst_path = pathlib.Path(dst)
            if not dst_path.exists():
                data = record_trace(make_workload("ra", "tiny"), seed=0)
                save_trace_dir(data, dst_path)
            raise OSError("simulated rename race")

        monkeypatch.setattr(cache_mod.os, "rename", racing_rename)
        path = cache.get_or_record("ra", "tiny", 0)
        monkeypatch.undo()
        assert (path / MANIFEST_NAME).exists()
        # The loser's temp directory was discarded.
        leftovers = [p for p in path.parent.iterdir() if ".tmp-" in p.name]
        assert leftovers == []
        assert cache.get_or_record("ra", "tiny", 0) == path

    def test_failed_write_leaves_no_partial_entry(self, tmp_path,
                                                  monkeypatch):
        from repro.trace import recorder
        cache = TraceCache(tmp_path / "cache")

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(recorder.np, "save", full_disk)
        with pytest.raises(OSError, match="No space left"):
            cache.get_or_record("ra", "tiny", 0)
        monkeypatch.undo()
        assert list((tmp_path / "cache").iterdir()) == []
        path = cache.get_or_record("ra", "tiny", 0)
        assert (path / MANIFEST_NAME).exists()

    def test_cached_entry_replays(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        path = cache.get_or_record("ra", "tiny", 0)
        wl = TraceWorkload(str(path))
        live = record_trace(make_workload("ra", "tiny"), seed=0)
        replayed = record_trace(wl, seed=0)
        assert np.array_equal(replayed.pages, live.pages)
        assert np.array_equal(replayed.counts, live.counts)
