"""Unit tests for trace capture and replay."""

import numpy as np
import pytest

from repro.trace import (TraceData, TraceWorkload, load_trace,
                         load_trace_dir, record_trace, save_trace,
                         save_trace_dir)
from repro.trace.format import GROUP_FIELDS
from repro.workloads import make_workload

from tests.conftest import StreamWorkload, version1


class TestRecord:
    def test_records_allocations_and_waves(self):
        data = record_trace(StreamWorkload(size_mb=2, iterations=2), seed=0)
        assert data.alloc_names == ["stream.data"]
        assert data.num_launches == 2
        assert data.num_waves > 0
        assert data.num_accesses > 0
        data.validate()

    def test_offsets_partition_stream(self):
        data = record_trace(StreamWorkload(size_mb=2), seed=0)
        spans = np.diff(data.wave_offsets)
        assert spans.sum() == data.pages.size
        assert np.all(spans >= 0)

    def test_deterministic(self):
        a = record_trace(make_workload("ra", "tiny"), seed=4)
        b = record_trace(make_workload("ra", "tiny"), seed=4)
        assert np.array_equal(a.pages, b.pages)
        assert np.array_equal(a.counts, b.counts)

    def test_meta_fields(self):
        data = record_trace(make_workload("nw", "tiny"), seed=0)
        assert data.meta["workload"] == "nw"
        assert data.meta["category"] == "irregular"


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2), seed=1)
        path = save_trace(data, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert loaded.alloc_names == data.alloc_names
        assert np.array_equal(loaded.pages, data.pages)
        assert np.array_equal(loaded.wave_offsets, data.wave_offsets)
        assert np.array_equal(loaded.is_write, data.is_write)
        assert loaded.meta == data.meta

    def test_appends_npz_suffix(self, tmp_path):
        data = record_trace(StreamWorkload(size_mb=2), seed=1)
        path = save_trace(data, tmp_path / "t")
        assert path.suffix == ".npz"
        load_trace(path).validate()


class TestValidation:
    def _minimal(self, **overrides):
        kwargs = dict(
            alloc_names=["a"],
            alloc_sizes=np.array([4096], dtype=np.int64),
            alloc_read_only=np.array([False]),
            alloc_advice=["none"],
            kernel_names=["k"],
            kernel_iterations=np.array([0]),
            wave_kernel=np.array([0]),
            wave_offsets=np.array([0, 1]),
            wave_compute=np.array([float("nan")]),
            pages=np.array([0]),
            is_write=np.array([False]),
            counts=np.array([1]),
        )
        kwargs.update(overrides)
        return TraceData(**kwargs)

    def test_minimal_valid(self):
        self._minimal().validate()

    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            self._minimal(wave_offsets=np.array([0, 2])).validate()

    def test_bad_kernel_index(self):
        with pytest.raises(ValueError):
            self._minimal(wave_kernel=np.array([5])).validate()

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            self._minimal(counts=np.array([0])).validate()

    def test_bad_version(self):
        with pytest.raises(ValueError):
            self._minimal(version=99).validate()

    def test_version1_accepted(self):
        self._minimal(version=1).validate()

    def test_negative_page_id_names_its_wave(self):
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        wave = data.num_waves // 2
        data.pages = data.pages.copy()
        data.pages[data.wave_offsets[wave] + 1] = -1
        with pytest.raises(ValueError,
                           match=f"wave {wave}: page id -1 is negative"):
            data.validate()

    def _grouped(self, **overrides):
        """A grouped minimal trace: one wave of one access to block 0."""
        groups = dict(group_offsets=np.array([0, 1]),
                      group_blocks=np.array([0]),
                      group_totals=np.array([1]),
                      group_writes=np.array([0]))
        groups.update(overrides)
        return self._minimal(**groups)

    def test_grouped_minimal_valid(self):
        self._grouped().validate()

    @pytest.mark.parametrize("offsets", [[0, 2], [1, 1], [0], [0, 0]])
    def test_group_offsets_must_cover_grouped_arrays(self, offsets):
        with pytest.raises(ValueError, match="group offsets"):
            self._grouped(group_offsets=np.array(offsets)).validate()

    def test_grouped_arrays_come_together(self):
        with pytest.raises(ValueError, match="together"):
            self._grouped(group_totals=None).validate()

    def test_grouped_arrays_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            self._grouped(group_writes=np.array([0, 0])).validate()

    def test_negative_block_id_rejected(self):
        with pytest.raises(ValueError,
                           match="wave 0: block id -1 is negative"):
            self._grouped(group_blocks=np.array([-1])).validate()

    def test_group_checks_are_per_wave(self):
        """The offsets are checked per wave before any grouped array is
        read: a wave with more groups than accesses is caught from the
        offsets alone."""
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        wave = 3
        entries = int(data.wave_offsets[wave + 1] - data.wave_offsets[wave])
        go = data.group_offsets.copy()
        go[wave + 1:] += entries  # wave 3 claims more groups than accesses
        data.group_offsets = go
        data.group_blocks = data.group_totals = data.group_writes = (
            np.zeros(int(go[-1]), dtype=np.int64))
        with pytest.raises(ValueError, match=f"wave {wave}: group offsets"):
            data.validate()

    def test_block_order_may_drop_across_an_empty_wave(self):
        """Blocks ascend within a wave, not across waves (wave 1 is
        empty)."""
        self._minimal(
            alloc_sizes=np.array([2 << 20], dtype=np.int64),
            wave_kernel=np.array([0, 0, 0]),
            wave_offsets=np.array([0, 2, 2, 3]),
            wave_compute=np.full(3, float("nan")),
            pages=np.array([32, 33, 0]),
            is_write=np.array([False, True, False]),
            counts=np.array([1, 2, 1]),
            group_offsets=np.array([0, 1, 1, 2]),
            group_blocks=np.array([2, 0]),
            group_totals=np.array([3, 1]),
            group_writes=np.array([2, 0])).validate()

    #: Breaks of a recorded grouping, and the error each one raises.
    BROKEN_GROUPINGS = {
        "duplicate-block": "blocks do not strictly ascend",
        "unsorted-blocks": "blocks do not strictly ascend",
        "zero-total": "group totals must be >= 1",
        "negative-writes": r"group writes must lie in \[0, totals\]",
        "writes-past-total": r"group writes must lie in \[0, totals\]",
        "access-moved-between-waves": "group totals do not add up",
    }

    @pytest.mark.parametrize("mutation", list(BROKEN_GROUPINGS))
    def test_grouping_must_fit_its_wave(self, mutation):
        """Replay trusts the grouping in place of the page stream: the
        counter file's unique add keeps one of two duplicate adds, and a
        wave's totals are its access count.  Each break is rejected,
        naming its wave."""
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        go = data.group_offsets
        gb, gt, gw = (getattr(data, name).copy() for name in GROUP_FIELDS[1:])
        data.group_blocks, data.group_totals, data.group_writes = gb, gt, gw
        wave = int(np.flatnonzero(np.diff(go) >= 2)[1])
        g = int(go[wave])
        if mutation == "duplicate-block":
            gb[g + 1] = gb[g]
        elif mutation == "unsorted-blocks":
            gb[g], gb[g + 1] = gb[g + 1], gb[g]
        elif mutation == "zero-total":
            gt[g] = 0
        elif mutation == "negative-writes":
            gw[g] = -1
        elif mutation == "writes-past-total":
            gw[g] = gt[g] + 1
        else:
            # One access moves here from a later wave: the stream's sum
            # holds, the two waves' sums do not.
            first = int(go[wave + 1])
            later = first + int(np.flatnonzero(gt[first:] >= 2)[0])
            gt[g] += 1
            gt[later] -= 1
            gw[later] = min(gw[later], gt[later])
            assert gt.sum() == data.counts.sum()
        message = self.BROKEN_GROUPINGS[mutation]
        with pytest.raises(ValueError, match=f"wave {wave}: {message}"):
            data.validate()

class TestGrouping:
    def test_recorded_groups_match_each_wave(self):
        from repro.memory.layout import BLOCK_SHIFT
        from repro.uvm.driver import group_wave
        data = record_trace(make_workload("sssp", "tiny"), seed=1)
        assert data.version == 2 and data.grouped
        wo, go = data.wave_offsets, data.group_offsets
        for w in range(data.num_waves):
            want = group_wave(data.pages[wo[w]:wo[w + 1]] >> BLOCK_SHIFT,
                              data.is_write[wo[w]:wo[w + 1]],
                              data.counts[wo[w]:wo[w + 1]])
            got = (data.group_blocks[go[w]:go[w + 1]],
                   data.group_totals[go[w]:go[w + 1]],
                   data.group_writes[go[w]:go[w + 1]])
            for g, x in zip(got, want):
                assert np.array_equal(g, x)

    @pytest.mark.parametrize("layout", ["npz", "dir"])
    def test_version1_file_loads_ungrouped(self, tmp_path, layout):
        data = version1(record_trace(make_workload("ra", "tiny"), seed=0))
        if layout == "npz":
            loaded = load_trace(save_trace(data, tmp_path / "t.npz"))
        else:
            loaded = load_trace_dir(save_trace_dir(data, tmp_path / "t"))
        assert loaded.version == 1
        assert not loaded.grouped
        assert not list(tmp_path.rglob("groups.npy"))

    def test_grouped_replay_skips_grouping(self, monkeypatch):
        """A grouped trace hands the driver every wave's grouping; a
        version-1 trace of the same stream leaves the driver to group."""
        from repro import SimulationConfig, Simulator
        from repro.uvm import driver
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        calls = []
        real = driver.group_wave
        monkeypatch.setattr(driver, "group_wave",
                            lambda *a: calls.append(1) or real(*a))
        cfg = SimulationConfig(seed=0)
        grouped = Simulator(cfg).run(TraceWorkload(data),
                                     oversubscription=1.25)
        assert calls == []
        raw = Simulator(cfg).run(TraceWorkload(version1(data)),
                                 oversubscription=1.25)
        assert calls
        assert grouped.events == raw.events
        assert grouped.total_cycles == raw.total_cycles


class TestReplay:
    def test_replay_matches_source_simulation(self):
        from repro import MigrationPolicy, SimulationConfig, Simulator
        cfg = SimulationConfig(seed=7).with_policy(MigrationPolicy.ADAPTIVE)
        orig = Simulator(cfg).run(make_workload("ra", "tiny"),
                                  oversubscription=1.25)
        data = record_trace(make_workload("ra", "tiny"), seed=7)
        repl = Simulator(cfg).run(TraceWorkload(data),
                                  oversubscription=1.25)
        assert repl.total_cycles == orig.total_cycles
        assert repl.events == orig.events

    def test_replay_preserves_metadata(self):
        data = record_trace(make_workload("sssp", "tiny"), seed=0)
        wl = TraceWorkload(data)
        assert wl.name == "sssp"
        assert wl.category.value == "irregular"

    def test_replay_under_different_policy(self):
        from repro import MigrationPolicy, SimulationConfig, Simulator
        data = record_trace(make_workload("ra", "tiny"), seed=2)
        runs = {}
        for pol in (MigrationPolicy.DISABLED, MigrationPolicy.ADAPTIVE):
            cfg = SimulationConfig(seed=2).with_policy(pol)
            runs[pol] = Simulator(cfg).run(TraceWorkload(data),
                                           oversubscription=1.25)
        assert runs[MigrationPolicy.ADAPTIVE].total_cycles < \
            runs[MigrationPolicy.DISABLED].total_cycles

    @pytest.mark.parametrize("grouped", [True, False])
    def test_page_past_layout_names_its_wave(self, grouped):
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        if not grouped:
            data = version1(data)
        wave = data.num_waves - 2
        data.pages = data.pages.copy()
        data.pages[data.wave_offsets[wave]] = 10**9
        with pytest.raises(ValueError, match=f"wave {wave}: page id "
                                             "1000000000 is past"):
            TraceWorkload(data)

    def test_block_past_layout_names_its_wave(self):
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        data.group_blocks = data.group_blocks.copy()
        data.group_blocks[data.group_offsets[5]] = 10**6
        with pytest.raises(ValueError, match="wave 5: block id 1000000 is "
                                             "past"):
            TraceWorkload(data)

    @pytest.mark.parametrize("layout", ["npz", "dir"])
    def test_loaded_trace_is_validated_once(self, tmp_path, monkeypatch,
                                            layout):
        data = record_trace(make_workload("ra", "tiny"), seed=0)
        path = (save_trace(data, tmp_path / "t.npz") if layout == "npz"
                else save_trace_dir(data, tmp_path / "t"))
        calls = []
        real = TraceData.validate
        monkeypatch.setattr(TraceData, "validate",
                            lambda self: calls.append(1) or real(self))
        TraceWorkload(path)
        assert len(calls) == 1
