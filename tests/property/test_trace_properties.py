"""Property tests: trace round trips and replay fidelity."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import MigrationPolicy, SimulationConfig
from repro.memory.layout import MB
from repro.sim.simulator import Simulator
from repro.trace import (TraceWorkload, load_trace, load_trace_dir,
                         record_trace, save_trace, save_trace_dir)
from repro.trace.format import GROUP_FIELDS

from tests.conftest import RandomWorkload, StreamWorkload, version1


@st.composite
def workloads(draw):
    kind = draw(st.sampled_from(["stream", "random"]))
    size = draw(st.integers(2, 10))
    if kind == "stream":
        iters = draw(st.integers(1, 3))
        return StreamWorkload(size_mb=size, iterations=iters)
    waves = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 100))
    return RandomWorkload(size_mb=size, n_waves=waves, seed=seed)


def _assert_same_trace(loaded, data):
    assert loaded.alloc_names == data.alloc_names
    assert np.array_equal(loaded.alloc_sizes, data.alloc_sizes)
    assert np.array_equal(loaded.pages, data.pages)
    assert np.array_equal(loaded.is_write, data.is_write)
    assert np.array_equal(loaded.counts, data.counts)
    assert np.array_equal(loaded.wave_offsets, data.wave_offsets)
    assert loaded.kernel_names == data.kernel_names
    assert loaded.version == data.version
    assert loaded.grouped == data.grouped
    for name in GROUP_FIELDS:
        if data.grouped:
            got, want = getattr(loaded, name), getattr(data, name)
            assert got.dtype == want.dtype == np.int64, name
            assert np.array_equal(got, want), name
        else:
            assert getattr(loaded, name) is None, name


@given(workloads(), st.integers(0, 1000), st.booleans())
@settings(max_examples=25, deadline=None)
def test_save_load_roundtrip_is_lossless(workload, seed, grouped):
    import tempfile, pathlib
    data = record_trace(workload, seed=seed)
    assert data.grouped
    if not grouped:
        data = version1(data)
    with tempfile.TemporaryDirectory() as d:
        path = save_trace(data, pathlib.Path(d) / "t.npz")
        _assert_same_trace(load_trace(path), data)
        path = save_trace_dir(data, pathlib.Path(d) / "t")
        for mmap in (True, False):
            _assert_same_trace(load_trace_dir(path, mmap=mmap), data)


@given(workloads(), st.integers(0, 50),
       st.sampled_from(list(MigrationPolicy)))
@settings(max_examples=20, deadline=None)
def test_replay_is_bit_identical(workload, seed, policy):
    """Live generation, a grouped replay (the driver takes each wave's
    recorded grouping) and a version-1 replay of the same stream (the
    driver groups every wave itself) all simulate alike."""
    cfg = SimulationConfig(seed=seed).with_policy(policy)
    cfg = cfg.with_device_capacity(4 * MB)
    direct = Simulator(cfg).run(workload)
    data = record_trace(workload, seed=seed)
    for trace in (data, version1(data)):
        replay = Simulator(cfg).run(TraceWorkload(trace))
        assert replay.total_cycles == direct.total_cycles
        assert replay.events == direct.events
