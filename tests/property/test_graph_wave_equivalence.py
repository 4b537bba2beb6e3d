"""Per-launch bfs/sssp generation against the per-wave test oracle.

Production coalesces a whole BFS level or SSSP round in one pass and
hands out its waves as slices of the launch's flat arrays;
:class:`tests.oracle.ReferenceBfs` and :class:`tests.oracle.ReferenceSssp`
build every wave on its own, with a sort and four coalescing calls.
The two must agree launch for launch and wave for wave: the same
launch names and iterations, and per wave the same ``pages``,
``is_write`` and ``counts`` arrays and the same ``compute_cycles``,
value and Python type.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.workloads.bfs as bfs_module
import repro.workloads.sssp as sssp_module
from repro.memory.allocator import VirtualAddressSpace
from repro.workloads.bfs import PRESETS as BFS_PRESETS, Bfs, BfsParams
from repro.workloads.graphs import CsrGraph
from repro.workloads.sssp import PRESETS as SSSP_PRESETS, Sssp, SsspParams

from tests.oracle import ReferenceBfs, ReferenceSssp

PAIRS = {"bfs": (Bfs, ReferenceBfs), "sssp": (Sssp, ReferenceSssp)}


def _launches(workload, seed):
    workload.build(VirtualAddressSpace(), np.random.default_rng(seed))
    return [(launch.name, launch.iteration, list(launch.waves()))
            for launch in workload.kernels()]


def assert_same_waves(name, params, seed):
    prod_cls, ref_cls = PAIRS[name]
    got = _launches(prod_cls(params), seed)
    want = _launches(ref_cls(params), seed)
    assert [(n, i, len(w)) for n, i, w in got] == \
        [(n, i, len(w)) for n, i, w in want]
    for (launch, it, waves), (_, _, ref_waves) in zip(got, want):
        for k, (wave, ref) in enumerate(zip(waves, ref_waves)):
            where = f"{launch}[{it}] wave {k}"
            for field in ("pages", "is_write", "counts"):
                a, b = getattr(wave, field), getattr(ref, field)
                assert a.dtype == b.dtype, where
                np.testing.assert_array_equal(a, b, err_msg=where)
            assert type(wave.compute_cycles) is float, where
            assert wave.compute_cycles == ref.compute_cycles, where
    return sum(len(w) for _, _, w in got)


def small_params(name, per_wave):
    if name == "bfs":
        return BfsParams(num_nodes=3000, frontier_per_wave=per_wave)
    return SsspParams(num_nodes=3000, worklist_per_wave=per_wave,
                      max_worklist=200, max_rounds=12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["bfs", "sssp"])
def test_seeds(name, seed):
    """Small per-wave sizes: every level or round spans many waves."""
    assert assert_same_waves(name, small_params(name, 24), seed)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(PAIRS)),
       per_wave=st.integers(2, 300), seed=st.integers(0, 2**31 - 1))
def test_random_wave_sizes(name, per_wave, seed):
    assert assert_same_waves(name, small_params(name, per_wave), seed)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["bfs", "sssp"])
def test_tiny_presets(name, seed):
    presets = {"bfs": BFS_PRESETS, "sssp": SSSP_PRESETS}[name]
    assert assert_same_waves(name, presets["tiny"], seed)


def _graph_with_sinks() -> CsrGraph:
    """Node 0 fans out to 1..29; only every fifth of those has edges.

    With two or three nodes per wave, the second BFS level and the
    second SSSP round hold waves whose nodes all have zero out-degree,
    so those waves have no edge or neighbour accesses at all.
    """
    n = 40
    adjacency = {0: list(range(1, 30))}
    for v in range(5, 30, 5):
        adjacency[v] = [30 + v // 5, 36 + v // 10]
    degree = np.array([len(adjacency.get(v, ())) for v in range(n)])
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=ptr[1:])
    dst = np.array([u for v in range(n) for u in adjacency.get(v, ())],
                   dtype=np.int32)
    weights = np.linspace(1.0, 9.0, dst.size, dtype=np.float32)
    return CsrGraph(ptr=ptr, dst=dst, weights=weights)


@pytest.mark.parametrize("per_wave", [1, 2, 3])
@pytest.mark.parametrize("name", ["bfs", "sssp"])
def test_zero_degree_nodes(name, per_wave):
    graph = _graph_with_sinks()
    graph.validate()
    module = {"bfs": bfs_module, "sssp": sssp_module}[name]
    params = dataclasses.replace(small_params(name, per_wave),
                                 num_nodes=graph.num_nodes)
    with mock.patch.object(module, "random_graph", return_value=graph):
        workload = PAIRS[name][0](params)
        launches = _launches(workload, 0)
        edges = workload.allocations[f"{name}.edges"]
        assert any(not ((w.pages >= edges.first_page)
                        & (w.pages < edges.last_page)).any()
                   for launch, _, waves in launches for w in waves
                   if launch != "sssp.kernel2"), "every wave reads edges"
        assert assert_same_waves(name, params, 0)
