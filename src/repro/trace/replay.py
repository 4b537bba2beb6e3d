"""Replaying recorded traces as workloads."""

from __future__ import annotations

import math
import pathlib

import numpy as np

from ..memory.advice import Advice
from ..workloads.base import Category, KernelLaunch, Wave, Workload
from .format import TraceData
from .recorder import load_trace, load_trace_dir


class _RecordedWave(Wave):
    """A wave sliced from a validated trace.

    :meth:`TraceData.validate` has checked the whole stream for what
    :class:`Wave` re-checks per wave (parallel arrays, counts of at
    least 1), and :class:`TraceWorkload` cast its arrays once at load,
    so replayed waves skip both.
    """

    def __post_init__(self) -> None:
        pass


class TraceWorkload(Workload):
    """A workload that replays a recorded trace verbatim.

    The replay reallocates the trace's allocation table in order, which
    reproduces the identical virtual layout (the allocator is
    deterministic), so the recorded page ids remain valid; validation
    (:meth:`TraceData.validate`, run once per load) rejects any id
    outside that layout.

    ``trace`` may be in-memory :class:`TraceData`, an ``.npz`` file
    path, or a trace *directory* (the mmap-able layout of
    :func:`repro.trace.recorder.save_trace_dir`); directories are
    memory-mapped, so concurrent replays of one cache entry share a
    single page-cache copy of the access arrays.  A trace that stores
    its per-wave grouping (format version 2) hands each wave its
    recorded grouping, so the driver does not group it again.
    """

    def __init__(self, trace: TraceData | str | pathlib.Path) -> None:
        super().__init__()
        if isinstance(trace, TraceData):
            trace.validate()
        else:
            # The loaders validate what they load.
            p = pathlib.Path(trace)
            trace = load_trace_dir(p) if p.is_dir() else load_trace(p)
        self.trace = trace
        self.name = trace.meta.get("workload") or "trace"
        cat = trace.meta.get("category", "")
        self.category = (Category(cat) if cat in
                         (c.value for c in Category) else Category.IRREGULAR)
        # Recorded traces list waves in launch order, so each launch is
        # one contiguous segment of ``wave_kernel`` and a binary search
        # replaces the per-launch full scan.  Externally-produced traces
        # may interleave; those keep the scan.
        wk = trace.wave_kernel
        self._ordered = bool(wk.size == 0 or (wk[1:] >= wk[:-1]).all())
        # Waves are sliced from plain ndarray views of the (possibly
        # memory-mapped) arrays, which skips np.memmap's per-slice
        # __getitem__/__array_finalize__, cast here once to the dtypes
        # the driver takes (a no-op for recorded traces); the per-wave
        # scalars are read as lists once.
        self._pages = np.asarray(trace.pages, dtype=np.int64)
        self._is_write = np.asarray(trace.is_write, dtype=bool)
        self._counts = np.asarray(trace.counts, dtype=np.int64)
        self._offsets = trace.wave_offsets.tolist()
        self._compute = [None if math.isnan(c) else c
                         for c in trace.wave_compute.tolist()]
        self._groups = None
        if trace.grouped:
            self._groups = (trace.group_offsets.tolist(),
                            np.asarray(trace.group_blocks, dtype=np.int64),
                            np.asarray(trace.group_totals, dtype=np.int64),
                            np.asarray(trace.group_writes, dtype=np.int64))

    def _allocate(self, vas, rng) -> None:
        t = self.trace
        for name, size, ro, adv in zip(t.alloc_names, t.alloc_sizes,
                                       t.alloc_read_only, t.alloc_advice):
            self._register(vas.malloc_managed(
                name, int(size), read_only=bool(ro), advice=Advice(adv)))

    def _waves_for(self, launch_index: int):
        t = self.trace
        if self._ordered:
            wave_ids = range(
                int(np.searchsorted(t.wave_kernel, launch_index, "left")),
                int(np.searchsorted(t.wave_kernel, launch_index, "right")))
        else:
            wave_ids = np.flatnonzero(t.wave_kernel == launch_index).tolist()
        pages, is_write, counts = self._pages, self._is_write, self._counts
        offsets, compute, groups = self._offsets, self._compute, self._groups
        grouped = None
        for w in wave_ids:
            lo, hi = offsets[w], offsets[w + 1]
            if groups is not None:
                group_offsets, ublocks, totals, writes = groups
                glo, ghi = group_offsets[w], group_offsets[w + 1]
                grouped = (ublocks[glo:ghi], totals[glo:ghi], writes[glo:ghi])
            yield _RecordedWave(pages[lo:hi], is_write[lo:hi], counts[lo:hi],
                                compute[w], grouped)

    def kernels(self):
        t = self.trace
        for kid, (name, it) in enumerate(zip(t.kernel_names,
                                             t.kernel_iterations)):
            yield KernelLaunch(name, int(it),
                               lambda k=kid: self._waves_for(k))
