"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import MigrationPolicy, PrefetcherKind, SimulationConfig
from repro.memory.allocator import VirtualAddressSpace
from repro.memory.layout import MB
from repro.trace.format import GROUP_FIELDS, TraceData
from repro.uvm.driver import UvmDriver
from repro.workloads.base import (
    Category,
    KernelLaunch,
    Wave,
    WaveBuilder,
    Workload,
    chunked,
)


@pytest.fixture
def no_backoff(monkeypatch):
    """Re-attempt failed grid cells without the backoff sleep."""
    from repro.analysis import parallel
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0.0)


def make_vas(*sizes_mb: float, read_only: tuple[bool, ...] | None = None
             ) -> VirtualAddressSpace:
    """VA space with one allocation per size (in MB)."""
    vas = VirtualAddressSpace()
    ro = read_only or (False,) * len(sizes_mb)
    for i, (size, r) in enumerate(zip(sizes_mb, ro)):
        vas.malloc_managed(f"alloc{i}", int(size * MB), read_only=r)
    return vas


def make_driver(vas: VirtualAddressSpace,
                policy: MigrationPolicy = MigrationPolicy.DISABLED,
                capacity_mb: float = 64, ts: int = 8, p: int = 8,
                prefetcher: bool = True,
                driver_cls: type[UvmDriver] = UvmDriver,
                obs=None) -> UvmDriver:
    """Driver over ``vas`` with the given policy and capacity.

    ``driver_cls`` swaps in a subclass such as the test oracle
    :class:`tests.oracle.ReferenceDriver`; ``obs`` is the
    :class:`repro.obs.Observability` handle it is built with.
    """
    cfg = SimulationConfig().with_policy(policy, static_threshold=ts,
                                         migration_penalty=p)
    cfg = cfg.with_device_capacity(int(capacity_mb * MB))
    if not prefetcher:
        cfg = cfg.with_prefetcher(PrefetcherKind.NONE)
    return driver_cls(vas, cfg, obs=obs)


def profile_shares(text: str) -> dict[str, float]:
    """Span name -> share (percent) from a ``--profile`` table."""
    lines = text[text.index("-- profile:"):].splitlines()[2:]
    shares = {}
    for line in lines:
        cells = line.split()
        if len(cells) != 5 or not cells[4].endswith("%"):
            break
        shares[cells[0]] = float(cells[4][:-1])
    return shares


def version1(data: TraceData) -> TraceData:
    """``data`` as a version-1 trace: the same stream, no grouped arrays."""
    return dataclasses.replace(data, version=1,
                               **dict.fromkeys(GROUP_FIELDS))


class StreamWorkload(Workload):
    """Minimal synthetic workload: N iterations of a linear sweep."""

    name = "stream"
    category = Category.REGULAR

    def __init__(self, size_mb: float = 8, iterations: int = 2,
                 wave_pages: int = 256, write_fraction: float = 0.5,
                 accesses_per_page: int = 32) -> None:
        super().__init__()
        self.size_mb = size_mb
        self.iterations = iterations
        self.wave_pages = wave_pages
        self.write_fraction = write_fraction
        self.accesses_per_page = accesses_per_page

    def _allocate(self, vas, rng) -> None:
        self.data = self._register(
            vas.malloc_managed("stream.data", int(self.size_mb * MB)))

    def _sweep(self):
        pages = self.data.page_range()
        for chunk in chunked(pages, self.wave_pages):
            wb = WaveBuilder()
            split = int(chunk.size * (1.0 - self.write_fraction))
            wb.read(chunk[:split], self.accesses_per_page)
            wb.write(chunk[split:], self.accesses_per_page)
            yield wb.build()

    def kernels(self):
        for it in range(self.iterations):
            yield KernelLaunch("stream.sweep", it, self._sweep)


class RandomWorkload(Workload):
    """Minimal synthetic workload: uniform random single accesses."""

    name = "randacc"
    category = Category.IRREGULAR

    def __init__(self, size_mb: float = 16, n_waves: int = 32,
                 wave_accesses: int = 256, seed: int = 7,
                 write: bool = True) -> None:
        super().__init__()
        self.size_mb = size_mb
        self.n_waves = n_waves
        self.wave_accesses = wave_accesses
        self.seed = seed
        self.write = write

    def _allocate(self, vas, rng) -> None:
        self.data = self._register(
            vas.malloc_managed("randacc.data", int(self.size_mb * MB)))

    def _waves(self):
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_waves):
            pages = rng.integers(self.data.first_page, self.data.last_page,
                                 size=self.wave_accesses, dtype=np.int64)
            flags = np.full(pages.shape, self.write, dtype=bool)
            yield Wave(np.unique(pages), flags[:np.unique(pages).size])

    def kernels(self):
        yield KernelLaunch("randacc.kernel", 0, self._waves)


@pytest.fixture
def stream_workload() -> StreamWorkload:
    """Small streaming workload."""
    return StreamWorkload()


@pytest.fixture
def random_workload() -> RandomWorkload:
    """Small random-access workload."""
    return RandomWorkload()
