"""Workload abstractions: managed allocations, kernels, and access waves.

A :class:`Workload` is the analogue of one CUDA Unified Memory benchmark:
it allocates data structures with ``cudaMallocManaged`` semantics and
launches a sequence of kernels.  Each :class:`KernelLaunch` yields
:class:`Wave` objects -- the page accesses of one batch of concurrently
scheduled warps between synchronization points.  Waves are what the UVM
driver consumes; their page arrays are *accesses*, so a page appearing
twice is touched twice.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ..memory.allocation import ManagedAllocation
from ..memory.allocator import VirtualAddressSpace


class Category(enum.Enum):
    """The paper's workload taxonomy (Section III-B)."""

    REGULAR = "regular"
    IRREGULAR = "irregular"


_ONES_CACHE: dict[int, np.ndarray] = {}


def default_counts(length: int) -> np.ndarray:
    """Shared read-only all-ones counts array of ``length``.

    Most waves use the default one-access-per-entry counts; sharing one
    immutable array per length removes an allocation from every wave.
    Consumers must treat the result as read-only (enforced via the
    writeable flag).
    """
    ones = _ONES_CACHE.get(length)
    if ones is None:
        ones = np.ones(length, dtype=np.int64)
        ones.flags.writeable = False
        _ONES_CACHE[length] = ones
    return ones


@dataclass
class Wave:
    """Page accesses of one scheduling window of warps.

    ``counts`` gives the number of coalesced accesses (128B sectors) each
    entry represents, so a dense sweep that touches every sector of a
    page can be expressed as one entry with count 32 instead of 32
    duplicate entries.  ``counts`` defaults to one access per entry.
    """

    pages: np.ndarray
    is_write: np.ndarray
    counts: np.ndarray | None = None
    #: Optional override of the default compute-cycles estimate.
    compute_cycles: float | None = None
    #: The wave's per-block grouping, ``(blocks, totals, writes)`` as
    #: :func:`repro.uvm.driver.group_wave` computes it, when a recorded
    #: trace stored it; the driver then skips grouping the wave.
    grouped: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.pages = np.asarray(self.pages, dtype=np.int64)
        self.is_write = np.asarray(self.is_write, dtype=bool)
        if self.pages.shape != self.is_write.shape:
            raise ValueError("pages and is_write must have identical shape")
        if self.counts is None:
            self.counts = (default_counts(self.pages.size)
                           if self.pages.ndim == 1
                           else np.ones(self.pages.shape, dtype=np.int64))
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != self.pages.shape:
                raise ValueError("counts must match pages in shape")
            if self.counts.size and self.counts.min() < 1:
                raise ValueError("counts must be >= 1")

    @property
    def n_accesses(self) -> int:
        """Number of page accesses in this wave."""
        return int(self.counts.sum())

    @staticmethod
    def reads(pages: np.ndarray, counts: np.ndarray | int | None = None,
              compute_cycles: float | None = None) -> "Wave":
        """Build an all-read wave."""
        pages = np.asarray(pages, dtype=np.int64)
        return Wave(pages, np.zeros(pages.shape, dtype=bool),
                    _broadcast_counts(counts, pages), compute_cycles)

    @staticmethod
    def writes(pages: np.ndarray, counts: np.ndarray | int | None = None,
               compute_cycles: float | None = None) -> "Wave":
        """Build an all-write wave."""
        pages = np.asarray(pages, dtype=np.int64)
        return Wave(pages, np.ones(pages.shape, dtype=bool),
                    _broadcast_counts(counts, pages), compute_cycles)


def _broadcast_counts(counts: np.ndarray | int | None,
                      pages: np.ndarray) -> np.ndarray | None:
    """Expand a scalar count to match ``pages``; pass arrays through."""
    if counts is None:
        return None
    if np.isscalar(counts):
        return np.full(pages.shape, int(counts), dtype=np.int64)
    return np.asarray(counts, dtype=np.int64)


class WaveBuilder:
    """Accumulates read/write page sets into a single :class:`Wave`."""

    def __init__(self) -> None:
        self._pages: list[np.ndarray] = []
        self._writes: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []

    def read(self, pages: np.ndarray,
             counts: np.ndarray | int | None = None) -> "WaveBuilder":
        """Append read accesses (``counts`` accesses per page entry)."""
        return self._append(pages, counts, write=False)

    def write(self, pages: np.ndarray,
              counts: np.ndarray | int | None = None) -> "WaveBuilder":
        """Append write accesses (``counts`` accesses per page entry)."""
        return self._append(pages, counts, write=True)

    def _append(self, pages: np.ndarray, counts: np.ndarray | int | None,
                write: bool) -> "WaveBuilder":
        pages = np.asarray(pages, dtype=np.int64)
        self._pages.append(pages)
        self._writes.append(np.ones(pages.shape, dtype=bool) if write
                            else np.zeros(pages.shape, dtype=bool))
        c = _broadcast_counts(counts, pages)
        self._counts.append(default_counts(pages.size) if c is None else c)
        return self

    def build(self, compute_cycles: float | None = None,
              compute_per_access: float | None = None) -> Wave:
        """Materialize the wave (empty builder yields an empty wave).

        ``compute_per_access`` derives the wave's compute time from its
        access count -- the workload's arithmetic intensity (a stencil
        burns far more ALU cycles per access than a pointer chase).
        Mutually exclusive with an absolute ``compute_cycles``.
        """
        if compute_cycles is not None and compute_per_access is not None:
            raise ValueError(
                "pass either compute_cycles or compute_per_access, not both")
        if not self._pages:
            return Wave(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
                        None, compute_cycles)
        wave = Wave(np.concatenate(self._pages),
                    np.concatenate(self._writes),
                    np.concatenate(self._counts), compute_cycles)
        if compute_per_access is not None:
            wave.compute_cycles = compute_per_access * wave.n_accesses
        return wave


@dataclass
class KernelLaunch:
    """One kernel invocation: a named, lazily generated stream of waves."""

    name: str
    iteration: int
    wave_source: Callable[[], Iterable[Wave]] = field(repr=False)

    def waves(self) -> Iterator[Wave]:
        """Yield the kernel's waves in program order."""
        yield from self.wave_source()


class Workload(ABC):
    """One benchmark: allocations plus a kernel stream."""

    #: Benchmark name as used in the paper's figures (e.g. ``"sssp"``).
    name: str = "workload"
    #: Regular or irregular (Section III-B characterization).
    category: Category = Category.REGULAR

    def __init__(self) -> None:
        self._vas: VirtualAddressSpace | None = None
        self._allocations: dict[str, ManagedAllocation] = {}

    # -- construction ----------------------------------------------------

    def build(self, vas: VirtualAddressSpace, rng: np.random.Generator) -> None:
        """Allocate managed memory and precompute inputs."""
        self._vas = vas
        self._allocate(vas, rng)

    @abstractmethod
    def _allocate(self, vas: VirtualAddressSpace,
                  rng: np.random.Generator) -> None:
        """Subclass hook: perform the managed allocations."""

    def _register(self, alloc: ManagedAllocation) -> ManagedAllocation:
        """Track an allocation under its name for later lookup."""
        self._allocations[alloc.name] = alloc
        return alloc

    # -- queries ----------------------------------------------------------

    @property
    def allocations(self) -> dict[str, ManagedAllocation]:
        """Allocations by name (populated by :meth:`build`)."""
        return dict(self._allocations)

    @property
    def footprint_bytes(self) -> int:
        """Total rounded bytes of this workload's allocations."""
        return sum(a.rounded_bytes for a in self._allocations.values())

    # -- execution ---------------------------------------------------------

    @abstractmethod
    def kernels(self) -> Iterator[KernelLaunch]:
        """Yield kernel launches in program order."""


def chunked(indices: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Split an index array into consecutive waves of at most ``size``."""
    if size <= 0:
        raise ValueError("wave size must be positive")
    for start in range(0, indices.size, size):
        yield indices[start:start + size]
