"""sssp (LonestarGPU): worklist-based single-source shortest paths.

The paper's running irregular example (Figures 2b, 3c/3d).  Each round
launches two kernels:

* ``kernel1`` relaxes the outgoing edges of the current worklist --
  sparse, input-dependent reads of the large read-only CSR arrays and
  scattered writes into the distance array; the pages touched shift
  drastically between rounds (Figure 3c/3d, kernel1);
* ``kernel2`` densely sweeps the small distance/flag arrays to build the
  next worklist -- the hot, sequential, read-write component (kernel2 in
  the same figures).

This hot/cold split -- cold read-only edge data vs. hot read-write
distance data -- is exactly the structure Figure 2b visualizes.  The
relaxation is computed for real (Bellman-Ford with a worklist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Category, KernelLaunch, Wave, WaveBuilder, Workload
from .graphs import CsrGraph, make_graph
from .util import (SECTORS_PER_PAGE, coalesced_page_offsets_batch,
                   edge_sectors, launch_waves, ragged_ranges, sort_rows)


@dataclass(frozen=True)
class SsspParams:
    """Graph dimensions and round cap for sssp."""

    num_nodes: int = 1 << 18
    avg_degree: float = 8.0
    skew: float = 0.25
    worklist_per_wave: int = 1024
    #: LonestarGPU-style chunked worklist: at most this many nodes are
    #: relaxed per round; the remainder is deferred, so each round's
    #: kernel1 touches a bounded, scattered subset of the edge arrays.
    max_worklist: int = 8192
    #: Upper bound on relaxation rounds (the access pattern stabilizes
    #: long before convergence on these graphs).
    max_rounds: int = 48
    #: Arithmetic intensity: effective compute cycles per coalesced
    #: access (relaxation arithmetic plus atomic-min contention).
    compute_per_access: float = 3.0


PRESETS: dict[str, SsspParams] = {
    "tiny": SsspParams(num_nodes=1 << 16, worklist_per_wave=512,
                       max_rounds=6),
    "small": SsspParams(num_nodes=1 << 18),
    "medium": SsspParams(num_nodes=1 << 20),
}


class Sssp(Workload):
    """Two-kernel worklist Bellman-Ford over a synthetic CSR graph."""

    name = "sssp"
    category = Category.IRREGULAR

    def __init__(self, params: SsspParams | None = None) -> None:
        super().__init__()
        self.params = params or SsspParams()
        self.graph: CsrGraph | None = None

    def _allocate(self, vas, rng) -> None:
        p = self.params
        self.graph = make_graph(p.num_nodes, p.avg_degree, rng,
                                skew=p.skew, weighted=True)
        self._rng = np.random.default_rng(rng.integers(0, 2**63))
        self._sweep: list[Wave] | None = None
        n, m = self.graph.num_nodes, self.graph.num_edges
        self.nodes = self._register(
            vas.malloc_managed("sssp.nodes", n * 8, read_only=True))
        # LonestarGPU CSR uses 64-bit edge records and weights.
        self.edges = self._register(
            vas.malloc_managed("sssp.edges", m * 8, read_only=True))
        self.weights = self._register(
            vas.malloc_managed("sssp.weights", m * 8, read_only=True))
        self.dist = self._register(
            vas.malloc_managed("sssp.dist", n * 4))
        self.dist_old = self._register(
            vas.malloc_managed("sssp.dist_old", n * 4))
        self.wl_flags = self._register(
            vas.malloc_managed("sssp.flags", n * 4))

    # -- kernel 1: sparse relaxation --------------------------------------

    def _relax_waves(self, worklist: np.ndarray, bounds: np.ndarray,
                     starts: np.ndarray, degrees: np.ndarray,
                     nbrs: np.ndarray, nbounds: np.ndarray) -> Iterator[Wave]:
        """Accesses of one relaxation round: every wave in one pass.

        Wave ``r`` relaxes ``worklist[bounds[r]:bounds[r + 1]]``
        (sorted), whose edge records start at ``starts`` and number
        ``degrees``, into ``nbrs[nbounds[r]:nbounds[r + 1]]``, the
        round's edge gather that :meth:`kernels` also relaxes.  Each
        access group is coalesced for all waves at once, and the waves
        are slices of the round's flat arrays (``launch_waves``).
        """
        # Scattered relaxation: read old distance, maybe write new.
        # Coalesced first, while nothing else is held: its temporaries
        # are the round's largest.
        trel, tpc, tpb = coalesced_page_offsets_batch(nbrs, nbounds, 4)
        npg, npc, npb = coalesced_page_offsets_batch(worklist, bounds, 8)
        dpg, dpc, dpb = coalesced_page_offsets_batch(worklist, bounds, 4)
        # edges and weights are parallel 8-byte-per-edge arrays: the
        # gather hits the same page offsets in both, so coalesce once
        # and rebase per allocation.
        erel, epc, epb = coalesced_page_offsets_batch(
            *edge_sectors(starts, degrees, bounds))
        yield from launch_waves([
            (self.nodes, npg, npc, npb, False),
            (self.dist, dpg, dpc, dpb, False),
            (self.edges, erel, epc, epb, False),
            (self.weights, erel, epc, epb, False),
            (self.dist, trel, tpc, tpb, False),
            (self.dist, trel, np.maximum(tpc // 2, 1), tpb, True),
        ], self.params.compute_per_access)

    # -- kernel 2: dense worklist rebuild ----------------------------------

    def _sweep_waves(self) -> Iterator[Wave]:
        """The dense sweep: the same waves every round.

        Their arrays are built on first use and kept read-only; each
        round gets fresh :class:`Wave` objects over them.
        """
        if self._sweep is None:
            p = self.params
            bytes_total = self.dist.requested_bytes
            step = p.worklist_per_wave * 64  # bytes per wave
            self._sweep = []
            for lo in range(0, bytes_total, step):
                hi = min(lo + step, bytes_total)
                wb = WaveBuilder()
                wb.read(self.dist.page_range(lo, hi), SECTORS_PER_PAGE)
                wb.read(self.dist_old.page_range(lo, hi), SECTORS_PER_PAGE)
                wb.write(self.dist_old.page_range(lo, hi), SECTORS_PER_PAGE)
                wb.write(self.wl_flags.page_range(lo, hi), SECTORS_PER_PAGE)
                w = wb.build(compute_per_access=p.compute_per_access)
                for arr in (w.pages, w.is_write, w.counts):
                    arr.flags.writeable = False
                self._sweep.append(w)
        for w in self._sweep:
            yield Wave(w.pages, w.is_write, w.counts, w.compute_cycles)

    def kernels(self) -> Iterator[KernelLaunch]:
        g, p = self.graph, self.params
        dist = np.full(g.num_nodes, np.inf, dtype=np.float64)
        dist[0] = 0.0
        # Pending nodes awaiting relaxation, processed in bounded,
        # unordered chunks like a LonestarGPU worklist: ``pending`` in
        # processing order, ``queued`` as a mask over node ids.
        pending = np.array([0], dtype=np.int64)
        queued = np.zeros(g.num_nodes, dtype=bool)
        queued[0] = True
        for rnd in range(p.max_rounds):
            if pending.size == 0:
                break
            # One sort per round: each wave's worklist slice, sorted, is
            # the node set its coalesced reads see, and gathering the
            # edges in that order leaves each wave's edge records in
            # ascending order.  Relaxation is order-free (a minimum).
            head = pending[:p.max_worklist]
            worklist, bounds = sort_rows(head, p.worklist_per_wave)
            # Each worklist node's edge offset and degree, read off the
            # CSR pointers once for the relaxation and the edge reads.
            starts = g.ptr[worklist]
            wdeg = g.ptr[worklist + 1] - starts
            eidx = ragged_ranges(starts, wdeg)
            nbrs = g.dst[eidx]
            ecum = np.zeros(worklist.size + 1, dtype=np.int64)
            np.cumsum(wdeg, out=ecum[1:])
            yield KernelLaunch(
                "sssp.kernel1", rnd,
                lambda wl=worklist, b=bounds, s=starts, d=wdeg, nb=nbrs,
                eb=ecum[bounds]: self._relax_waves(wl, b, s, d, nb, eb))
            # Perform the actual relaxation to derive the next worklist:
            # the deferred tail, which stays queued, and the nodes whose
            # distance improved.  flatnonzero of the mask yields them as
            # sorted unique ids without sorting the edge gather.
            queued[head] = False
            if eidx.size:
                cand = np.repeat(dist[worklist], wdeg)
                cand += g.weights[eidx]
                # A target improves iff some candidate beats its
                # pre-update distance, so the improved targets are the
                # nodes whose distance fell.
                before = dist.copy()
                np.minimum.at(dist, nbrs, cand)
                queued |= dist < before
            yield KernelLaunch("sssp.kernel2", rnd, self._sweep_waves)
            # Worklists are unordered on the GPU: process in scattered
            # order (permutation draws depend only on the size, so this
            # is bit-identical to permuting the union1d result).
            pending = self._rng.permutation(np.flatnonzero(queued))
