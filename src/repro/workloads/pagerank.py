"""pagerank (extended suite; Pannotia-style graph analytics).

Not part of the paper's eight benchmarks -- included to show the
framework generalizes to the wider irregular-analytics class the
introduction motivates (the Pannotia suite the related work cites).

Power iteration over a CSR graph: every sweep reads the rank of each
node's in-neighbors (scattered gather over the large, read-only graph
structure) and writes the next rank vector densely.  Like sssp it has
a hot/cold split (rank vectors hot, edges cold), but unlike sssp every
iteration touches *all* edges -- denser cold traffic, so the adaptive
scheme must rely on round-trip hardening rather than sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Category, KernelLaunch, Wave, WaveBuilder, Workload
from .graphs import CsrGraph, make_graph
from .util import SECTORS_PER_PAGE, coalesced_pages, ragged_ranges


@dataclass(frozen=True)
class PagerankParams:
    """Graph dimensions and iteration count for pagerank."""

    num_nodes: int = 1 << 17
    avg_degree: float = 8.0
    skew: float = 0.3
    graph_kind: str = "random"
    iterations: int = 4
    nodes_per_wave: int = 2048
    #: Arithmetic intensity: compute cycles per coalesced access.
    compute_per_access: float = 2.0


PRESETS: dict[str, PagerankParams] = {
    "tiny": PagerankParams(num_nodes=1 << 17, iterations=3,
                           nodes_per_wave=1024),
    "small": PagerankParams(num_nodes=1 << 17),
    "medium": PagerankParams(num_nodes=1 << 19),
}


class Pagerank(Workload):
    """Power iteration: scattered rank gathers, dense rank updates."""

    name = "pagerank"
    category = Category.IRREGULAR

    def __init__(self, params: PagerankParams | None = None) -> None:
        super().__init__()
        self.params = params or PagerankParams()
        self.graph: CsrGraph | None = None

    def _allocate(self, vas, rng) -> None:
        p = self.params
        self.graph = make_graph(p.graph_kind, p.num_nodes, p.avg_degree,
                                rng, skew=p.skew)
        # The node count is the graph's: ``grid`` and ``rmat`` round the
        # requested one.
        n, m = self.graph.num_nodes, self.graph.num_edges
        self.nodes = self._register(vas.malloc_managed(
            "pagerank.nodes", n * 8, read_only=True))
        self.edges = self._register(vas.malloc_managed(
            "pagerank.edges", m * 8, read_only=True))
        self.rank = self._register(vas.malloc_managed(
            "pagerank.rank", n * 4))
        self.rank_next = self._register(vas.malloc_managed(
            "pagerank.rank_next", n * 4))
        self._order = np.random.default_rng(
            rng.integers(0, 2**63)).permutation(n).astype(np.int64)

    def _sweep(self) -> Iterator[Wave]:
        """One power iteration, chunked into waves of nodes.

        Nodes are processed in scattered (GPU worklist) order.
        """
        g, p = self.graph, self.params
        deg = g.degrees()
        for c0 in range(0, g.num_nodes, p.nodes_per_wave):
            nodes = self._order[c0:c0 + p.nodes_per_wave]
            eidx = ragged_ranges(g.ptr[nodes], deg[nodes])
            wb = WaveBuilder()
            npg, npc = coalesced_pages(self.nodes, nodes * 8)
            wb.read(npg, npc)
            if eidx.size:
                epg, epc = coalesced_pages(self.edges, eidx * 8)
                wb.read(epg, epc)
                nbrs = g.dst[eidx].astype(np.int64)
                rpg, rpc = coalesced_pages(self.rank, nbrs * 4)
                wb.read(rpg, rpc)
            wpg, wpc = coalesced_pages(self.rank_next, nodes * 4)
            wb.write(wpg, wpc)
            yield wb.build(compute_per_access=p.compute_per_access)

    def _swap(self) -> Iterator[Wave]:
        """Dense rank-vector swap/normalization kernel."""
        p = self.params
        total = self.graph.num_nodes * 4
        step = p.nodes_per_wave * 64
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            wb = WaveBuilder()
            wb.read(self.rank_next.page_range(lo, hi), SECTORS_PER_PAGE)
            wb.write(self.rank.page_range(lo, hi), SECTORS_PER_PAGE)
            yield wb.build(compute_per_access=p.compute_per_access)

    def kernels(self) -> Iterator[KernelLaunch]:
        for it in range(self.params.iterations):
            yield KernelLaunch("pagerank.gather", it, self._sweep)
            yield KernelLaunch("pagerank.swap", it, self._swap)
