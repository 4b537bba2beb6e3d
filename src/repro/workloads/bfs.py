"""bfs (Rodinia): level-synchronous breadth-first search.

Irregular workload: each level reads the CSR node offsets of the current
frontier, gathers the (scattered) adjacency lists from the large
read-only edge array, and updates the small cost/flags arrays at random
neighbor positions.  Which edge pages a level touches depends entirely
on the input graph -- the statically unpredictable access irregularity
of Section I.  The cost/flags arrays are hot; the edge array is cold
with page-level reuse *across* levels, which is what thrashes under
first-touch migration and a strict memory budget.

The traversal is computed for real on the generated graph; waves are the
accesses that traversal performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Category, KernelLaunch, Wave, Workload
from .graphs import CsrGraph, make_graph
from .util import (coalesced_page_offsets_batch, edge_sectors, launch_waves,
                   ragged_ranges, sort_rows)


@dataclass(frozen=True)
class BfsParams:
    """Graph dimensions for bfs."""

    num_nodes: int = 1 << 19
    avg_degree: float = 8.0
    skew: float = 0.25
    frontier_per_wave: int = 2048
    #: Arithmetic intensity: effective compute cycles per coalesced
    #: access (traversal logic plus atomics and divergence stalls).
    compute_per_access: float = 6.0


PRESETS: dict[str, BfsParams] = {
    "tiny": BfsParams(num_nodes=1 << 17, frontier_per_wave=1024),
    "small": BfsParams(num_nodes=1 << 19),
    "medium": BfsParams(num_nodes=1 << 21),
}


class Bfs(Workload):
    """Frontier-expansion BFS over a synthetic CSR graph."""

    name = "bfs"
    category = Category.IRREGULAR

    def __init__(self, params: BfsParams | None = None) -> None:
        super().__init__()
        self.params = params or BfsParams()
        self.graph: CsrGraph | None = None

    def _allocate(self, vas, rng) -> None:
        p = self.params
        # Rodinia's bfs reads no edge weights, so its graph has none.
        self.graph = make_graph(p.num_nodes, p.avg_degree, rng,
                                skew=p.skew, weighted=False)
        self._rng = np.random.default_rng(rng.integers(0, 2**63))
        n, m = self.graph.num_nodes, self.graph.num_edges
        # Lonestar-style layout: per-node {start, degree} struct, 64-bit
        # edge records, plus cost and visited/mask flags.
        self.nodes = self._register(
            vas.malloc_managed("bfs.nodes", n * 8, read_only=True))
        self.edges = self._register(
            vas.malloc_managed("bfs.edges", m * 8, read_only=True))
        self.cost = self._register(
            vas.malloc_managed("bfs.cost", n * 4))
        self.flags = self._register(
            vas.malloc_managed("bfs.flags", n * 4))

    def _level_waves(self, nodes: np.ndarray, bounds: np.ndarray,
                     starts: np.ndarray, degrees: np.ndarray,
                     nbrs: np.ndarray, nbounds: np.ndarray) -> Iterator[Wave]:
        """Accesses of one BFS level: every wave in one vectorised pass.

        Wave ``r`` expands ``nodes[bounds[r]:bounds[r + 1]]`` (sorted),
        whose edge records start at ``starts`` and number ``degrees``,
        and writes their neighbours ``nbrs[nbounds[r]:nbounds[r + 1]]``,
        the level's edge gather that :meth:`kernels` also traverses.
        Each access group is coalesced for all waves at once, and the
        waves are slices of the level's flat arrays (``launch_waves``).
        """
        # The neighbour writes first, while nothing else is held: theirs
        # are the level's largest temporaries.  cost and flags are
        # parallel 4-byte-per-node arrays, so the scattered writes land
        # on the same page offsets in both: coalesce once, rebase twice.
        rel, rc, rb = coalesced_page_offsets_batch(nbrs, nbounds, 4)
        npg, npc, npb = coalesced_page_offsets_batch(nodes, bounds, 8)
        fpg, fpc, fpb = coalesced_page_offsets_batch(nodes, bounds, 4)
        epg, epc, epb = coalesced_page_offsets_batch(
            *edge_sectors(starts, degrees, bounds))
        yield from launch_waves([
            (self.nodes, npg, npc, npb, False),
            (self.flags, fpg, fpc, fpb, False),
            (self.edges, epg, epc, epb, False),
            (self.cost, rel, rc, rb, True),
            (self.flags, rel, rc, rb, True),
        ], self.params.compute_per_access)

    def kernels(self) -> Iterator[KernelLaunch]:
        g, p = self.graph, self.params
        visited = np.zeros(g.num_nodes, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        level = 0
        while frontier.size:
            # One sort per level: each wave's frontier slice, sorted, is
            # the node set its coalesced reads see, and gathering the
            # edges in that order leaves each wave's edge records in
            # ascending order.
            nodes, bounds = sort_rows(frontier, p.frontier_per_wave)
            # Each frontier node's edge offset and degree, read off the
            # CSR pointers once for the traversal and the edge reads.
            starts = g.ptr[nodes]
            fdeg = g.ptr[nodes + 1] - starts
            nbrs = g.dst[ragged_ranges(starts, fdeg)]
            ecum = np.zeros(nodes.size + 1, dtype=np.int64)
            np.cumsum(fdeg, out=ecum[1:])
            yield KernelLaunch(
                "bfs.kernel", level,
                lambda n=nodes, b=bounds, s=starts, d=fdeg, nb=nbrs,
                eb=ecum[bounds]: self._level_waves(n, b, s, d, nb, eb))
            # Dedup + visited filter as one boolean scatter instead of
            # np.unique (which sorts the whole edge gather): flatnonzero
            # of the mask yields the same sorted unique node ids.
            reached = np.zeros(g.num_nodes, dtype=bool)
            reached[nbrs] = True
            found = np.flatnonzero(reached & ~visited)
            visited[found] = True
            # GPU worklists are unordered: neighbors are discovered in
            # whatever order threads win the visited-flag race, so the
            # next frontier is processed in scattered, not sorted, order.
            frontier = self._rng.permutation(found)
            level += 1
