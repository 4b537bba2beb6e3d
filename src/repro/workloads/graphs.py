"""Synthetic graph inputs for the irregular workloads (bfs, sssp).

The paper's irregular benchmarks come from Rodinia and LonestarGPU and
run on large sparse graphs.  We generate comparable inputs: a random
CSR graph whose destinations are skewed toward hub nodes (power-law-ish,
R-MAT flavored).  The skew matters: it concentrates accesses on a few
hot pages, the hot/cold split Figure 2b visualizes.

A graph holds only what its workload reads: sssp's graph carries edge
weights, bfs's (Rodinia's bfs is unweighted) does not, and both draw
from one generator stream, so a bfs traversal seeded after the build
sees the same generator state either way.

Every build draws its graph afresh: runs that share a stream share one
recording of it (:mod:`repro.trace`), as a grid and ``repro compare``
do, rather than a cached graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CsrGraph:
    """Compressed sparse row adjacency, with edge weights if weighted."""

    ptr: np.ndarray     # int64, shape (n+1,)
    dst: np.ndarray     # int32, shape (m,)
    weights: np.ndarray | None  # float32, shape (m,); None if unweighted

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return self.ptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.dst.size

    def degrees(self) -> np.ndarray:
        """Out-degree per node."""
        return np.diff(self.ptr)

    def validate(self) -> None:
        """Check CSR structural invariants (used by tests)."""
        if self.ptr[0] != 0 or self.ptr[-1] != self.dst.size:
            raise AssertionError("CSR pointer array endpoints invalid")
        if np.any(np.diff(self.ptr) < 0):
            raise AssertionError("CSR pointers must be nondecreasing")
        if self.dst.size and (self.dst.min() < 0
                              or self.dst.max() >= self.num_nodes):
            raise AssertionError("edge destination out of range")
        if self.weights is not None and self.weights.shape != self.dst.shape:
            raise AssertionError("weights must parallel destinations")


#: Edges whose destinations are drawn per block.  A block's float64
#: draws and int64 ids are its only per-edge temporaries (512 KiB each),
#: whatever the graph's size.
_EDGE_BLOCK = 1 << 16


def random_graph(num_nodes: int, avg_degree: float,
                 rng: np.random.Generator, skew: float = 0.0,
                 weighted: bool = True) -> CsrGraph:
    """Generate a random directed CSR graph.

    ``skew`` in [0, 1) biases destinations toward low node ids with a
    power-law-like distribution (0 = uniform), mimicking the hub
    structure of R-MAT/social graphs.  The first edge of every node
    points to the next node id: that chain lets BFS/SSSP from node 0
    reach everything regardless of the random part.

    ``weighted=False`` builds no edge weights (``weights is None``) but
    leaves ``rng`` in the state the weight draws would have: the
    structure and every later draw are those of the weighted graph.
    """
    if num_nodes < 2:
        raise ValueError("graph needs at least two nodes")
    if avg_degree < 1.0:
        raise ValueError("average degree must be >= 1")
    if not 0.0 <= skew < 1.0:
        raise ValueError("skew must be in [0, 1)")

    # Random out-degrees with the requested mean (at least the chain edge).
    degrees = rng.poisson(avg_degree - 1.0, size=num_nodes)
    degrees += 1
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=ptr[1:])
    del degrees
    m = int(ptr[-1])

    # Destinations go straight into the final int32 array, a block at a
    # time.  A float64 draw takes one generator output and a bounded
    # integer draw one 32-bit half, in one call or many, so the blocks
    # draw the stream a single call would.
    dst = np.empty(m, dtype=np.int32)
    alpha = 1.0 - skew
    for lo in range(0, m, _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, m)
        if skew > 0.0:
            # Inverse-CDF sampling of a truncated power law over node
            # ids.  The arithmetic runs in place on one array per dtype.
            u = rng.random(hi - lo)
            np.power(u, 1.0 / alpha, out=u)
            u *= num_nodes
            ids = u.astype(np.int64)
            del u
            np.minimum(ids, num_nodes - 1, out=ids)
            # Scatter hubs across the id space so hot pages are not one
            # run.
            ids *= 2654435761
            if num_nodes & (num_nodes - 1):
                ids %= num_nodes
            else:
                ids &= num_nodes - 1
            dst[lo:hi] = ids
        else:
            dst[lo:hi] = rng.integers(0, num_nodes, size=hi - lo,
                                      dtype=np.int32)
    dst[ptr[:-1]] = (np.arange(num_nodes, dtype=np.int64) + 1) % num_nodes

    if not weighted:
        skip_float32_draws(rng, m)
        return CsrGraph(ptr=ptr, dst=dst, weights=None)
    weights = rng.random(m, dtype=np.float32)
    weights *= 99.0
    weights += 1.0
    return CsrGraph(ptr=ptr, dst=dst, weights=weights)


def skip_float32_draws(rng: np.random.Generator, n: int) -> None:
    """Leave ``rng`` as ``rng.random(n, dtype=np.float32)`` would.

    Each float32 draw takes one 32-bit half of a 64-bit PCG64 output:
    the low half of a fresh output, whose high half waits in the
    generator's buffer (``has_uint32``, ``uinteger``) for the next
    draw.  So ``n`` draws use the buffered half, if any, then the
    outputs that hold the rest; the last of those sets the buffer.  The
    generator jumps over all but that last output (``advance``) and
    takes it (``random_raw``), in O(log n) time.  Only PCG64 is
    supported, and anything else raises ``TypeError``.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"cannot skip draws of {type(bitgen).__name__}; "
                        "expected PCG64")
    if n < 0:
        raise ValueError("draw count cannot be negative")
    state = bitgen.state
    fresh = n - state["has_uint32"] if n else 0
    if fresh > 0:
        bitgen.advance((fresh - 1) // 2)
        last = int(bitgen.random_raw())
        state = bitgen.state
        state["uinteger"] = last >> 32
        state["has_uint32"] = fresh & 1
    elif n:
        # One draw, taken from the buffer.
        state["has_uint32"] = 0
    bitgen.state = state
