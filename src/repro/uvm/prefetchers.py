"""Prefetch strategies: the tree prefetcher and the baselines it beat.

The paper's background (Section II-B) credits the CUDA tree-based
prefetcher as the best of the prefetchers studied by Zheng et al. and
Ganguly et al.  This module provides that prefetcher plus the simpler
strategies those works compared against, so the choice can be ablated:

* :class:`TreePrefetchStrategy` -- the default; the >50% balancing
  heuristic over each chunk's full binary tree.
* :class:`NoPrefetchStrategy` -- pure fault-driven 64KB migration.
* :class:`SequentialPrefetchStrategy` -- migrate the next
  :data:`PREFETCH_DEGREE` absent blocks after the faulting one (within
  the chunk).
* :class:`RandomPrefetchStrategy` -- migrate :data:`PREFETCH_DEGREE`
  random absent blocks of the chunk (a deliberately poor spatial
  predictor).

Every strategy operates on the chunk's :class:`PrefetchTree`, which
doubles as the chunk residency index, so occupancy bookkeeping stays
identical across strategies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .tree import PrefetchTree

#: Blocks the sequential and random prefetchers pull per fault.
PREFETCH_DEGREE = 4


class PrefetchStrategy(ABC):
    """Decides which absent leaves to pull in alongside a faulting one."""

    @abstractmethod
    def on_fault(self, tree: PrefetchTree, leaf: int) -> np.ndarray:
        """Install ``leaf`` and return the extra leaves prefetched.

        Implementations must mark every returned leaf resident in
        ``tree`` before returning.
        """


class TreePrefetchStrategy(PrefetchStrategy):
    """The CUDA driver's tree-based neighborhood prefetcher."""

    def on_fault(self, tree, leaf):
        return tree.on_fault(leaf)


class NoPrefetchStrategy(PrefetchStrategy):
    """Fault-driven migration only."""

    def on_fault(self, tree, leaf):
        tree.mark_resident(leaf)
        return np.empty(0, dtype=np.int64)


class SequentialPrefetchStrategy(PrefetchStrategy):
    """Prefetch the next :data:`PREFETCH_DEGREE` absent leaves after the
    fault."""

    def on_fault(self, tree, leaf):
        tree.mark_resident(leaf)
        picked = []
        for cand in range(leaf + 1, tree.num_leaves):
            if len(picked) == PREFETCH_DEGREE:
                break
            if not tree.is_resident(cand):
                tree.mark_resident(cand)
                picked.append(cand)
        return np.array(picked, dtype=np.int64)


class RandomPrefetchStrategy(PrefetchStrategy):
    """Prefetch :data:`PREFETCH_DEGREE` random absent leaves of the
    chunk."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def on_fault(self, tree, leaf):
        tree.mark_resident(leaf)
        absent = np.array([l for l in range(tree.num_leaves)
                           if not tree.is_resident(l)], dtype=np.int64)
        if absent.size == 0:
            return absent
        n = min(PREFETCH_DEGREE, absent.size)
        picked = self._rng.choice(absent, size=n, replace=False)
        for l in picked:
            tree.mark_resident(int(l))
        return np.sort(picked)


def make_prefetcher(kind: str, seed: int = 0) -> PrefetchStrategy:
    """Build a strategy by name: tree / none / sequential / random."""
    if kind == "tree":
        return TreePrefetchStrategy()
    if kind == "none":
        return NoPrefetchStrategy()
    if kind == "sequential":
        return SequentialPrefetchStrategy()
    if kind == "random":
        return RandomPrefetchStrategy(seed)
    raise ValueError(f"unknown prefetcher kind {kind!r}")
