"""Reference implementations the property suites check production against.

Production runs one path per layer: the driver always takes the
resident fast path and drains migrations through chunk-grouped bulk
installs.  The simpler paths those replaced live here, as test oracles
only:

* :class:`ReferenceDriver` runs every wave through the full pipeline
  (no resident fast path), whether it comes grouped from a trace or
  not, and drains migrations one block at a time: its
  ``_migrate_block`` makes room for, prefetches around and installs
  each fault block on its own, where production's drain batches the
  installs and flushes them in one pass.  It chooses victims with
  :func:`reference_select_victims`, fed a per-wave cached LRU order or
  LFU heat and dirty flags computed from scratch at every choice (where
  production builds one victim key per wave and keeps it current), and
  its chunks are :class:`ReferenceTree` instances.  Its batches
  run production's
  :meth:`~repro.uvm.driver.UvmDriver.process_wave_batch`, the same
  per-wave loop over its own pipeline.
* :func:`reference_select_victims` walks the fallback tiers (unpinned
  full, unpinned partial, pinned) one after another, each with its own
  mask, where production's ``select_victims`` sorts one composite key.
* :class:`ReferenceTree` keeps the heap of per-node occupancy counts
  that mirrors the hardware structure and runs the >50% balancing walk
  over it on every fault, where production's ``PrefetchTree`` holds a
  leaf bitmask and memoizes the walk.
* :func:`reference_session` runs a :class:`~repro.serve.ServeSession`
  on a :class:`ReferenceDriver`, so serve output can be compared with
  a session whose every wave takes the full pipeline.
* :class:`ReferenceBfs` and :class:`ReferenceSssp` generate bfs and sssp
  waves one at a time -- a sort and four coalescing calls
  (:func:`coalesced_pages`) per wave, and sssp's sweep rebuilt every
  round -- where production coalesces a whole BFS level or SSSP round in
  one pass.  They reuse production's allocations, graph and traversal
  RNG, but not its traversal: degrees come from ``graph.degrees()``,
  each round builds a zeroed next mask from the deferred tail and the
  improved targets, and sssp finds those by comparing candidates against
  ``dist[nbrs]`` (production reads edge offsets and degrees off the CSR
  pointers per level, keeps one pending mask across rounds and compares
  ``dist`` with a copy of itself).
* :func:`reference_random_graph` is the uniform/skewed CSR generator
  as first written: one call draws all destinations, one temporary
  per arithmetic step, and an unweighted graph draws its weights and
  discards them.  Production's ``random_graph`` draws destinations in
  blocks into the final int32 array, does the arithmetic in place,
  and skips an unweighted graph's weight draws by advancing the
  generator.
* :func:`dynamic_thresholds_oversub` is Equation 1's second branch in
  validated form, where production's ``eq1_thresholds`` computes both
  branches per wave without checks.

:class:`ReferenceDriver` overrides the private driver methods of the
far-fault path beyond its pipeline:
:meth:`UvmDriver._handle_far_accesses`, which it runs on the full
decision arrays for every policy (production sends a first-touch wave
straight to the drain); :meth:`UvmDriver._drain_migrations`, with
:meth:`ReferenceDriver._drain_migrations_scalar`, which tests residency
in the residency map (production reads each chunk's tree mask);
:meth:`UvmDriver._install`, with all five per-block writes
(production writes four arrays and leaves the dirty bits as it finds
them, clear); and the eviction path,
:meth:`UvmDriver._make_room`, to call the reference selector.
"""

from __future__ import annotations

import operator
from unittest import mock

import numpy as np

import repro.serve.session as serve_session
from repro.accel import kernels
from repro.config import EvictionGranularity, ReplacementPolicy
from repro.obs.events import MigrationDecision, PrefetchExpand
from repro.uvm.driver import UvmDriver, WaveOutcome, group_wave
from repro.uvm.tree import _NO_PREFETCH
from repro.workloads.base import KernelLaunch, WaveBuilder
from repro.workloads.bfs import Bfs
from repro.workloads.graphs import CsrGraph
from repro.workloads.sssp import Sssp
from repro.workloads.util import (SECTORS_PER_PAGE, coalesced_page_offsets,
                                  ragged_ranges)


_I64_MAX = np.int64(np.iinfo(np.int64).max)


def _order_key(directory, policy, heat, dirty_any) -> np.ndarray:
    """Per-chunk ordering key, smallest evicts first: ``last_touch`` for
    LRU; for LFU the heat bucket, then clean before dirty, then
    ``last_touch``, packed into one int64."""
    if policy is not ReplacementPolicy.LFU:
        return directory.last_touch
    if heat is None or dirty_any is None:
        raise ValueError("LFU selection needs heat and dirty information")
    return ((heat << 33) | (dirty_any.astype(np.int64) << 32)
            | directory.last_touch)


def reference_select_victims(directory, needed_blocks, policy, pinned,
                             heat=None, dirty_any=None, never=None,
                             order=None) -> list[int]:
    """Victim selection as a cascade over the fallback tiers.

    ``heat`` holds each chunk's LFU heat bucket and ``dirty_any``
    whether any of its resident blocks is dirty (LFU only).  ``never``
    is a per-chunk mask of chunks that are never victims, and ``order``
    optionally a precomputed stable argsort of the ordering key (the LRU
    order a driver caches per wave).  Picks what
    :func:`repro.uvm.eviction.select_victims` picks from the
    directory's composite key, or fails with the same error.
    """
    if needed_blocks <= 0:
        return []
    occ = directory.occupancy
    populated = occ > 0
    if never is not None:
        populated = populated & ~never
    full = occ == directory.num_blocks

    if needed_blocks == 1:
        key = _order_key(directory, policy, heat, dirty_any)
        unpinned = populated & ~pinned
        tier = unpinned & full
        if not tier.any():
            tier = unpinned
            if not tier.any():
                tier = populated
                if not tier.any():
                    raise RuntimeError("cannot free 1 block: nothing resident")
        return [int(np.argmin(np.where(tier, key, _I64_MAX)))]

    if order is None:
        key = _order_key(directory, policy, heat, dirty_any)
        order = np.argsort(key, kind="stable")
    victims: list[int] = []
    chosen = np.zeros(directory.num_chunks, dtype=bool)
    freed = 0
    for tier_mask in (populated & full & ~pinned,
                      populated & ~pinned,
                      populated):
        if freed >= needed_blocks:
            break
        cands = order[(tier_mask & ~chosen)[order]]
        if cands.size == 0:
            continue
        cum = freed + np.cumsum(occ[cands])
        cut = int(np.searchsorted(cum, needed_blocks, side="left"))
        take = cands[:min(cut + 1, cands.size)]
        victims.extend(int(c) for c in take)
        chosen[take] = True
        freed = int(cum[take.size - 1])
    if freed < needed_blocks:
        raise RuntimeError(
            f"cannot free {needed_blocks} blocks: only {freed} resident"
        )
    return victims


class ReferenceTree:
    """A prefetch tree kept as a heap of occupancy counts.

    Node ``i`` has children ``2i+1`` and ``2i+2``; the leaves occupy
    heap indices ``[num_leaves-1, 2*num_leaves-1)`` and every internal
    node counts the resident leaves below it, as the hardware structure
    does.  A fault walks the counts from its leaf's parent to the root.
    Same interface and errors as :class:`repro.uvm.tree.PrefetchTree`;
    :attr:`mask` derives that tree's leaf bitmask from the heap.
    """

    def __init__(self, num_leaves: int) -> None:
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise ValueError(
                f"num_leaves must be a power of two, got {num_leaves}")
        self.num_leaves = num_leaves
        self._tree = np.zeros(2 * num_leaves - 1, dtype=np.int32)

    @property
    def mask(self) -> int:
        mask = 0
        for leaf in self.resident_leaves().tolist():
            mask |= 1 << leaf
        return mask

    @property
    def occupancy(self) -> int:
        return int(self._tree[0])

    def resident_leaves(self) -> np.ndarray:
        return np.flatnonzero(self._tree[self.num_leaves - 1:]).astype(
            np.int64)

    def is_resident(self, leaf: int) -> bool:
        self._check_leaf(leaf)
        return bool(self._tree[self.num_leaves - 1 + leaf])

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(
                f"leaf {leaf} outside chunk of {self.num_leaves} leaves")

    def _add(self, leaf: int, delta: int) -> None:
        """Add ``delta`` to a leaf and every ancestor up to the root."""
        node = self.num_leaves - 1 + leaf
        self._tree[node] += delta
        while node:
            node = (node - 1) // 2
            self._tree[node] += delta

    def clear(self) -> None:
        self._tree[:] = 0

    def mark_resident(self, leaf: int) -> None:
        self._check_leaf(leaf)
        if self._tree[self.num_leaves - 1 + leaf]:
            raise RuntimeError(f"leaf {leaf} already resident")
        self._add(leaf, 1)

    def remove(self, leaf: int) -> None:
        self._check_leaf(leaf)
        if not self._tree[self.num_leaves - 1 + leaf]:
            raise RuntimeError(f"leaf {leaf} is not resident")
        self._add(leaf, -1)

    def _batch(self, leaves) -> list[int]:
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.size and (leaves.min() < 0
                            or leaves.max() >= self.num_leaves):
            raise IndexError(
                f"leaves outside chunk of {self.num_leaves} leaves")
        return leaves.tolist()

    def install_leaves(self, leaves) -> None:
        leaves = self._batch(leaves)
        if any(self._tree[self.num_leaves - 1 + leaf] for leaf in leaves):
            raise RuntimeError("bulk install of an already-resident leaf")
        for leaf in leaves:
            self._add(leaf, 1)

    def remove_leaves(self, leaves) -> None:
        leaves = self._batch(leaves)
        if not all(self._tree[self.num_leaves - 1 + leaf]
                   for leaf in leaves):
            raise RuntimeError("bulk removal of a non-resident leaf")
        for leaf in leaves:
            self._add(leaf, -1)

    def on_fault(self, leaf: int) -> np.ndarray:
        leaf = operator.index(leaf)
        self._check_leaf(leaf)
        base = self.num_leaves - 1
        if self._tree[base + leaf]:
            raise RuntimeError(f"leaf {leaf} already resident")
        self._add(leaf, 1)
        prefetched: list[int] = []
        node, span = base + leaf, 1
        while node:
            node = (node - 1) // 2
            span *= 2
            if self._tree[node] > span // 2:
                first = node
                while first < base:
                    first = 2 * first + 1
                for absent in range(first - base, first - base + span):
                    if not self._tree[base + absent]:
                        self._add(absent, 1)
                        prefetched.append(absent)
        if not prefetched:
            return _NO_PREFETCH
        return np.array(prefetched, dtype=np.int64)

    def check_invariants(self) -> None:
        """Internal-node counts equal the sum of their children."""
        tree = self._tree
        for node in range(self.num_leaves - 1):
            if tree[node] != tree[2 * node + 1] + tree[2 * node + 2]:
                raise AssertionError(f"occupancy mismatch at node {node}")
        leaves = tree[self.num_leaves - 1:]
        if not np.all((leaves == 0) | (leaves == 1)):
            raise AssertionError("leaf occupancy must be 0 or 1")


class ReferenceDriver(UvmDriver):
    """The driver without its fast paths: the bit-identity oracle."""

    def __init__(self, vas, config, obs=None) -> None:
        super().__init__(vas, config, obs=obs)
        self.trees = [ReferenceTree(span.num_blocks) for span in vas.chunks]
        # Per-wave LRU victim order: ``last_touch`` only moves at the
        # start of a wave (installs land in chunks the wave touched), so
        # the argsort is computed at most once per wave.
        self._lru_order: np.ndarray | None = None

    def _process_blocks(self, blocks: np.ndarray, is_write: np.ndarray,
                        counts: np.ndarray) -> WaveOutcome:
        """Group the wave, then run the full pipeline: no resident fast
        path over the raw entries."""
        if blocks.size == 0:
            return WaveOutcome(n_accesses=int(counts.sum()))
        return self._process_grouped(
            *group_wave(blocks, is_write, counts))

    def _process_grouped(self, ublocks: np.ndarray, totals: np.ndarray,
                         w_counts: np.ndarray) -> WaveOutcome:
        """The full wave pipeline for every wave, all-resident or not.

        A replayed wave that carries its recorded grouping lands here
        directly, so it too skips the fast path.
        """
        out = WaveOutcome(n_accesses=int(totals.sum()))
        if ublocks.size == 0:
            return out
        self._begin_wave()
        self._lru_order = None

        touched_chunks = np.unique(self.directory.chunk_of_block[ublocks])
        touched_chunks = touched_chunks[touched_chunks >= 0]
        self.directory.last_touch[touched_chunks] = self._clock
        pinned = np.zeros(self.directory.num_chunks, dtype=bool)
        pinned[touched_chunks] = True

        res_mask = self.residency.resident[ublocks]
        out.n_local += int(totals[res_mask].sum())
        dirty_now = ublocks[res_mask & (w_counts > 0)]
        if dirty_now.size:
            self._note_dirty(dirty_now)

        nr = ~res_mask
        if nr.any():
            self._handle_far_accesses(ublocks[nr], totals[nr], w_counts[nr],
                                      pinned, out)
        self.counters.add_accesses(ublocks, totals)

        self.stats.waves += 1
        self.stats.totals.merge(out)
        if self.debug_invariants:
            self.check_consistency()
        return out

    def _drain_migrations_scalar(self, mig: np.ndarray, mig_k: np.ndarray,
                                 mig_kw: np.ndarray, mig_remote: np.ndarray,
                                 pinned: np.ndarray,
                                 out: WaveOutcome) -> None:
        """Reference drain: migrations resolved one block at a time."""
        for b, kk, kkw, rr in zip(mig.tolist(), mig_k.tolist(),
                                  mig_kw.tolist(), mig_remote.tolist()):
            if self.residency.resident[b]:
                # A prefetch earlier in this loop already pulled it in.
                out.n_local += int(kk - rr)
                if kkw > 0:
                    self._note_dirty(np.array([b]))
                continue
            if self._migrate_block(int(b), pinned, out):
                # One access is the fault itself; the rest hit locally.
                out.n_local += int(kk - rr - 1)
                if kkw > 0:
                    self._note_dirty(np.array([b]))
            else:
                # No room even after eviction attempts: serve remotely.
                extra = int(kk - rr)
                out.n_remote += extra
                if not self.host.remote_mapped[b]:
                    out.mapping_faults += 1
                    self.host.map_remote(np.array([b]))

    _drain_migrations = _drain_migrations_scalar

    def _handle_far_accesses(self, nrb: np.ndarray, k: np.ndarray,
                             kw: np.ndarray, pinned: np.ndarray,
                             out: WaveOutcome) -> None:
        """Every policy's decision arrays, first touch included."""
        td, c0 = self._decision_state(nrb)
        migrate, slack = kernels.decide(c0, k, td)
        if self._has_pinned:
            pinned_host = self.block_pinned_host[nrb]
            if pinned_host.any():
                migrate &= ~pinned_host
        if (self.injector is not None and self.injector.enabled
                and migrate.any()):
            self._inject_migration_faults(nrb, k, slack, migrate, out)
        bus = self._bus
        if bus is not None and bus.enabled:
            for b, t, c, kk, m in zip(nrb.tolist(), td.tolist(), c0.tolist(),
                                      k.tolist(), migrate.tolist()):
                bus.emit(MigrationDecision(wave=bus.wave, block=b,
                                           threshold=t, counter=c,
                                           accesses=kk, migrated=m))
        remote = kernels.remote_counts(migrate, slack, k)
        out.n_remote += int(remote.sum())
        self.counters.add_remote_accesses_unique(nrb, remote)
        staying = nrb[~migrate]
        if staying.size:
            out.mapping_faults += staying.size - int(np.count_nonzero(
                self.host.remote_mapped[staying]))
            self.host.map_remote(staying)
        mig = nrb[migrate]
        if mig.size:
            self._drain_migrations(mig, k[migrate], kw[migrate],
                                   remote[migrate], pinned, out)

    def _install(self, blocks: np.ndarray, cids: list[int],
                 sizes: list[int], out: WaveOutcome) -> None:
        """All five per-block install writes, the dirty clear included.

        The reference never builds a victim key, so only occupancy
        moves with an install.
        """
        self.device.allocate(int(blocks.size))
        self.residency.resident[blocks] = True
        self.residency.dirty[blocks] = False
        self.host.remote_mapped[blocks] = False
        self.counters.volta_counts[blocks] = 0
        self.ever_migrated[blocks] = True
        for cid, n in zip(cids, sizes):
            self.directory.occupancy[cid] += n
        if self.counters.has_roundtrips:
            thrashy = blocks[self.counters.roundtrips[blocks] > 0]
            if thrashy.size:
                out.thrash_migrations += int(thrashy.size)
                self.stats.thrashed[thrashy] = True
                if self.attribution is not None:
                    self.attribution.on_thrash(thrashy)

    def _make_room(self, n_blocks: int, pinned: np.ndarray, never: int,
                   out: WaveOutcome) -> bool:
        """Production's eviction path around the reference selector."""
        if self.device.can_fit(n_blocks):
            return True
        self.device.note_pressure()
        needed = n_blocks - self.device.free_blocks
        heat = dirty = order = None
        if self.config.memory.replacement is ReplacementPolicy.LFU:
            heat = self.directory.heat_buckets_from_sums(
                self.directory.resident_heat(self.counters.counts,
                                             self.residency.resident))
            dirty = self.directory.chunk_dirty(self.residency.dirty)
        else:
            if self._lru_order is None:
                self._lru_order = np.argsort(self.directory.last_touch,
                                             kind="stable")
            order = self._lru_order
        never_mask = np.zeros(self.directory.num_chunks, dtype=bool)
        never_mask[never] = True
        try:
            victims = reference_select_victims(
                self.directory, needed, self.config.memory.replacement,
                pinned, heat=heat, dirty_any=dirty, never=never_mask,
                order=order)
        except RuntimeError:
            return False
        block_granular = (self.config.memory.eviction_granularity
                          is EvictionGranularity.BLOCK_64KB)
        for cid in victims:
            if block_granular:
                still_needed = n_blocks - self.device.free_blocks
                if still_needed <= 0:
                    break
                self._evict_blocks(cid, still_needed, out)
            else:
                self._evict_chunk(cid, out)
        return self.device.can_fit(n_blocks)

    def _migrate_block(self, block: int, pinned: np.ndarray,
                       out: WaveOutcome) -> bool:
        """Fault-migrate ``block``; runs prefetcher; returns success."""
        cid = int(self.directory.chunk_of_block[block])
        if cid < 0:
            raise RuntimeError(f"block {block} belongs to no chunk")

        if not self._make_room(1, pinned, cid, out):
            return False
        leaf = block - int(self.directory.first_block[cid])
        tree = self.trees[cid]
        pf_leaves = self.prefetcher.on_fault(tree, leaf)

        self._install(np.array([block], dtype=np.int64), [cid], [1], out)
        out.fault_migrations += 1
        out.migrated_blocks += 1

        if pf_leaves.size:
            pf_blocks = int(self.directory.first_block[cid]) + pf_leaves
            if self._make_room(int(pf_blocks.size), pinned, cid, out):
                self._install(pf_blocks, [cid], [int(pf_blocks.size)], out)
                out.prefetched_blocks += int(pf_blocks.size)
                if self._bus is not None and self._bus.enabled:
                    self._bus.emit(PrefetchExpand(
                        wave=self._bus.wave, chunk=cid, fault_block=block,
                        blocks=int(pf_blocks.size)))
            else:
                # Could not hold the prefetch: roll the leaves back out of
                # the tree by clearing and re-marking only true residents.
                self._rebuild_tree(cid)
        return True


def reference_session(*args, **kwargs):
    """Run ``ServeSession(*args, **kwargs)`` on a :class:`ReferenceDriver`.

    Returns the session's :class:`~repro.serve.session.ServeResult`.
    The session's scheduling and bookkeeping are production code; only
    the driver underneath is the oracle.
    """
    with mock.patch.object(serve_session, "UvmDriver", ReferenceDriver):
        return serve_session.ServeSession(*args, **kwargs).run()


def coalesced_pages(alloc, byte_offsets: np.ndarray,
                    accesses_per_sector: int = 1
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Pages of ``alloc`` and access counts after 128B coalescing: the
    per-wave :func:`~repro.workloads.util.coalesced_page_offsets` call
    the reference workloads make for each array they touch."""
    rel_pages, counts = coalesced_page_offsets(
        byte_offsets, accesses_per_sector)
    if rel_pages.size == 0:
        return rel_pages, counts
    return alloc.first_page + rel_pages, counts


class ReferenceBfs(Bfs):
    """bfs generating each wave on its own: the per-level pass's oracle."""

    def _level_waves(self, frontier, all_eidx, all_nbrs, bounds):
        """Accesses of one BFS level, one wave at a time."""
        p = self.params
        for c0 in range(0, frontier.size, p.frontier_per_wave):
            c1 = min(c0 + p.frontier_per_wave, frontier.size)
            f = np.sort(frontier[c0:c1])
            eidx = all_eidx[bounds[c0]:bounds[c1]]
            nbrs = all_nbrs[bounds[c0]:bounds[c1]]
            wb = WaveBuilder()
            np_pages, np_counts = coalesced_pages(self.nodes, f * 8)
            wb.read(np_pages, np_counts)
            fp, fc = coalesced_pages(self.flags, f * 4)
            wb.read(fp, fc)
            if eidx.size:
                ep, ec = coalesced_pages(self.edges, eidx * 8)
                wb.read(ep, ec)
                rel, rc = coalesced_page_offsets(nbrs * 4)
                wb.write(self.cost.first_page + rel, rc)
                wb.write(self.flags.first_page + rel, rc)
            yield wb.build(compute_per_access=p.compute_per_access)

    def kernels(self):
        g = self.graph
        deg = g.degrees()
        visited = np.zeros(g.num_nodes, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        level = 0
        while frontier.size:
            fdeg = deg[frontier]
            eidx = ragged_ranges(g.ptr[frontier], fdeg)
            all_nbrs = g.dst[eidx].astype(np.int64)
            bounds = np.zeros(frontier.size + 1, dtype=np.int64)
            np.cumsum(fdeg, out=bounds[1:])
            yield KernelLaunch(
                "bfs.kernel", level,
                lambda f=frontier.copy(), e=eidx, nb=all_nbrs, b=bounds:
                    self._level_waves(f, e, nb, b))
            reached = np.zeros(g.num_nodes, dtype=bool)
            reached[all_nbrs] = True
            nbrs = np.flatnonzero(reached & ~visited)
            visited[nbrs] = True
            frontier = self._rng.permutation(nbrs)
            level += 1


class ReferenceSssp(Sssp):
    """sssp generating each wave on its own: the per-round pass's oracle."""

    def _relax_waves(self, worklist, all_eidx, all_nbrs, bounds):
        """Accesses of one relaxation round, one wave at a time."""
        p = self.params
        for c0 in range(0, worklist.size, p.worklist_per_wave):
            c1 = min(c0 + p.worklist_per_wave, worklist.size)
            wl = np.sort(worklist[c0:c1])
            eidx = all_eidx[bounds[c0]:bounds[c1]]
            nbrs = all_nbrs[bounds[c0]:bounds[c1]]
            wb = WaveBuilder()
            npg, npc = coalesced_pages(self.nodes, wl * 8)
            wb.read(npg, npc)
            dpg, dpc = coalesced_pages(self.dist, wl * 4)
            wb.read(dpg, dpc)
            if eidx.size:
                erel, epc = coalesced_page_offsets(eidx * 8)
                wb.read(self.edges.first_page + erel, epc)
                wb.read(self.weights.first_page + erel, epc)
                tpg, tpc = coalesced_pages(self.dist, nbrs * 4)
                wb.read(tpg, tpc)
                wb.write(tpg, np.maximum(tpc // 2, 1))
            yield wb.build(compute_per_access=p.compute_per_access)

    def _sweep_waves(self):
        """The dense sweep, rebuilt every round."""
        p = self.params
        bytes_total = self.graph.num_nodes * 4
        step = p.worklist_per_wave * 64
        for lo in range(0, bytes_total, step):
            hi = min(lo + step, bytes_total)
            wb = WaveBuilder()
            wb.read(self.dist.page_range(lo, hi), SECTORS_PER_PAGE)
            wb.read(self.dist_old.page_range(lo, hi), SECTORS_PER_PAGE)
            wb.write(self.dist_old.page_range(lo, hi), SECTORS_PER_PAGE)
            wb.write(self.wl_flags.page_range(lo, hi), SECTORS_PER_PAGE)
            yield wb.build(compute_per_access=p.compute_per_access)

    def kernels(self):
        g, p = self.graph, self.params
        deg = g.degrees()
        dist = np.full(g.num_nodes, np.inf, dtype=np.float64)
        dist[0] = 0.0
        pending = np.array([0], dtype=np.int64)
        for rnd in range(p.max_rounds):
            if pending.size == 0:
                break
            worklist = pending[:p.max_worklist]
            deferred = pending[p.max_worklist:]
            wdeg = deg[worklist]
            eidx = ragged_ranges(g.ptr[worklist], wdeg)
            all_nbrs = g.dst[eidx].astype(np.int64)
            bounds = np.zeros(worklist.size + 1, dtype=np.int64)
            np.cumsum(wdeg, out=bounds[1:])
            yield KernelLaunch(
                "sssp.kernel1", rnd,
                lambda wl=worklist.copy(), e=eidx, nb=all_nbrs, b=bounds:
                    self._relax_waves(wl, e, nb, b))
            next_mask = np.zeros(g.num_nodes, dtype=bool)
            next_mask[deferred] = True
            if eidx.size:
                src = np.repeat(worklist, wdeg)
                cand = dist[src] + g.weights[eidx]
                dst = all_nbrs
                before = dist[dst]
                np.minimum.at(dist, dst, cand)
                next_mask[dst[cand < before]] = True
            yield KernelLaunch("sssp.kernel2", rnd, self._sweep_waves)
            pending = self._rng.permutation(
                np.flatnonzero(next_mask)).astype(np.int64)


def reference_random_graph(num_nodes, avg_degree, rng, skew=0.0,
                           weighted=True):
    """``repro.workloads.graphs.random_graph`` without in-place arithmetic."""
    extra = rng.poisson(avg_degree - 1.0, size=num_nodes)
    degrees = 1 + extra
    m = int(degrees.sum())
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=ptr[1:])
    if skew > 0.0:
        u = rng.random(m)
        alpha = 1.0 - skew
        dst = (num_nodes * u ** (1.0 / alpha)).astype(np.int64)
        del u
        dst = np.minimum(dst, num_nodes - 1)
        dst = (dst * 2654435761) % num_nodes
    else:
        dst = rng.integers(0, num_nodes, size=m, dtype=np.int64)
    dst[ptr[:-1]] = (np.arange(num_nodes, dtype=np.int64) + 1) % num_nodes
    weights = rng.random(m, dtype=np.float32) * 99.0 + 1.0
    return CsrGraph(ptr=ptr, dst=dst.astype(np.int32),
                    weights=weights if weighted else None)


def dynamic_thresholds_oversub(ts: int, roundtrips: np.ndarray,
                               penalty: int) -> np.ndarray:
    """Equation 1, second branch: ``td = ts * (r + 1) * p`` per block.

    ``r`` is each block's round-trip (eviction) count: the more a block
    has thrashed, the harder it is pinned to host memory.  With ts=8,
    p=2 a never-evicted block migrates on its 16th access; after two
    evictions the threshold is 48, as in the paper's example.
    """
    if ts < 1:
        raise ValueError("static threshold must be >= 1")
    if penalty < 1:
        raise ValueError("migration penalty must be >= 1")
    r = np.asarray(roundtrips, dtype=np.int64)
    if r.size and r.min() < 0:
        raise ValueError("round-trip counts cannot be negative")
    return ts * (r + 1) * penalty
