"""Reference implementations the property suites check production against.

Production runs one path per layer: the driver always takes the
resident fast path and drains migrations through chunk-grouped bulk
installs, and the serve loop sends every scheduler slot through
:meth:`~repro.uvm.driver.UvmDriver.process_wave_batch`.  The simpler
paths those replaced live here, as test oracles only:

* :class:`ReferenceDriver` runs every wave through the full pipeline
  (no resident fast path), drains migrations one block at a time, and
  resolves a batch as a plain loop of single waves.
* :func:`reference_session` runs a :class:`~repro.serve.ServeSession`
  on a :class:`ReferenceDriver`, so serve output can be compared with
  a session that never fuses a wave.

Production exposes exactly one hook for this module:
:meth:`UvmDriver._drain_migrations`, which :class:`ReferenceDriver`
overrides with :meth:`ReferenceDriver._drain_migrations_scalar`.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

import repro.serve.session as serve_session
from repro.uvm.driver import UvmDriver, WaveOutcome


class ReferenceDriver(UvmDriver):
    """The driver without its fast paths: the bit-identity oracle."""

    def _process_blocks(self, blocks: np.ndarray, is_write: np.ndarray,
                        counts: np.ndarray, grouped=None) -> WaveOutcome:
        """The full wave pipeline for every wave, all-resident or not."""
        out = WaveOutcome(n_accesses=int(counts.sum()))
        if blocks.size == 0:
            return out
        self._clock += 1
        self._heat_sum = None
        self._dirty_cache = None
        self._lru_order = None
        if self._bus is not None:
            self._bus.wave = self.stats.waves

        ublocks, totals, w_counts = self._group_wave(blocks, is_write, counts)
        touched_chunks = np.unique(self.directory.chunk_of_block[ublocks])
        touched_chunks = touched_chunks[touched_chunks >= 0]
        self.directory.touch(touched_chunks, self._clock)
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
            self._check_wave_accounting()
        return out

    def process_wave_batch(self, waves, tenants=None) -> list[WaveOutcome]:
        """Resolve the batch one wave after another, never fused."""
        if tenants is None:
            tenants = (None,) * len(waves)
        return [self._process_segment(self._prepare_wave(p, w, c), tenant)
                for (p, w, c), tenant in zip(waves, tenants)]

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


def reference_session(*args, **kwargs):
    """Run ``ServeSession(*args, **kwargs)`` on a :class:`ReferenceDriver`.

    Returns the session's :class:`~repro.serve.session.ServeResult`.
    The session's scheduling and bookkeeping are production code; only
    the driver underneath is the oracle.
    """
    with mock.patch.object(serve_session, "UvmDriver", ReferenceDriver):
        return serve_session.ServeSession(*args, **kwargs).run()
