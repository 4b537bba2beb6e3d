"""Content-addressed on-disk cache of recorded workload traces.

A grid sweep evaluates the same ``(workload, scale, seed)`` access
stream under many configurations (oversubscription levels, policies,
replacement schemes).  Regenerating the stream in every cell would spend
most of the grid's time in generation (graph construction, ``np.unique``
dedup, RNG draws), not in the driver.  :class:`TraceCache` records each
distinct stream once via :func:`repro.trace.recorder.record_trace`,
stores it in the mmap-able directory layout of
:func:`~repro.trace.recorder.save_trace_dir`, and hands every cell a
path to replay instead; :func:`repro.analysis.parallel.run_grid` runs
every grid through one.

Trace recording is deterministic (the recorder seeds its own generator
exactly like a live :class:`~repro.sim.simulator.Simulator` run), so a
replayed cell is bit-identical to a live one; the property suite pins
this across every registered workload.

Cache entries are content-addressed by ``(workload, scale, seed,
trace-format version)``, so a cache directory can be shared across
sweeps and sessions and survives format bumps without serving stale
layouts.  Commits are atomic -- arrays are written into a private temp
directory which is ``os.rename``-ed into place -- so concurrent
recorders of the same stream race benignly: one wins, the others
discard their work and use the winner's entry.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil

from .format import TRACE_VERSION, TraceData
from .recorder import MANIFEST_NAME, record_trace, save_trace_dir


def trace_key(workload: str, scale: str, seed: int) -> str:
    """Content-address of one recorded stream (stable across runs)."""
    ident = f"{workload}|{scale}|{seed}|trace-v{TRACE_VERSION}"
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]


class TraceCache:
    """Record-once / replay-many store of workload access streams."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        #: Streams recorded by this cache instance (statistics).
        self.recorded = 0
        #: Streams served from an existing entry (statistics).
        self.hits = 0

    def path_for(self, workload: str, scale: str, seed: int) -> pathlib.Path:
        """Cache-entry directory for one stream (may not exist yet)."""
        key = trace_key(workload, scale, seed)
        return self.root / f"{workload}-{scale}-s{seed}-{key}"

    def get_or_record(self, workload: str, scale: str,
                      seed: int = 0) -> pathlib.Path:
        """Return a committed trace directory, recording it if absent."""
        path = self.path_for(workload, scale, seed)
        if (path / MANIFEST_NAME).exists():
            self.hits += 1
            return path
        from ..workloads import make_workload
        data = record_trace(make_workload(workload, scale), seed=seed)
        self.recorded += 1
        return self._commit(data, path)

    def _commit(self, data: TraceData, path: pathlib.Path) -> pathlib.Path:
        """Atomically publish ``data`` at ``path`` (loser-safe on races)."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            save_trace_dir(data, tmp)
        except BaseException:
            # A failed write (a full disk, an interrupt) must not strand
            # a partial entry in a cache that outlives this process.
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        try:
            os.rename(tmp, path)
        except OSError:
            # A concurrent recorder committed first; its entry is
            # equivalent (the key is content-addressed), so drop ours.
            shutil.rmtree(tmp, ignore_errors=True)
            if not (path / MANIFEST_NAME).exists():
                raise
        return path
