"""Compiled backend for the per-wave hot loop (``SimulationConfig.backend``).

Two interchangeable kernel namespaces implement the driver's inner
array operations:

* ``python`` -- :mod:`repro.accel.kernels`, the numpy reference
  implementations (the bit-identity baseline; always available);
* ``numba`` -- :mod:`repro.accel.jit`, the same kernels as explicit
  loops compiled with ``@njit(cache=True)`` when numba is installed
  (the ``repro[accel]`` extra).  Without numba the loops still run
  interpreted when explicitly forced (tests), but a normal request for
  the numba backend falls back to ``python`` with a one-line warning.

Selection order: ``--backend`` CLI flag > ``REPRO_BACKEND`` environment
variable > ``python``.  The active (resolved) backend is recorded on
``RunMeta`` and in bench reports, so an archived run always says which
kernels produced it.

Both namespaces are bit-identical by contract, enforced by
``tests/property/test_backend_equivalence.py``: final driver state and
every per-wave ``WaveOutcome`` match across backends for every
registered workload.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from . import jit, kernels
from ._compat import HAS_NUMBA, NUMBA_VERSION

__all__ = [
    "Backend",
    "HAS_NUMBA",
    "NUMBA_VERSION",
    "FORCE_INTERPRETED",
    "resolve_backend",
    "warm_jit",
]

#: Allow resolving the ``numba`` backend without numba installed: the
#: loop kernels then run interpreted.  Off by default (a user asking
#: for numba without it gets a warning + python fallback, not a 100x
#: slowdown); the equivalence tests flip it to exercise the loop
#: kernels everywhere.  Seeded from ``REPRO_ACCEL_INTERPRET``.
FORCE_INTERPRETED: bool = os.environ.get(
    "REPRO_ACCEL_INTERPRET", "").strip() not in ("", "0")

_WARN_ENV = "_REPRO_ACCEL_WARNED"
_warned = False
_warmed = False


@dataclass(frozen=True)
class Backend:
    """A resolved kernel namespace plus the name it resolved from."""

    #: Active backend (``python`` or ``numba``) -- what actually runs.
    name: str
    #: What was asked for (differs from ``name`` only on fallback).
    requested: str
    #: Module providing the kernel functions (see kernels.py contract).
    kernels: ModuleType


def _warn_numba_missing() -> None:
    """One-line fallback warning, once per process tree.

    The environment guard keeps grid worker processes (which inherit
    the parent's environment) from each repeating the warning.
    """
    global _warned
    if _warned or os.environ.get(_WARN_ENV):
        return
    _warned = True
    os.environ[_WARN_ENV] = "1"
    print("repro: backend 'numba' requested but numba is not importable; "
          "falling back to the pure-python backend "
          "(install with: pip install 'repro[accel]')", file=sys.stderr)


def resolve_backend(name: str = "python") -> Backend:
    """Map a backend name to its kernel namespace.

    ``numba`` resolves to the loop kernels when numba is importable
    (pre-warming the JIT once per process) or when
    :data:`FORCE_INTERPRETED` is set; otherwise it degrades to the
    python kernels with a single warning.  Unknown names raise --
    though config validation normally rejects them first.
    """
    if name == "python":
        return Backend("python", "python", kernels)
    if name != "numba":
        raise ValueError(
            f"unknown backend {name!r}; choose 'python' or 'numba'")
    if HAS_NUMBA or FORCE_INTERPRETED:
        warm_jit()
        return Backend("numba", "numba", jit)
    _warn_numba_missing()
    return Backend("python", "numba", kernels)


def warm_jit() -> None:
    """Compile every loop kernel on tiny inputs, once per process.

    First-call JIT latency otherwise lands inside whatever happens to
    run first -- skewing the grid's first-cell ``grid.cell_ms`` metric
    and racing ``cell_timeout`` hang detection.  ``cache=True`` kernels
    also persist compiled artifacts on disk, so later processes mostly
    pay a cache load here, not a compile.
    """
    global _warmed
    if _warmed:
        return
    _warmed = True
    i64 = np.array([0, 1], dtype=np.int64)
    ones = np.ones(2, dtype=np.int64)
    bools = np.array([True, False])
    jit.eq1_thresholds(8, 8, True, 0.5, 2, ones)
    jit.eq1_thresholds(8, 8, False, 0.5, 2, ones)
    migrate, slack = jit.decide(ones, ones, ones)
    jit.remote_counts(migrate, slack, ones)
    jit.group_sorted(i64, ones, ones)
    jit.resident_all(bools, np.zeros(1, dtype=np.int64))
    jit.scatter_add(np.zeros(2, dtype=np.int64), i64, ones)
    jit.scatter_add_unique(np.zeros(2, dtype=np.int64), i64, ones)
    jit.increment(np.zeros(2, dtype=np.int64), i64)
    jit.fill_zero(np.zeros(2, dtype=np.int64), i64)
    jit.halve_while_ge(np.zeros(2, dtype=np.int64), i64, np.int64(4))
    jit.halve_while_gt(np.zeros(2, dtype=np.int64), i64, np.int64(4))
