"""The driver's hot-loop array kernels (:mod:`repro.accel.kernels`).

The driver and the counter file call each kernel as an attribute of
:mod:`repro.accel.kernels`.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import kernels

__all__ = ["kernels"]

# Not part of the simulator: perfbench/provenance.py reads HAS_NUMBA,
# resolve_backend and SimulationConfig.backend on every run, so the
# three stay, fixed to "python", until it stops (ROADMAP item 1).
HAS_NUMBA = False


def resolve_backend(name: str = "python") -> SimpleNamespace:
    """Named ``python`` whatever ``name`` asks for."""
    return SimpleNamespace(name="python")
