"""Workload registry: the paper's application suite by name and scale."""

from __future__ import annotations

from .backprop import PRESETS as BACKPROP_PRESETS, Backprop
from .base import Category, Workload
from .bfs import PRESETS as BFS_PRESETS, Bfs
from .fdtd2d import PRESETS as FDTD_PRESETS, Fdtd2d
from .hotspot import PRESETS as HOTSPOT_PRESETS, Hotspot
from .nw import PRESETS as NW_PRESETS, NeedlemanWunsch
from .ra import PRESETS as RA_PRESETS, RandomAccess
from .srad import PRESETS as SRAD_PRESETS, Srad
from .sssp import PRESETS as SSSP_PRESETS, Sssp

_REGISTRY: dict[str, tuple[type[Workload], dict]] = {
    "backprop": (Backprop, BACKPROP_PRESETS),
    "fdtd": (Fdtd2d, FDTD_PRESETS),
    "hotspot": (Hotspot, HOTSPOT_PRESETS),
    "srad": (Srad, SRAD_PRESETS),
    "bfs": (Bfs, BFS_PRESETS),
    "nw": (NeedlemanWunsch, NW_PRESETS),
    "ra": (RandomAccess, RA_PRESETS),
    "sssp": (Sssp, SSSP_PRESETS),
}

#: Paper ordering: regular suite then irregular suite (Figure 1 et al.).
REGULAR_WORKLOADS: tuple[str, ...] = ("backprop", "fdtd", "hotspot", "srad")
IRREGULAR_WORKLOADS: tuple[str, ...] = ("bfs", "nw", "ra", "sssp")
ALL_WORKLOADS: tuple[str, ...] = REGULAR_WORKLOADS + IRREGULAR_WORKLOADS

SCALES: tuple[str, ...] = ("tiny", "small", "medium")


def workload_category(name: str) -> Category:
    """Regular/irregular classification of a benchmark."""
    cls, _ = _lookup(name)
    return cls.category


def make_workload(name: str, scale: str = "small", params=None) -> Workload:
    """Instantiate a benchmark by name.

    ``scale`` selects a preset parameter set (``tiny``/``small``/
    ``medium``); passing ``params`` overrides the preset entirely.
    """
    cls, presets = _lookup(name)
    if params is not None:
        return cls(params)
    if scale not in presets:
        raise KeyError(
            f"unknown scale {scale!r} for {name!r}; choose from {sorted(presets)}")
    return cls(presets[scale])


def _lookup(name: str) -> tuple[type[Workload], dict]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
