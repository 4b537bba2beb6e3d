"""The paper's application suite and workload abstractions.

Regular (dense, sequential, repetitive access): ``backprop``, ``fdtd``,
``hotspot``, ``srad``.  Irregular (sparse, input-dependent access with a
hot/cold allocation split): ``bfs``, ``nw``, ``ra``, ``sssp``.
"""

from .backprop import Backprop, BackpropParams
from .base import Category, KernelLaunch, Wave, WaveBuilder, Workload, chunked
from .bfs import Bfs, BfsParams
from .fdtd2d import Fdtd2d, FdtdParams
from .graphs import CsrGraph, random_graph
from .hotspot import Hotspot, HotspotParams
from .nw import NeedlemanWunsch, NwParams
from .ra import RandomAccess, RaParams
from .registry import (
    ALL_WORKLOADS,
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    SCALES,
    make_workload,
    workload_category,
)
from .srad import Srad, SradParams
from .sssp import Sssp, SsspParams

__all__ = [
    "ALL_WORKLOADS",
    "Backprop",
    "BackpropParams",
    "Bfs",
    "BfsParams",
    "Category",
    "CsrGraph",
    "Fdtd2d",
    "FdtdParams",
    "Hotspot",
    "HotspotParams",
    "IRREGULAR_WORKLOADS",
    "KernelLaunch",
    "NeedlemanWunsch",
    "NwParams",
    "RandomAccess",
    "RaParams",
    "REGULAR_WORKLOADS",
    "SCALES",
    "Srad",
    "SradParams",
    "Sssp",
    "SsspParams",
    "Wave",
    "WaveBuilder",
    "Workload",
    "chunked",
    "make_workload",
    "random_graph",
    "workload_category",
]
