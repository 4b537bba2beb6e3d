"""Recording workload executions into trace files.

Two on-disk layouts are supported:

* ``save_trace``/``load_trace`` -- one compressed ``.npz`` file; compact
  and self-contained, but ``np.load`` must decompress every array into
  fresh memory on open.
* ``save_trace_dir``/``load_trace_dir`` -- a directory holding one raw
  ``.npy`` file per array (the packed grouped arrays in one,
  ``groups.npy``) plus a ``manifest.json`` for the scalar tables.  Raw
  ``.npy`` files memory-map (``mmap_mode="r"``), so many
  simulator processes replaying the same recorded stream share one
  page-cache copy of the access arrays instead of materializing a
  private copy each -- the layout the grid trace cache uses.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..memory import layout
from ..memory.allocator import VirtualAddressSpace
from ..uvm.driver import group_wave
from ..workloads.base import Wave, Workload
from .format import TraceData, pack_groups, unpack_groups


def record_trace(workload: Workload, seed: int = 0) -> TraceData:
    """Run ``workload``'s generators and capture the full wave stream.

    No simulation happens -- this only materializes the access trace a
    simulator run would consume, so it is fast and configuration
    independent.  Each wave is also grouped per 64KB block, once
    (:func:`repro.uvm.driver.group_wave`), so that no replay of the
    trace has to group it again.
    """
    vas = VirtualAddressSpace()
    workload.build(vas, np.random.default_rng(seed))
    if not vas.allocations:
        raise ValueError(f"workload {workload.name!r} allocated nothing")

    kernel_names: list[str] = []
    kernel_iters: list[int] = []
    wave_kernel: list[int] = []
    wave_compute: list[float] = []
    waves: list[Wave] = []
    for launch in workload.kernels():
        kid = len(kernel_names)
        kernel_names.append(launch.name)
        kernel_iters.append(launch.iteration)
        for wave in launch.waves():
            wave_kernel.append(kid)
            wave_compute.append(
                float("nan") if wave.compute_cycles is None
                else float(wave.compute_cycles))
            waves.append(wave)
    wave_offsets = _offsets([w.pages for w in waves])
    pages = _flat([w.pages for w in waves])
    is_write = _flat([w.is_write for w in waves], dtype=bool)
    counts = _flat([w.counts for w in waves])
    # Group from the flat stream once the waves are gone, so the grouped
    # arrays never share the peak with the per-wave ones.
    del waves
    bounds = wave_offsets.tolist()
    groups = [group_wave(pages[lo:hi] >> layout.BLOCK_SHIFT,
                         is_write[lo:hi], counts[lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:])]

    data = TraceData(
        alloc_names=[a.name for a in vas.allocations],
        alloc_sizes=np.array([a.requested_bytes for a in vas.allocations],
                             dtype=np.int64),
        alloc_read_only=np.array([a.read_only for a in vas.allocations],
                                 dtype=bool),
        alloc_advice=[a.advice.value for a in vas.allocations],
        kernel_names=kernel_names,
        kernel_iterations=np.array(kernel_iters, dtype=np.int64),
        wave_kernel=np.array(wave_kernel, dtype=np.int64),
        wave_offsets=wave_offsets,
        wave_compute=np.array(wave_compute, dtype=np.float64),
        pages=pages,
        is_write=is_write,
        counts=counts,
        meta={"workload": workload.name, "seed": seed,
              "category": workload.category.value},
        group_offsets=_offsets([g[0] for g in groups]),
        group_blocks=_flat([g[0] for g in groups]),
        group_totals=_flat([g[1] for g in groups]),
        group_writes=_flat([g[2] for g in groups]),
    )
    data.validate()
    return data


def _flat(parts: list[np.ndarray], dtype=np.int64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _offsets(parts: list[np.ndarray]) -> np.ndarray:
    """CSR offsets of ``parts`` laid end to end."""
    out = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([p.size for p in parts], out=out[1:])
    return out


def save_trace(data: TraceData, path: str | pathlib.Path) -> pathlib.Path:
    """Write a trace to ``path`` (``.npz``)."""
    data.validate()
    path = pathlib.Path(path)
    np.savez_compressed(
        path,
        version=np.array([data.version]),
        alloc_names=np.array(data.alloc_names),
        alloc_sizes=data.alloc_sizes,
        alloc_read_only=data.alloc_read_only,
        alloc_advice=np.array(data.alloc_advice),
        kernel_names=np.array(data.kernel_names),
        kernel_iterations=data.kernel_iterations,
        wave_kernel=data.wave_kernel,
        wave_offsets=data.wave_offsets,
        wave_compute=data.wave_compute,
        pages=data.pages,
        is_write=data.is_write,
        counts=data.counts,
        meta_workload=np.array([data.meta.get("workload", "")]),
        meta_category=np.array([data.meta.get("category", "")]),
        meta_seed=np.array([data.meta.get("seed", 0)]),
        **({"groups": pack_groups(data)} if data.grouped else {}),
    )
    # np.savez appends .npz only when missing; normalize the return.
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


#: Scalar-table file inside a trace directory; its presence marks the
#: directory as a fully committed trace.
MANIFEST_NAME = "manifest.json"

#: The numeric arrays stored as individual ``.npy`` files in a trace
#: directory (everything else lives in the manifest).
_DIR_ARRAYS = ("alloc_sizes", "alloc_read_only", "kernel_iterations",
               "wave_kernel", "wave_offsets", "wave_compute",
               "pages", "is_write", "counts")

#: The packed grouped arrays of a version-2 trace directory; absent from
#: version-1 directories and from traces recorded without grouping.
GROUPS_FILE = "groups.npy"


def save_trace_dir(data: TraceData,
                   path: str | pathlib.Path) -> pathlib.Path:
    """Write a trace as a directory of mmap-able ``.npy`` files.

    The manifest is written last, so readers that gate on its presence
    (:class:`repro.trace.cache.TraceCache`) never observe a
    half-written trace.
    """
    data.validate()
    path = pathlib.Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name in _DIR_ARRAYS:
        np.save(path / f"{name}.npy", np.asarray(getattr(data, name)))
    if data.grouped:
        np.save(path / GROUPS_FILE, pack_groups(data))
    manifest = {
        "version": data.version,
        "alloc_names": list(data.alloc_names),
        "alloc_advice": list(data.alloc_advice),
        "kernel_names": list(data.kernel_names),
        "meta": {"workload": data.meta.get("workload", ""),
                 "category": data.meta.get("category", ""),
                 "seed": int(data.meta.get("seed", 0))},
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return path


def load_trace_dir(path: str | pathlib.Path,
                   mmap: bool = True) -> TraceData:
    """Read a trace directory written by :func:`save_trace_dir`.

    With ``mmap`` (the default) the access arrays are memory-mapped
    read-only instead of loaded, so opening a multi-hundred-MB trace is
    O(metadata) and concurrent replays share the page cache.
    """
    path = pathlib.Path(path)
    manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
    mode = "r" if mmap else None
    arrays = {name: np.load(path / f"{name}.npy", mmap_mode=mode,
                            allow_pickle=False)
              for name in _DIR_ARRAYS}
    try:
        groups = np.load(path / GROUPS_FILE, mmap_mode=mode,
                         allow_pickle=False)
    except FileNotFoundError:
        pass
    else:
        arrays.update(unpack_groups(groups, arrays["wave_kernel"].size))
    data = TraceData(
        alloc_names=[str(s) for s in manifest["alloc_names"]],
        alloc_advice=[str(s) for s in manifest["alloc_advice"]],
        kernel_names=[str(s) for s in manifest["kernel_names"]],
        version=int(manifest["version"]),
        meta=dict(manifest["meta"]),
        **arrays,
    )
    data.validate()
    return data


def load_trace(path: str | pathlib.Path) -> TraceData:
    """Read a trace written by :func:`save_trace`."""
    with np.load(pathlib.Path(path), allow_pickle=False) as z:
        wave_kernel = z["wave_kernel"]
        groups = (unpack_groups(z["groups"], wave_kernel.size)
                  if "groups" in z.files else {})
        data = TraceData(
            alloc_names=[str(s) for s in z["alloc_names"]],
            alloc_sizes=z["alloc_sizes"],
            alloc_read_only=z["alloc_read_only"],
            alloc_advice=[str(s) for s in z["alloc_advice"]],
            kernel_names=[str(s) for s in z["kernel_names"]],
            kernel_iterations=z["kernel_iterations"],
            wave_kernel=wave_kernel,
            wave_offsets=z["wave_offsets"],
            wave_compute=z["wave_compute"],
            pages=z["pages"],
            is_write=z["is_write"],
            counts=z["counts"],
            version=int(z["version"][0]),
            meta={"workload": str(z["meta_workload"][0]),
                  "category": str(z["meta_category"][0]),
                  "seed": int(z["meta_seed"][0])},
            **groups,
        )
    data.validate()
    return data
