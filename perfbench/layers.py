"""The benchmark's layers and the runtime wrappers that time them.

Each layer is a set of callables of the program.  :func:`install` wraps
every one of them in spans of its layer; ``Patches.restore`` puts the
originals back.  Which end-to-end metric a change to each layer should
move, and on which workload, is mapped in ``README.md`` beside this file.
"""

from __future__ import annotations

import functools
import inspect

from tracer import Patches, SpanRecorder, traced_call, traced_generator

#: Layer names, in report order.
LAYERS: tuple[str, ...] = (
    "workloads.gen", "workloads.build", "trace.load", "trace.replay",
    "uvm.prep", "uvm.fast_path", "uvm.driver", "core.policy",
    "uvm.counters", "uvm.eviction", "uvm.tree", "uvm.residency",
    "uvm.batch", "uvm.release", "gpu.timing", "gpu.engine",
    "sim.setup", "analysis.grid", "serve.session", "serve.scheduler",
    "serve.admission", "serve.traffic", "obs.live",
)


def install(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap every callable a layer times, recording spans on ``rec``."""
    from repro.accel import kernels
    from repro.analysis import experiments
    from repro.core.policy import DecisionPolicy
    from repro.gpu.engine import GpuExecutionEngine
    from repro.gpu.timing import TimingModel
    from repro.memory.device import DeviceMemory
    from repro.memory.host import HostMemory
    from repro.obs.live.telemetry import LiveTelemetry
    from repro.serve import session
    from repro.serve.admission import AdmissionController
    from repro.serve.scheduler import WaveScheduler
    from repro.sim.simulator import Simulator
    from repro.trace.cache import TraceCache
    from repro.trace.replay import TraceWorkload
    from repro.uvm import driver
    from repro.uvm.counters import AccessCounterFile
    from repro.uvm.eviction import ChunkDirectory
    from repro.uvm.residency import ResidencyMap
    from repro.uvm.tree import PrefetchTree
    from repro.workloads.base import Workload

    def wrap(owner, names, layer: str) -> None:
        lid = rec.index(layer)
        for name in names:
            patches.replace(owner, name, lambda fn: traced_call(rec, lid, fn))

    wrap(kernels, ("group_sorted", "resident_all"), "uvm.prep")
    wrap(kernels, ("decide", "remote_counts"), "core.policy")
    for cls in _subclasses(DecisionPolicy):
        wrap(cls, _own(cls, "decision_state"), "core.policy")
    wrap(AccessCounterFile, _public(AccessCounterFile), "uvm.counters")
    wrap(driver, ("select_victims",), "uvm.eviction")
    wrap(ChunkDirectory, _public(ChunkDirectory), "uvm.eviction")
    wrap(PrefetchTree, _public(PrefetchTree), "uvm.tree")
    for cls in (ResidencyMap, HostMemory, DeviceMemory):
        wrap(cls, _public(cls), "uvm.residency")
    wrap(driver.UvmDriver, ("process_wave_batch",), "uvm.batch")
    wrap(driver.UvmDriver, ("release_chunks",), "uvm.release")
    wrap(TimingModel, ("wave_cycles", "wave_total_cycles"), "gpu.timing")
    wrap(GpuExecutionEngine, ("run_kernel",), "gpu.engine")
    wrap(Simulator, ("run",), "sim.setup")
    wrap(driver.UvmDriver, ("__init__",), "sim.setup")
    figures = [name for name, value in vars(experiments).items()
               if name.startswith("figure") and inspect.isfunction(value)]
    wrap(experiments, ["run_grid", *figures], "analysis.grid")
    wrap(TraceWorkload, ("__init__",), "trace.load")
    wrap(TraceCache, ("get_or_record",), "trace.load")
    wrap(session.ServeSession, ("run",), "serve.session")
    for cls in _subclasses(WaveScheduler):
        wrap(cls, _own(cls, "plan_round"), "serve.scheduler")
    wrap(AdmissionController, ("offer", "pop_admittable", "release"),
         "serve.admission")
    wrap(session, ("generate_arrivals",), "serve.traffic")
    wrap(LiveTelemetry, _public(LiveTelemetry), "obs.live")

    # Wave generation: a live workload's kernels() and the waves of the
    # launches it yields are workloads.gen; a trace replay's are
    # trace.replay.
    gen, replay = rec.index("workloads.gen"), rec.index("trace.replay")
    for cls in [Workload, *_subclasses(Workload)]:
        wrap(cls, _own(cls, "build"), "workloads.build")
        lid = replay if issubclass(cls, TraceWorkload) else gen
        for name in _own(cls, "kernels"):
            patches.replace(cls, name,
                            lambda fn: _traced_kernels(rec, lid, fn))
    patches.replace(driver.UvmDriver, "process_wave", lambda fn: _split_waves(
        rec, rec.index("uvm.fast_path"), rec.index("uvm.driver"), fn))


def _subclasses(base) -> list[type]:
    found: list[type] = []
    todo = [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _own(cls, name: str) -> tuple[str, ...]:
    """``(name,)`` when ``cls`` itself defines a concrete method ``name``."""
    fn = vars(cls).get(name)
    concrete = (inspect.isfunction(fn)
                and not getattr(fn, "__isabstractmethod__", False))
    return (name,) if concrete else ()


def _public(cls) -> list[str]:
    """Public methods ``cls`` defines itself (properties excluded)."""
    return [name for name in vars(cls)
            if not name.startswith("_") and _own(cls, name)]


def _traced_kernels(rec, lid, fn):
    """``kernels()`` whose steps, and each yielded launch's waves, are spans.

    Every ``KernelLaunch`` comes out of some workload's ``kernels()``, so
    its ``wave_source`` is wrapped here, in the layer of that workload.
    """
    kernels = traced_generator(rec, lid, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        for launch in kernels(*args, **kwargs):
            launch.wave_source = traced_generator(rec, lid,
                                                  launch.wave_source)
            yield launch
    return traced


def _split_waves(rec, fast, slow, fn):
    """``process_wave`` charged to the fast path when it took it."""
    enter, leave = rec.enter, rec.exit

    @functools.wraps(fn)
    def process_wave(self, *args, **kwargs):
        before = self.stats.fast_path_waves
        enter(slow)
        try:
            return fn(self, *args, **kwargs)
        finally:
            leave(fast if self.stats.fast_path_waves != before else slow)
    return process_wave
