"""Self-time arithmetic, iteration spans and the runtime wrappers."""

import dataclasses
import types

import numpy as np
import pytest

import layers
import suite
from tracer import Patches, SpanRecorder, traced_call, traced_iter


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def recorder(*names):
    clock = Clock()
    return SpanRecorder(names, clock=clock), clock


def test_self_time_excludes_nested_children():
    rec, clock = recorder("a", "b", "c")
    rec.enter(0)
    clock.tick(1)
    rec.enter(1)
    clock.tick(2)
    rec.enter(2)
    clock.tick(4)
    rec.exit(2)
    clock.tick(8)
    rec.exit(1)
    rec.enter(2)
    clock.tick(16)
    rec.exit(2)
    clock.tick(32)
    rec.exit(0)
    assert rec.self_s == [33.0, 10.0, 20.0]
    assert rec.calls == [1, 1, 2]
    assert list(rec.parent) == [-1, 0, 1, 0]
    assert rec.top_level_s == sum(rec.self_s) == 63.0


def test_reentrant_spans_split_self_time_between_frames():
    rec, clock = recorder("a", "b")
    rec.enter(0)
    clock.tick(1)
    rec.enter(1)
    clock.tick(2)
    rec.enter(0)
    clock.tick(4)
    rec.exit(0)
    clock.tick(8)
    rec.exit(1)
    clock.tick(16)
    rec.exit(0)
    assert rec.self_s == [21.0, 10.0]
    assert rec.calls == [2, 1]
    assert rec.top_level_s == 31.0


def test_a_span_is_charged_to_the_layer_named_when_it_closes():
    rec, clock = recorder("slow", "fast")
    rec.enter(0)
    clock.tick(3)
    rec.exit(1)
    assert rec.self_s == [0.0, 3.0]
    assert rec.calls == [0, 1]
    assert list(rec.layer) == [1]


def test_each_iteration_step_is_a_span():
    rec, clock = recorder("gen")

    def items():
        for i in range(3):
            clock.tick(1)
            yield i
        clock.tick(5)
    assert list(traced_iter(rec, 0, items())) == [0, 1, 2]
    assert rec.calls == [4]
    assert rec.self_s == [8.0]


def test_spans_close_when_the_call_raises():
    rec, clock = recorder("call", "iter")

    def boom():
        clock.tick(2)
        raise ValueError("boom")

    def gen():
        clock.tick(1)
        raise KeyError("gen")
        yield
    with pytest.raises(ValueError):
        traced_call(rec, 0, boom)()
    with pytest.raises(KeyError):
        list(traced_iter(rec, 1, gen()))
    assert rec.depth == 0
    assert rec.self_s == [2.0, 1.0]


def test_patches_restore_class_module_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Sub(Base):
        pass

    def g():
        return "g"
    module = types.ModuleType("m")
    module.g = g
    original = vars(Base)["f"]
    patches = Patches()
    patches.replace(Base, "f", lambda fn: lambda self: "wrapped " + fn(self))
    patches.replace(Sub, "f", lambda fn: lambda self: "sub " + fn(self))
    patches.replace(module, "g", lambda fn: lambda: "wrapped " + fn())
    assert Sub().f() == "sub wrapped base"
    assert module.g() == "wrapped g"
    patches.restore()
    assert vars(Base)["f"] is original
    assert "f" not in vars(Sub)
    assert module.g is g
    assert patches.targets == []


def test_every_wrapper_restores_the_original_callable():
    rec = SpanRecorder(layers.LAYERS)
    probe = Patches()
    layers.install(rec, probe)
    targets = probe.targets
    probe.restore()
    originals = {(id(owner), name): vars(owner)[name]
                 for owner, name in targets}
    patches = Patches()
    layers.install(rec, patches)
    assert patches.targets == targets
    for owner, name in targets:
        assert vars(owner)[name] is not originals[(id(owner), name)]
    patches.restore()
    for owner, name in targets:
        assert vars(owner)[name] is originals[(id(owner), name)], (owner, name)


def _driver():
    """A driver over two disjoint 2 MB allocations."""
    from repro.config import SimulationConfig
    from repro.memory.allocator import VirtualAddressSpace
    from repro.memory.layout import MB
    from repro.uvm.driver import UvmDriver

    vas = VirtualAddressSpace()
    for name in ("a", "b"):
        vas.malloc_managed(name, 2 * MB)
    return UvmDriver(vas, SimulationConfig())


def _waves(driver, rounds):
    """``rounds`` batches of one wave per allocation."""
    rng = np.random.default_rng(7)
    return [[(np.sort(rng.integers(a.first_page, a.last_page, 64)),
              rng.random(64) < 0.4, None)
             for a in driver.vas.allocations]
            for _ in range(rounds)]


def _simulate(traces):
    """A live grid, a replayed grid, a serve run and a fused batch, tiny."""
    from repro.analysis import experiments
    from repro.analysis.parallel import GridOptions
    from repro.config import ServeConfig
    from repro.obs.live.slo import SloConfig
    from repro.serve import ServeSession

    live = experiments.figure5(scale="tiny", subset=("fdtd",))
    fig6, fig7 = experiments.figure6_7(
        scale="tiny", subset=("ra", "bfs"),
        grid=GridOptions(trace_cache=str(traces)))
    serve = ServeSession(
        ServeConfig(tenants=6, arrival_rate=2000.0, queue_depth=2,
                    shed_watermark=2.0, scheduler="drr"),
        slo=SloConfig(p99_latency_us=300.0)).run()
    driver = _driver()
    batched = [driver.process_wave_batch(batch)
               for batch in _waves(driver, 3)]
    runs = {**live.runs, **fig6.runs}
    return ([(key, r.total_cycles, dataclasses.asdict(r.events))
             for key, r in sorted(runs.items())],
            [live.render(), fig6.render(), fig7.render()],
            serve.as_dict(),
            [[dataclasses.asdict(out) for out in outs] for outs in batched])


@pytest.mark.parametrize("batch_of_one", [False, True])
def test_waves_are_counted_once_through_either_entry_point(batch_of_one):
    driver = _driver()
    batches = _waves(driver, 4)
    waves = suite.Waves()
    with Patches() as patches:
        if batch_of_one:
            # A single wave as a batch of one: one hooked entry point
            # calls the other.
            patches.replace(type(driver), "process_wave", lambda fn: (
                lambda self, *wave: self.process_wave_batch([wave])[0]))
        waves.install(patches)
        for wave in batches[0]:
            driver.process_wave(*wave)
        for batch in batches[1:]:
            driver.process_wave_batch(batch)
    assert waves.first_at is not None
    assert waves.waves == driver.stats.waves == 2 + 2 * 3
    assert waves.fast_path_waves == driver.stats.fast_path_waves


def test_a_traced_run_equals_an_untraced_one_and_covers_every_layer(
        tmp_path):
    untraced = _simulate(tmp_path / "untraced")
    rec = SpanRecorder(layers.LAYERS)
    with Patches() as patches:
        layers.install(rec, patches)
        traced = _simulate(tmp_path / "traced")
    assert traced == untraced
    assert rec.depth == 0
    assert sum(rec.self_s) == pytest.approx(rec.top_level_s)
    idle = [layer for layer, n in zip(rec.layers, rec.calls) if n == 0]
    assert idle == []
