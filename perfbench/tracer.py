"""In-memory span recorder with exclusive (self) time, plus runtime wrappers.

A span is one call into a layer: its layer, start, end and the span that
was open when it started (its parent).  The recorder keeps a parent
stack, so a span's self time is its duration minus the time its child
spans cover.  Re-entrant spans (a layer calling back into itself) need
no special case: the inner span is a child of the outer one, so its
duration leaves the outer span's self time and lands in its own.

Spans are appended to flat typed arrays, so hundreds of thousands of
them stay cheap to hold until :meth:`SpanRecorder.save` writes them out
at the end of a run.

:class:`Patches` installs wrappers on classes and modules at runtime and
restores every original attribute afterwards; the program's source is
never edited.
"""

from __future__ import annotations

import functools
import time
from array import array


class SpanRecorder:
    """Records spans of named layers and accumulates per-layer self time."""

    def __init__(self, layers, clock=time.perf_counter) -> None:
        self.layers: tuple[str, ...] = tuple(layers)
        self.clock = clock
        n = len(self.layers)
        #: Exclusive host seconds and completed-span counts per layer.
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: Summed duration of spans opened with no parent; everything
        #: else in a traced interval is unattributed glue.
        self.top_level_s = 0.0
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # Open spans: [span index, start time, time covered by children].
        self._stack: list[list] = []

    def index(self, layer: str) -> int:
        return self.layers.index(layer)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, lid: int) -> None:
        stack = self._stack
        idx = len(self.start)
        self.parent.append(stack[-1][0] if stack else -1)
        self.layer.append(lid)
        t = self.clock()
        self.start.append(t)
        self.end.append(t)
        stack.append([idx, t, 0.0])

    def exit(self, lid: int) -> None:
        """Close the innermost span, charging it to layer ``lid``.

        The layer may differ from the one the span was opened with: a
        driver wave is only known to be a fast-path wave once it ends.
        """
        t = self.clock()
        idx, t0, child = self._stack.pop()
        dur = t - t0
        self.end[idx] = t
        self.layer[idx] = lid
        self.self_s[lid] += dur - child
        self.calls[lid] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level_s += dur

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        import numpy as np
        np.savez(path, layers=np.array(self.layers),
                 layer=np.array(self.layer, dtype=np.uint16),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 parent=np.array(self.parent, dtype=np.int32))


def traced_call(rec: SpanRecorder, lid: int, fn):
    """``fn`` wrapped in one span of layer ``lid`` per call."""
    enter, leave = rec.enter, rec.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(lid)
    return traced


def traced_iter(rec: SpanRecorder, lid: int, iterable):
    """Iterate ``iterable`` with each step (one ``next``) as a span."""
    enter, leave = rec.enter, rec.exit
    it = iter(iterable)
    while True:
        enter(lid)
        try:
            item = next(it)
        except StopIteration:
            leave(lid)
            return
        except BaseException:
            leave(lid)
            raise
        leave(lid)
        yield item


def traced_generator(rec: SpanRecorder, lid: int, fn):
    """``fn`` returning an iterable; the call and every step are spans."""
    call = traced_call(rec, lid, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return traced_iter(rec, lid, call(*args, **kwargs))
    return traced


class Patches:
    """Attribute replacements on classes and modules, undone by restore."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    @property
    def targets(self) -> list[tuple[object, str]]:
        """Every ``(owner, name)`` currently replaced, in install order."""
        return [(owner, name) for owner, name, _ in self._saved]

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(current)``, remembering the original.

        The original is read from ``owner``'s own namespace, so an
        inherited attribute is patched on ``owner`` and removed again
        by :meth:`restore`.
        """
        original = vars(owner).get(name, _MISSING)
        current = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(current))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


_MISSING = object()
