"""Span recorder for the traced benchmark run.

Layers are timed from outside the program: each named function is replaced,
on the module it is called from, by a wrapper that records one span per
call.  A span holds a name, a start, an end and the index of the span that
was open when it began.  Spans stay in memory; the run writes them out when
it ends.  Nothing here imports numpy, so the recorder adds no work of its own
to the layers it times beyond two clock reads and four list appends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

NO_PARENT = -1


@dataclass(frozen=True)
class Layer:
    """One function to wrap: ``module.attr`` recorded under ``name``.

    ``observe(recorder, name, args, kwargs, result)`` may add counts for the
    layer after each call, outside the span.
    """

    module: str
    attr: str
    name: str
    observe: Callable | None = None


@dataclass
class Recorder:
    """In-memory span store; one entry per wrapped call, in start order."""

    clock: Callable[[], float] = time.perf_counter
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)  # layers that could not be wrapped
    _open: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    def count(self, name: str, key: str, amount: float = 1.0) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0.0) + amount

    def high_water(self, name: str, key: str, value: float) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[key] = max(bucket.get(key, value), value)

    def dump(self) -> dict:
        """Spans as plain lists, ready for ``json.dump``."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [code[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counters": self.counters,
        }


def _wrap(recorder: Recorder, layer: Layer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if layer.observe is not None:
            layer.observe(recorder, layer.name, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def traced(recorder: Recorder, layers):
    """Wrap every layer that exists for the duration of the block.

    Layers whose module or function is missing are added to
    ``recorder.absent`` and reported as absent rather than failing the run,
    because later versions of the program may rename or delete them.
    """
    patched = []
    absent = recorder.absent
    try:
        for layer in layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                absent.add(layer.name)
                continue
            fn = getattr(module, layer.attr, None)
            if not callable(fn):
                absent.add(layer.name)
                continue
            setattr(module, layer.attr, _wrap(recorder, layer, fn))
            patched.append((module, layer.attr, fn))
        yield recorder
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [
        (e - s) - _covered(children.get(i, []), s, e)
        for i, (s, e) in enumerate(zip(starts, ends))
    ]


def summarize(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Per layer name: calls, total duration, total self time, and counters."""
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    out: dict[str, dict[str, float]] = {}
    for name, s, e, own in zip(recorder.names, recorder.starts, recorder.ends, selfs):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += own
    for name, counts in recorder.counters.items():
        out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counts)
    return out


def root_total(recorder: Recorder) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(
        e - s
        for s, e, p in zip(recorder.starts, recorder.ends, recorder.parents)
        if p == NO_PARENT
    )
