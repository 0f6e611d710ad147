"""In-memory span recorder and the arithmetic that turns spans into layer times.

A span is one call of a wrapped function: its name, its start and end on
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared by every process, so
the spans of a command process line up with the launch and exit times the
runner takes), the index of the span that was open when it started, and the
id of the workload run it belongs to.  Spans stay in memory until the
command ends and are written out once.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    def to_list(self) -> list:
        """Field order of the constructor, so ``Span(*row)`` reads it back."""
        return [self.name, self.start, self.end, self.parent, self.run]


class Recorder:
    """Collects spans and exact counts for one command process."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), int(value))

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`fn` inside a span called `name`; `after(result)` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.end(index)

        return traced


class Patcher:
    """Sets attributes and puts every original back on `restore`."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, wrappers: dict, modules) -> None:
        """Replace each original function by its wrapper in every module.

        A module that did ``from .fem import assemble`` holds its own
        reference to the original, so patching only the defining module
        would let those calls skip the span.
        """
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self.set(module, attr, hit[1])

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def check_nesting(spans: list[Span], tol: float = 1e-6) -> None:
    """Raise ValueError unless every span is closed and inside its parent."""
    for i, span in enumerate(spans):
        if not span.end >= span.start:
            raise ValueError(f"span {i} ({span.name}) is not closed")
        if span.parent is not None:
            outer = spans[span.parent]
            if span.start < outer.start - tol or span.end > outer.end + tol:
                raise ValueError(
                    f"span {i} ({span.name}) lies outside its parent ({outer.name})"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for child in sorted((spans[k] for k in kids), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: `s` (outermost calls only, so recursion counts once),
    `self_s` and `calls`."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            entry["s"] += span.end - span.start
    return out
