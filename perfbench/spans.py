"""Spans recorded around the library's public functions.

The benchmark rebinds module attributes to timing wrappers while a traced
run lasts and puts the original functions back afterwards; nothing under
`src/` knows about it. Library code calls these functions through module
globals (or, for `shapes`, through the names `decls` imported), so the
rebinding also catches the calls one module makes into another.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Sequence

# Observers turn a call's arguments and result into work counts.
Observer = Callable[[tuple, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    input_id: str | None
    work: dict = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; `active` is off outside timed regions, so
    untimed reference checks that reach the same functions add nothing."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.input_id: str | None = None
        self.active = False

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.input_id)
            self.spans.append(span)
            self.stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if observe is not None:
                span.work = observe(args, result)
            return result

        return traced


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    name: str  # span name, `<layer>.<function>`
    observe: Observer | None = None


class Installed:
    """Wrappers bound into modules; `restore` puts the originals back."""

    def __init__(self, targets: Sequence[Target], rec: Recorder) -> None:
        self.originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in targets]
        for t in targets:
            setattr(t.module, t.attr, rec.wrap(getattr(t.module, t.attr), t.name, t.observe))

    def restore(self) -> None:
        for module, attr, fn in self.originals:
            setattr(module, attr, fn)


def snapshot(targets: Iterable[Target]) -> dict:
    """The functions the targets are bound to now, taken right after
    import, before anything can have wrapped them."""
    return {(t.module.__name__, t.attr): getattr(t.module, t.attr) for t in targets}


def assert_original(targets: Iterable[Target], originals: dict) -> None:
    """Every target attribute is the function the package defined."""
    for t in targets:
        fn = getattr(t.module, t.attr)
        if fn is not originals[(t.module.__name__, t.attr)] or hasattr(fn, "__wrapped__"):
            raise RuntimeError(f"{t.module.__name__}.{t.attr} is not the original function")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out
