"""Spans recorded around calls into minmodlab, from outside the package.

The package's modules import each other's functions by name
(``from .lpsolve import solve``), so a call is traced by rebinding that
name in every module that holds it, the defining module included.
:class:`Tracer` is a context manager: it installs the wrappers on entry
and puts every original binding back on exit, so code run after it is
the unwrapped program.

Spans are kept in memory.  A span's self time is its duration minus the
part of its interval covered by its child spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the time its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


# Observer: (args, kwargs, result) -> attributes stored on the span.
Observer = Callable[[tuple, dict, object], dict]


class Tracer:
    """Wrap ``module.name`` targets in every module of ``modules``.

    ``targets`` is a list of (defining module, function name, span name,
    observer or None).  Each module attribute that *is* the original
    function is rebound to the wrapper while the tracer is active.
    """

    def __init__(self, modules, targets) -> None:
        self.modules = list(modules)
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, original, span_name: str, observe: Optional[Observer]):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, span_name, 0.0)
            spans.append(span)
            stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for defining, name, span_name, observe in self.targets:
                original = getattr(defining, name)
                wrapper = self._wrap(original, span_name, observe)
                for module in self.modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._rebound.append((module, name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._rebound:
            module, name, original = self._rebound.pop()
            setattr(module, name, original)
