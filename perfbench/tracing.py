"""In-memory span tracer that wraps functions from outside the program.

The benchmark never edits ``src/``: a traced run replaces selected module
functions and class methods with thin wrappers that record one span per
call, then puts every original object back.  Spans stay in memory and are
written once, when the run ends.

Definitions used by the per-layer metrics:

* ``total`` — busy time of a name: the summed duration of its outermost
  spans (a span nested inside another span of the same name is already
  covered by it).
* ``self`` — a span's duration minus the part of it that its direct
  child spans cover.
* ``calls`` — how many spans carry the name.

Stdlib only, so it can be imported before NumPy by the CLI bootstrap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple, Union

#: A span name, or a function of the wrapped call's ``(args, kwargs)``
#: returning one (used to name spans after an argument).
SpanName = Union[str, Callable[[tuple, dict], str]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    round_id: int


class Tracer:
    """Collects spans of wrapped calls; patches and restores attributes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.round_id = -1
        self.enabled = True
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def wrap(self, func: Callable, name: SpanName) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(label, tracer.clock(), math.nan, parent,
                        tracer.round_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = tracer.clock()

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (checks that are not the workload)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def patch(self, owner: Any, attribute: str, name: SpanName) -> None:
        """Replace ``owner.attribute`` with a traced wrapper.

        ``owner`` is a module (wrap the name where callers look it up) or
        a class (wrap the method for every instance).  Class-level
        ``classmethod``/``staticmethod`` objects are rewrapped as such.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(original.__func__, name))
        else:
            replacement = self.wrap(original, name)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, round)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end,
                                         span.parent, span.round_id]))
                handle.write("\n")


def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus what its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


@dataclass
class NameStats:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


def summarize(spans: Sequence[Span]) -> Dict[str, NameStats]:
    """Busy time, self time and call count per span name."""
    selfs = self_times(spans)
    stats: Dict[str, NameStats] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, NameStats())
        entry.calls += 1
        entry.self_s += selfs[index]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry.total_s += span.end - span.start
    return stats

