"""In-memory spans for the traced benchmark run, and the self-time arithmetic.

A span records a name, start and end times, the span that caused it and the
op it belongs to, plus counts (rows, bytes, epochs) taken at the same
boundary. Spans are recorded only while an op is open, so calls made by the
benchmark's own checks never show up. Nothing is written to disk here;
run.py dumps `Tracer.spans` once, when the run ends.

Wrappers are installed by `Tracer.patched`, which replaces attributes of
modules and classes and puts every original object back on exit, also when
the op raises.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

Counter = Callable[[tuple, dict, object], dict]

ROOT_SPAN = "bench.op"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op_id,
            "counts": self.counts,
        }


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` becomes a span called `span`.

    owner is a module or a class. For a class, attr is looked up in the
    class's own __dict__ so that classmethods keep their descriptor.
    """

    owner: object
    attr: str
    span: str
    counter: Optional[Counter] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: Optional[int] = None

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Open the root span of one op; spans opened inside belong to it."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; the yielded dict takes counts for it."""
        if self._op is None:
            yield {}
            return
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(len(self.spans), name, self.clock(), 0.0, parent, self._op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s.counts
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None and self._op is not None:
                    counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def patched(self, targets: Iterable[Target]) -> Iterator[None]:
        """Install a wrapper for every target; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, t.span, t.counter))
                else:
                    wrapped = self.wrap(original, t.span, t.counter)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - _covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def op_metrics(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-op totals keyed by metric name.

    For every span name N and every layer L (the part of N before the first
    dot): N.self_s, N.calls, L.self_s, and N.<count> / L.<count> summed over
    the op's spans. The L.self_s values of one op add up to its root span.
    """
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        m = out[s.op_id]
        layer = s.name.split(".", 1)[0]
        m[f"{s.name}.self_s"] += selfs[s.span_id]
        m[f"{s.name}.calls"] += 1
        m[f"{layer}.self_s"] += selfs[s.span_id]
        for key, value in s.counts.items():
            m[f"{s.name}.{key}"] += value
            m[f"{layer}.{key}"] += value
        if s.name == ROOT_SPAN:
            m["trace.op_s"] += s.end - s.start
    return {op: dict(m) for op, m in out.items()}
