"""Span tracer that measures rankfed's layers from outside the package.

The tracer replaces a function at the module attribute its caller looks up
(``rankfed.harness.local_train`` is what the round loop calls, not
``rankfed.client.local_train``), records one span per call and puts every
original attribute back on exit. Spans stay in memory until the caller
aggregates or writes them.

A span is ``(span_id, parent_id, name, start, end, request)``. The parent is
the innermost open span on the same thread; a span opened on a thread with
no open span (a worker of the harness pool) gets the open request span as
its parent, so the client work of a pooled round still hangs under its run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Target(NamedTuple):
    module: str
    attr: str
    span: str


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    request: int


class Tracer:
    """Context manager that wraps ``targets`` and records their calls.

    ``required`` targets must exist; others that a module no longer has are
    skipped and listed in ``missing``, so a refactor of one layer leaves the
    rest of the trace usable.
    """

    def __init__(self, targets, required: bool = False):
        self._targets = list(targets)
        self._required = required
        self._saved = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request = 0
        self._root = None
        self.spans: list[Span] = []
        self.missing: list[str] = []

    def __enter__(self):
        try:
            for t in self._targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr, None)
                if original is None:
                    if self._required:
                        raise AttributeError(f"{t.module}.{t.attr} does not exist")
                    self.missing.append(f"{t.module}.{t.attr}")
                    continue
                self._saved.append((module, t.attr, original))
                setattr(module, t.attr, self._wrap(t.span, original))
        except BaseException:
            self._restore()
            raise
        if self.missing:
            print("trace: not wrapped (missing): " + ", ".join(self.missing),
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end,
                                       self._request))
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, name: str, request: int):
        """Root span of one request (one run); pool-thread spans hang under it."""
        self._request = request
        span_id = next(self._ids)
        self._root = span_id
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(span_id, None, name, start, end, request))


def relabel(spans, rules) -> list[Span]:
    """Rename spans by the name of their parent.

    ``rules`` maps ``(name, parent_name)`` to a new name, so one wrapped
    function can be split by the layer that called it.
    """
    names = {s.span_id: s.name for s in spans}
    out = []
    for s in spans:
        new = rules.get((s.name, names.get(s.parent_id)))
        out.append(s._replace(name=new) if new else s)
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
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


def layer_table(spans) -> dict:
    """Per span name: total seconds, self seconds and call count.

    Self time is a span's duration minus the part of it that its child spans
    cover; children that overlap (pool threads) are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    table = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        row = table[s.name]
        duration = s.end - s.start
        row["s"] += duration
        row["self_s"] += duration - _covered(children.get(s.span_id, ()),
                                             s.start, s.end)
        row["calls"] += 1
    return dict(table)


def write_spans(spans, path) -> None:
    """Write spans as JSON lines, times in seconds from the first start."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({
                "request": s.request, "span": s.span_id, "parent": s.parent_id,
                "name": s.name, "start": s.start - t0, "end": s.end - t0,
            }) + "\n")
