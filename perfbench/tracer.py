"""In-memory span tracer that wraps public functions of the library.

The tracer lives entirely in the benchmark: it replaces a class method or a
module-level function with a thin wrapper that records a span (name, start,
end, parent span, operation id) around each call, and puts the original back
on :meth:`Tracer.restore`.  Nothing inside ``src/`` knows it is traced.

Spans are kept per thread (a thread-local stack gives the parent link), so
the serving engine's flusher thread and the HTTP handler threads each build
their own trees.  A span opened with no parent and no active operation starts
a fresh operation id; :meth:`Tracer.operation` pins one explicitly so every
span of one fit, interaction or request shares it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    op_kind: str
    name: str
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects the spans of wrapped callables on any thread; one per run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, kind: str) -> Iterator[int]:
        """Pin one operation id for every span this thread opens inside."""
        op_id = next(self._ids)
        previous = getattr(self._local, "op", None)
        self._local.op = (op_id, kind)
        try:
            yield op_id
        finally:
            self._local.op = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op_id, op_kind = parent.op_id, parent.op_kind
        else:
            pinned = getattr(self._local, "op", None)
            op_id, op_kind = pinned if pinned else (next(self._ids), "implicit")
        record = Span(
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            op_id=op_id,
            op_kind=op_kind,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _traced(self, original, name: str, on_return=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(record, args, result)
            return result

        return traced

    def wrap_method(self, cls: type, attr: str, name: str, on_return=None) -> None:
        """Trace ``cls.attr`` for every instance (and subclass not overriding it).

        ``on_return(span, args, result)`` runs after each traced call, for
        reading what the call left behind (e.g. a fitted model's report).
        """
        original = cls.__dict__[attr]
        setattr(cls, attr, self._traced(original, name, on_return))
        self._patches.append((cls, attr, original))

    def wrap_function(self, function, name: str) -> None:
        """Trace a module-level function under every name it was imported as.

        ``from x import f`` binds ``f`` in the importing module, so patching
        the defining module alone would miss those callers; every loaded
        ``repro`` module holding the very same object is rebound.
        """
        traced = self._traced(function, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def restore(self) -> None:
        """Put every original callable back (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        return {
            span.span_id: span.duration - child_time.get(span.span_id, 0.0)
            for span in self.spans
        }

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name`` span."""
        by_id = {span.span_id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent_id)
            nested = False
            while parent is not None:
                if parent.name == name:
                    nested = True
                    break
                parent = by_id.get(parent.parent_id)
            if not nested:
                total += span.duration
        return total

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans in the Trace Event Format (chrome://tracing, Perfetto)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span.start for span in self.spans)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": os.getpid(),
                "tid": span.thread,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "op": span.op_id,
                    "op_kind": span.op_kind,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
