"""Cross-layer trace spans.

One :class:`Tracer` is shared by every layer of a system.  A span opened
while another span is active becomes its child and inherits the trace
id, so a single ``ps_invoke`` produces one trace whose tree mirrors the
paper's request path: syscall -> DED stage pipeline -> membrane check ->
DBFS op -> journal commit -> block I/O.  Spans carry free-form
attributes (subject_id, purpose, shard index, cache hit/miss) set either
at creation or mid-flight via :meth:`Span.set_attr`.

Determinism and bounds:

* ids come from per-tracer monotonic counters, not randomness, so two
  identical serial runs produce identical trace structures (concurrent
  runs keep unique ids but may interleave assignment order);
* finished spans live in a bounded ring buffer (``max_spans``); a
  long-running system can stay traced without unbounded memory;
* the active-span stack is **per thread** (``threading.local``): each
  request-engine worker builds its own span tree, so a span opened on
  one thread can never be adopted as the parent of another thread's
  span.  A span leaves the stack it was pushed on, whichever thread
  closes it.  The ring-buffer append and the id counters are single atomic
  operations under CPython, so finished spans from all threads land in
  one shared, bounded buffer without a lock.

Exports: JSONL (one span per line, loadable with ``json.loads``) and
the Chrome ``trace_event`` format (open in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from time import perf_counter_ns
from typing import Deque, Dict, List, Optional

from .histogram import LatencyHistogram


class Span:
    """One timed, attributed node in a trace tree, and the ``with`` block
    that times it.

    :meth:`Tracer.span` and ``Telemetry.op`` hand out an unopened span.
    Entering it reads the clock once, takes its ids and parent from the
    calling thread's stack, pushes itself there and keeps that stack;
    exiting reads the clock once, pops it from the kept stack (so a span
    closed on another thread still leaves the opening thread's stack),
    appends it to the tracer's ring and, for an op, records the duration
    in the op's histogram.  A finished span then drops its tracer, stack
    and histogram: the ring holds spans, not the threads that made them.

    A span built without a tracer is an op under
    ``Telemetry(tracing=False)``: it only times the histogram, and its
    ``with`` target is :data:`NULL_SPAN`.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_ns", "end_ns", "attrs",
                 "_tracer", "_stack", "_histogram")

    def __init__(self, tracer: Optional["Tracer"], name: str,
                 attrs: Dict[str, object],
                 histogram: Optional[LatencyHistogram] = None):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._histogram = histogram

    def __enter__(self):
        tracer = self._tracer
        if tracer is None:
            self.start_ns = perf_counter_ns()
            return NULL_SPAN
        stacks = tracer._stacks
        try:
            stack = stacks.stack
        except AttributeError:
            stack = stacks.stack = []
        if stack:
            parent = stack[-1]
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = next(tracer._trace_ids)
            self.parent_id = None
        self.span_id = next(tracer._span_ids)
        stack.append(self)
        self._stack = stack
        self.start_ns = self.end_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = self.end_ns = perf_counter_ns()
        if self._histogram is not None:
            self._histogram.observe(end_ns - self.start_ns)
        tracer = self._tracer
        if tracer is None:
            return False
        stack = self._stack
        if (stack and stack[-1] is self
                and getattr(tracer._stacks, "stack", None) is stack):
            stack.pop()
        else:
            # Closed out of order or on another thread: one atomic
            # remove, which keeps any span the owning thread has pushed.
            try:
                stack.remove(self)
            except ValueError:
                pass
        tracer._finished.append(self)
        self._tracer = self._stack = self._histogram = None
        return False

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1000.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id}, "
                f"dur={self.duration_us:.1f}us)")


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer."""

    __slots__ = ()
    trace_id = span_id = 0
    parent_id = None
    name = ""
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value: object) -> None:
        pass

    def set_attrs(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Factory and bounded buffer for spans."""

    def __init__(self, enabled: bool = True, max_spans: int = 20000):
        self.enabled = enabled
        self.max_spans = max_spans
        # deque.append with a maxlen is a single atomic operation under
        # CPython, so concurrent workers share this buffer lock-free.
        self._finished: Deque[Span] = deque(maxlen=max_spans)
        # One active-span stack per thread: parentage is a property of
        # the call stack, and call stacks are per-thread.
        self._stacks = threading.local()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def span(self, name: str, **attrs: object):
        """A child of the innermost active span (or a new trace), opened
        by its ``with`` block."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    @property
    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost active span, if any."""
        stack = getattr(self._stacks, "stack", None)
        return stack[-1] if stack else None

    # -- reads -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return list(self._finished)

    def traces(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by trace id, each sorted by start."""
        grouped: Dict[int, List[Span]] = {}
        for span in self._finished:
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start_ns, s.span_id))
        return grouped

    def clear(self) -> None:
        self._finished.clear()

    def __len__(self) -> int:
        return len(self._finished)

    # -- exports ---------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns span count."""
        spans = sorted(self._finished, key=lambda s: (s.start_ns, s.span_id))
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(spans)

    def export_chrome_trace(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (complete 'X' events)."""
        spans = sorted(self._finished, key=lambda s: (s.start_ns, s.span_id))
        events = []
        for span in spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": max(span.duration_ns / 1000.0, 0.001),
                "pid": 1,
                "tid": span.trace_id,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
        return len(events)
