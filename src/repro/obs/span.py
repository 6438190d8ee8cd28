"""Causal spans: the building block of the observability layer.

A :class:`Span` is one timed, named interval of work attributed to a
layer of the stack (``edge``, ``network``, ``serverless``, ``data_io``,
``execution``, ...), linked to its parent by span id and to its request
by trace id. Spans are recorded *after the fact* with explicit
timestamps, which is what lets the analytic fast paths (virtual-clock
link departures, SwarmEngine legs, the k-server CouchDB heap) emit
synthesized spans at their closed-form instants: no kernel event, no RNG
draw, and no change to the simulation's event stream is ever needed to
trace it — the zero-overhead contract PR 4 established for chaos hooks.

The handle threaded through the stack is a :class:`TraceContext`. Code
that may or may not be traced carries one on its existing request
objects (``InvocationRequest.trace``) or receives one as an optional
argument, and guards every emission with a truthiness check::

    if trace:
        trace.emit("serialize", "network", grant_at, ser_end)

:data:`NULL_CONTEXT` — the handle when tracing is off — is falsy, so an
untraced run never allocates a span, never touches a tracer, and stays
byte-identical to a build without this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanTracer", "TraceContext", "NullTraceContext",
           "NULL_CONTEXT"]


@dataclass(frozen=True)
class Span:
    """One completed span. Frozen and picklable, so parallel-executor
    workers can ship their spans back to the coordinating process."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    attrs: Tuple[Tuple[str, Any], ...] = ()
    #: Which replica (parallel-executor task index) produced this span;
    #: 0 for serial runs. Becomes the exporter's ``pid``.
    replica: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr_dict(self) -> Dict[str, Any]:
        return dict(self.attrs)


class TraceContext:
    """An *open* span: the causal handle carried through the stack.

    Created by :meth:`SpanTracer.start_trace` (a root) or
    :meth:`TraceContext.span` (a child). Closing it records the
    finished :class:`Span`; :meth:`emit` records an already-finished
    child in one call — the form the analytic fast paths use, since
    their start/end instants are known in closed form.
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id",
                 "name", "layer", "start", "_attrs", "_closed")

    def __init__(self, tracer: "SpanTracer", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, layer: str,
                 start: float, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start = start
        self._attrs = attrs
        self._closed = False

    def __bool__(self) -> bool:
        return True

    def span(self, name: str, layer: str, start: float,
             **attrs: Any) -> "TraceContext":
        """Open a child span; close it later with :meth:`close`."""
        return TraceContext(self._tracer, self.trace_id,
                            self._tracer._next_span_id(), self.span_id,
                            name, layer, start, attrs)

    def emit(self, name: str, layer: str, start: float, end: float,
             **attrs: Any) -> None:
        """Record a finished child span (both instants already known)."""
        self._tracer.record(Span(
            trace_id=self.trace_id,
            span_id=self._tracer._next_span_id(),
            parent_id=self.span_id,
            name=name, layer=layer, start=start, end=end,
            attrs=tuple(sorted(attrs.items()))))

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes, included when this span closes."""
        self._attrs.update(attrs)

    def close(self, end: float, **attrs: Any) -> None:
        """Record this span. Idempotent: later closes are ignored (a
        straggler race can reach both completion paths)."""
        if self._closed:
            return
        self._closed = True
        if attrs:
            self._attrs.update(attrs)
        self._tracer.record(Span(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id, name=self.name, layer=self.layer,
            start=self.start, end=end,
            attrs=tuple(sorted(self._attrs.items()))))


class NullTraceContext:
    """The no-op handle used when tracing is off. Falsy, a singleton,
    and it returns itself from :meth:`span` so whole call chains cost
    one attribute lookup and one branch."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, layer: str, start: float,
             **attrs: Any) -> "NullTraceContext":
        return self

    def emit(self, name: str, layer: str, start: float, end: float,
             **attrs: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass

    def close(self, end: float, **attrs: Any) -> None:
        pass


NULL_CONTEXT = NullTraceContext()


class SpanTracer:
    """Accumulates completed spans for one process.

    Trace ids are allocated at DSL-task creation (one per task /
    invocation root); span ids are process-unique. :meth:`absorb`
    re-maps ids when merging spans shipped back from parallel-executor
    workers, so (replica, trace) timelines never collide.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- emission ---------------------------------------------------------
    def _next_span_id(self) -> int:
        return next(self._span_ids)

    def start_trace(self, name: str, layer: str, start: float,
                    **attrs: Any) -> TraceContext:
        """Open a new root span (one causal request timeline)."""
        return TraceContext(self, next(self._trace_ids),
                            self._next_span_id(), None,
                            name, layer, start, attrs)

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    # -- parallel-executor plumbing --------------------------------------
    def take_from(self, index: int) -> List[Span]:
        """Pop and return every span recorded at or after ``index``
        (the per-task delta a worker ships back in its TaskResult)."""
        delta = self.spans[index:]
        del self.spans[index:]
        return delta

    def absorb(self, spans: Iterable[Span], replica: int = 0) -> None:
        """Merge spans from another tracer (a pool worker), re-mapping
        trace and span ids into this tracer's id space and tagging each
        span with its replica index."""
        spans = list(spans)
        if not spans:
            return
        trace_map: Dict[int, int] = {}
        span_map: Dict[int, int] = {}
        for span in spans:
            if span.trace_id not in trace_map:
                trace_map[span.trace_id] = next(self._trace_ids)
            if span.span_id not in span_map:
                span_map[span.span_id] = self._next_span_id()
        for span in spans:
            parent = span.parent_id
            self.spans.append(replace(
                span,
                trace_id=trace_map[span.trace_id],
                span_id=span_map[span.span_id],
                parent_id=(span_map.get(parent) if parent is not None
                           else None),
                replica=replica))

    # -- queries ----------------------------------------------------------
    def traces(self) -> Dict[int, List[Span]]:
        """Spans grouped by trace id (absorption keeps ids unique)."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped
