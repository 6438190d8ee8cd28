"""``repro.obs`` — span-based causal tracing + structured observability.

Every task/invocation gets a trace id at creation; each layer (edge
compute, wireless transfers, Kafka, invoker queue/cold-start/execute,
CouchDB, straggler respawns, fault-recovery requeues) opens child spans
through a :class:`TraceContext` handle carried on the existing request
objects. On top of the spans: per-request critical-path/latency
breakdowns (:mod:`.report`), a Chrome ``trace_event`` exporter loadable
in Perfetto (:mod:`.export`), and structured run manifests
(:mod:`.manifest`).

Process-global state: one :class:`SpanTracer` per process, enabled by
``REPRO_TRACE=1`` in the environment (so parallel-executor workers
inherit it) or an explicit :func:`install`. When no tracer is active,
:func:`root_span` returns the falsy :data:`NULL_CONTEXT` singleton and
the whole layer costs one branch per call site — zero kernel events,
zero RNG draws, byte-identical runs (the zero-overhead contract).
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.flags import resolve
from .export import to_chrome_trace, write_chrome_trace, write_trace_files
from .manifest import RunManifest, git_revision, runtime_flags
from .report import (TraceReport, aggregate_breakdown, latency_reports,
                     trace_report)
from .span import NULL_CONTEXT, NullTraceContext, Span, SpanTracer, \
    TraceContext

__all__ = [
    "Span", "SpanTracer", "TraceContext", "NullTraceContext",
    "NULL_CONTEXT",
    "TraceReport", "trace_report", "latency_reports",
    "aggregate_breakdown",
    "to_chrome_trace", "write_chrome_trace", "write_trace_files",
    "RunManifest", "git_revision", "runtime_flags",
    "active_tracer", "tracing_enabled", "install", "reset", "root_span",
]

#: The process-global tracer; None while tracing is off.
_ACTIVE: Optional[SpanTracer] = None
#: Whether the REPRO_TRACE environment variable has been consulted.
_ENV_CHECKED = False


def active_tracer() -> Optional[SpanTracer]:
    """The process-global tracer, or None when tracing is off.

    First call consults ``REPRO_TRACE`` (so pool workers spawned with
    the variable set trace automatically); afterwards only
    :func:`install` / :func:`reset` change the answer.
    """
    global _ACTIVE, _ENV_CHECKED
    if _ACTIVE is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        if resolve("REPRO_TRACE"):
            _ACTIVE = SpanTracer()
    return _ACTIVE


def tracing_enabled() -> bool:
    return active_tracer() is not None


def install() -> SpanTracer:
    """Enable tracing for this process (idempotent when already on)."""
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    if _ACTIVE is None:
        _ACTIVE = SpanTracer()
    return _ACTIVE


def reset() -> None:
    """Disable tracing and forget the environment decision (tests)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = False


def root_span(name: str, layer: str, start: float,
              **attrs: Any) -> Any:
    """Open a new trace root, or return :data:`NULL_CONTEXT` when off.

    This is the single entry point the runners use at task creation;
    everything downstream hangs off the returned handle.
    """
    tracer = active_tracer()
    if tracer is None:
        return NULL_CONTEXT
    return tracer.start_trace(name, layer, start, **attrs)
