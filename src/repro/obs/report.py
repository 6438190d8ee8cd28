"""Per-request latency-breakdown reports.

Given one trace's spans, the report partitions the root span's
``[start, end]`` window at every child-span boundary and attributes each
elementary interval to the *deepest* span covering it (ties broken by
latest start, then highest span id — i.e. the most recently opened
span). The per-layer sums therefore add up to the root's end-to-end
latency exactly (up to float summation error), which is the property the
fig12-style breakdowns need: nothing double-counted, nothing dropped.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from .span import Span

__all__ = ["TraceReport", "trace_report", "latency_reports",
           "aggregate_breakdown"]


class TraceReport:
    """The condensed view of one causal trace."""

    def __init__(self, trace_id: int, root: Span,
                 layers: Dict[str, float]):
        self.trace_id = trace_id
        self.root = root
        #: Seconds attributed to each layer; sums to ``latency_s``.
        self.layers = layers

    @property
    def latency_s(self) -> float:
        return self.root.duration


def _depths(spans: Sequence[Span]) -> Dict[int, int]:
    parents = {span.span_id: span.parent_id for span in spans}
    depths: Dict[int, int] = {}

    def depth(span_id: int) -> int:
        found = depths.get(span_id)
        if found is not None:
            return found
        parent = parents.get(span_id)
        value = 0 if parent is None or parent not in parents \
            else depth(parent) + 1
        depths[span_id] = value
        return value

    for span in spans:
        depth(span.span_id)
    return depths


def trace_report(spans: Sequence[Span]) -> Optional[TraceReport]:
    """Build the report for one trace's spans; None without a root."""
    roots = [span for span in spans if span.parent_id is None]
    if not roots:
        return None
    root = roots[0]
    lo, hi = root.start, root.end
    if hi <= lo:
        return TraceReport(root.trace_id, root, {root.layer: 0.0})
    depths = _depths(spans)
    by_start = {span.span_id: span.start for span in spans}
    # Every span boundary inside the root window partitions it.
    cuts = {lo, hi}
    for span in spans:
        if lo < span.start < hi:
            cuts.add(span.start)
        if lo < span.end < hi:
            cuts.add(span.end)
    boundaries = sorted(cuts)
    layers: Dict[str, float] = {}
    for a, b in zip(boundaries, boundaries[1:]):
        if b <= a:
            continue
        # Deepest covering span; ties go to the latest-started (then
        # highest-id) span — the innermost work at that instant.
        winner = root
        winner_key = (depths[root.span_id], root.start, root.span_id)
        for span in spans:
            if span.start <= a and span.end >= b and span is not root:
                key = (depths[span.span_id], by_start[span.span_id],
                       span.span_id)
                if key > winner_key:
                    winner, winner_key = span, key
        layers[winner.layer] = layers.get(winner.layer, 0.0) + (b - a)
    return TraceReport(root.trace_id, root, layers)


def latency_reports(spans: Iterable[Span]) -> List[TraceReport]:
    """One report per trace, ordered by root start time."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    reports = [report for report in
               (trace_report(group) for group in grouped.values())
               if report is not None]
    reports.sort(key=lambda r: (r.root.replica, r.root.start, r.trace_id))
    return reports


def aggregate_breakdown(spans: Iterable[Span],
                        root_name: Optional[str] = None) -> Dict[str, Any]:
    """Mean per-layer latency fractions across every trace.

    ``root_name`` restricts the aggregate to traces whose root span has
    that name (e.g. ``"task"`` for request traces, excluding flight
    traces).
    """
    reports = [report for report in latency_reports(spans)
               if root_name is None or report.root.name == root_name]
    totals: Dict[str, float] = {}
    latency = 0.0
    for report in reports:
        latency += report.latency_s
        for layer, seconds in report.layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    grand = sum(totals.values())
    return {
        "traces": len(reports),
        "total_latency_s": latency,
        "layer_seconds": totals,
        "layer_fractions": ({layer: seconds / grand
                             for layer, seconds in totals.items()}
                            if grand > 0 else {}),
    }
