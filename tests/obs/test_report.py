"""Latency-breakdown reports: the exact-sum partition property.

The contract: for every trace, the per-layer seconds sum to the root
span's end-to-end latency — nothing double-counted, nothing dropped.
Checked on hand-built traces here and on a full simulated S1
run in TestRealRun.
"""

import pytest

from repro import obs
from repro.obs import (SpanTracer, aggregate_breakdown, latency_reports,
                       trace_report)

pytestmark = pytest.mark.quick


def _build(events, tracer=None):
    """Build spans from (name, layer, start, end, parent_index|None)."""
    tracer = tracer if tracer is not None else SpanTracer()
    contexts = []
    for name, layer, start, end, parent in events:
        if parent is None:
            ctx = tracer.start_trace(name, layer, start)
        else:
            ctx = contexts[parent].span(name, layer, start)
        contexts.append(ctx)
        ctx.close(end)
    return tracer.spans


class TestTraceReport:
    def test_deepest_span_wins_each_interval(self):
        # task [0,10] > upload [1,4] > serialize [2,3]:
        # task keeps [0,1)+[4,10)=7s, network [1,2)+[3,4)=2s, exec 1s.
        spans = _build([
            ("task", "task", 0.0, 10.0, None),
            ("upload", "network", 1.0, 4.0, 0),
            ("serialize", "execution", 2.0, 3.0, 1),
        ])
        report = trace_report(spans)
        assert report.layers == {"task": 7.0, "network": 2.0,
                                 "execution": 1.0}
        assert report.latency_s == 10.0
        assert sum(report.layers.values()) == pytest.approx(10.0, abs=0)

    def test_tie_breaks_to_latest_started_span(self):
        # Two same-depth children overlap on [2,3): the later-started
        # one (the innermost work at that instant) wins the overlap.
        spans = _build([
            ("task", "task", 0.0, 4.0, None),
            ("early", "network", 1.0, 3.0, 0),
            ("late", "execution", 2.0, 3.0, 0),
        ])
        report = trace_report(spans)
        assert report.layers["execution"] == 1.0
        assert report.layers["network"] == 1.0

    def test_adjacent_same_name_segments_merge(self):
        spans = _build([
            ("task", "task", 0.0, 6.0, None),
            ("upload", "network", 1.0, 2.0, 0),
        ])
        # The root's intervals on either side of the child sum into one
        # layer entry.
        assert trace_report(spans).layers == {"task": 5.0, "network": 1.0}

    def test_zero_length_root(self):
        spans = _build([("task", "task", 5.0, 5.0, None)])
        report = trace_report(spans)
        assert report.latency_s == 0.0
        assert sum(report.layers.values()) == 0.0

    def test_no_root_returns_none(self):
        spans = _build([
            ("task", "task", 0.0, 1.0, None),
            ("upload", "network", 0.0, 1.0, 0),
        ])
        children_only = [s for s in spans if s.parent_id is not None]
        assert trace_report(children_only) is None


class TestAggregates:
    def test_latency_reports_sorted_by_start(self):
        tracer = SpanTracer()
        late = tracer.start_trace("task", "task", 5.0)
        early = tracer.start_trace("task", "task", 1.0)
        late.close(7.0)
        early.close(2.0)
        reports = latency_reports(tracer.spans)
        assert [r.root.start for r in reports] == [1.0, 5.0]

    def test_aggregate_fractions_sum_to_one(self):
        tracer = SpanTracer()  # shared: distinct trace ids per root
        spans = _build([
            ("task", "task", 0.0, 10.0, None),
            ("upload", "network", 1.0, 4.0, 0),
        ], tracer) + _build([
            ("task", "task", 0.0, 2.0, None),
            ("execute", "execution", 0.5, 1.5, 0),
        ], tracer)
        agg = aggregate_breakdown(spans, root_name="task")
        assert agg["traces"] == 2
        assert agg["total_latency_s"] == pytest.approx(12.0)
        assert sum(agg["layer_fractions"].values()) == pytest.approx(1.0)
        assert sum(agg["layer_seconds"].values()) == \
            pytest.approx(agg["total_latency_s"])

    def test_root_name_filter(self):
        tracer = SpanTracer()
        spans = _build([("task", "task", 0.0, 1.0, None)], tracer) + \
            _build([("flight", "edge", 0.0, 30.0, None)], tracer)
        assert aggregate_breakdown(spans, root_name="task")["traces"] == 1
        assert aggregate_breakdown(spans)["traces"] == 2


class TestRealRun:
    """The acceptance property on a real simulated S1 run: every
    request's per-layer breakdown sums to its end-to-end latency."""

    def test_s1_breakdowns_sum_exactly(self):
        from repro.apps import app
        from repro.platforms import SingleTierRunner, platform_config

        obs.install()
        SingleTierRunner(platform_config("centralized_faas"), app("S1"),
                         seed=0, duration_s=20.0,
                         load_fraction=0.6).run()
        tracer = obs.active_tracer()
        reports = [r for r in latency_reports(tracer.spans)
                   if r.root.name == "task"]
        assert len(reports) > 10  # the run actually produced requests
        for report in reports:
            tolerance = 1e-9 * max(1.0, report.latency_s)
            assert abs(sum(report.layers.values()) - report.latency_s) \
                <= tolerance
        # Roots are unique per trace and every span joined a trace.
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert len(roots) == len(tracer.traces())
