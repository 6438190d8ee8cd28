"""Tests for data-stream support in the DSL."""

import pytest

from repro.dsl import (
    HiveMindCompiler,
    Placement,
    Stream,
    Task,
    TaskGraph,
    TaskProfile,
    generate_apis,
)


def stream_graph(stream=None):
    stream = stream if stream is not None else Stream(
        "telemetry", rate_hz=8.0, item_mb=2.0)
    graph = TaskGraph("streaming")
    graph.add_task(Task(
        "capture", data_out=stream,
        profile=TaskProfile(0.005, input_mb=16.0, output_mb=16.0,
                            edge_only=True),
        children=["analyze"]))
    graph.add_task(Task(
        "analyze", data_in="telemetry", data_out="report",
        profile=TaskProfile(0.2, input_mb=16.0, output_mb=0.1,
                            parallelism=4),
        parents=["capture"]))
    return graph, stream


class TestStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            Stream("", 1, 1)
        with pytest.raises(ValueError):
            Stream("s", 0, 1)
        with pytest.raises(ValueError):
            Stream("s", 1, -1)
        with pytest.raises(ValueError):
            Stream("s", 1, 1, window_s=0)

    def test_derived_rates(self):
        stream = Stream("frames", rate_hz=8.0, item_mb=2.0, window_s=1.0)
        assert stream.mbs == 16.0

    def test_task_stream_accessors(self):
        graph, stream = stream_graph()
        capture = graph.task("capture")
        assert capture.output_stream is stream
        assert capture.data_out_name == "telemetry"
        analyze = graph.task("analyze")
        assert analyze.output_stream is None
        assert analyze.data_out_name == "report"


class TestStreamCodegen:
    def test_crossing_gets_subscription_api(self):
        graph, stream = stream_graph()
        placement = Placement.of({"capture": "edge", "analyze": "cloud"})
        bundle = generate_apis(graph, placement)
        artifact = bundle.artifact_for("capture", "analyze")
        assert artifact.kind == "thrift_stream"
        assert "subscribe" in artifact.source
        assert "deliver" in artifact.source
        assert "TelemetryWindow" in artifact.source

    def test_same_tier_stream_stays_local(self):
        graph, _ = stream_graph()
        placement = Placement.of({"capture": "edge", "analyze": "edge"})
        bundle = generate_apis(graph, placement)
        assert bundle.artifact_for("capture", "analyze").kind == "local"


class TestStreamCompiler:
    def test_stream_bandwidth_budgeted(self):
        graph, stream = stream_graph()
        compiler = HiveMindCompiler(n_devices=16)
        crossing = Placement.of({"capture": "edge", "analyze": "cloud"})
        estimate = compiler.estimate(graph, crossing)
        # 16 devices x 16 MB/s stream = 256 MB/s demanded.
        assert estimate.network_mbs == pytest.approx(
            16 * stream.mbs, rel=0.01)

    def test_oversubscribed_stream_marked_infeasible(self):
        heavy = Stream("video", rate_hz=32.0, item_mb=8.0)  # 256 MB/s each
        graph, _ = stream_graph(heavy)
        compiler = HiveMindCompiler(n_devices=16)
        crossing = Placement.of({"capture": "edge", "analyze": "cloud"})
        assert not compiler.estimate(graph, crossing).feasible

    def test_compiler_prefers_edge_for_oversubscribed_stream(self):
        """A light consumer of a heavy stream belongs at the edge: the
        stream would drown the radio, while the device can absorb the
        compute."""
        heavy = Stream("video", rate_hz=32.0, item_mb=8.0)
        graph = TaskGraph("streaming")
        graph.add_task(Task(
            "capture", data_out=heavy,
            profile=TaskProfile(0.005, input_mb=16.0, output_mb=16.0,
                                edge_only=True),
            children=["analyze"]))
        graph.add_task(Task(
            "analyze", data_in="video", data_out="report",
            profile=TaskProfile(0.05, input_mb=16.0, output_mb=0.1),
            parents=["capture"]))
        result = HiveMindCompiler(n_devices=16).compile(graph)
        assert result.placement.tier_of("analyze") == "edge"
        assert result.chosen.estimate.feasible
