"""Tests for codegen and the HiveMind compiler."""

import pytest

from repro.config import PaperConstants
from repro.dsl import (
    ExecTimeConstraint,
    HiveMindCompiler,
    Placement,
    Task,
    TaskGraph,
    TaskProfile,
    ValidationError,
    generate_apis,
)
from tests.dsl.test_dsl import scenario_b_graph


class TestCodegen:
    def test_api_kinds_match_tiers(self):
        graph = scenario_b_graph()
        placement = Placement.of({
            "createRoute": "cloud", "collectImage": "edge",
            "obstacleAvoidance": "edge", "faceRecognition": "cloud",
            "deduplication": "cloud"})
        bundle = generate_apis(graph, placement)
        assert bundle.artifact_for(
            "createRoute", "collectImage").kind == "thrift_rpc"
        assert bundle.artifact_for(
            "collectImage", "faceRecognition").kind == "thrift_rpc"
        assert bundle.artifact_for(
            "collectImage", "obstacleAvoidance").kind == "local"
        assert bundle.artifact_for(
            "faceRecognition", "deduplication").kind == "openwhisk"

    def test_thrift_idl_structure(self):
        graph = scenario_b_graph()
        placement = Placement.of({
            "createRoute": "cloud", "collectImage": "edge",
            "obstacleAvoidance": "edge", "faceRecognition": "cloud",
            "deduplication": "cloud"})
        bundle = generate_apis(graph, placement)
        idl = bundle.artifact_for("collectImage", "faceRecognition").source
        assert "service CollectImageToFaceRecognition" in idl
        assert "oneway void submit" in idl
        assert bundle.artifact_for(
            "collectImage", "faceRecognition").language == "cpp"

    def test_openwhisk_wrapper_mentions_handles(self):
        graph = scenario_b_graph()
        placement = Placement.of({name: "cloud"
                                  for name in graph.task_names})
        # collectImage is edge-only, but codegen itself is placement-
        # agnostic; synthesis enforces pinning upstream.
        bundle = generate_apis(graph, placement)
        wrapper = bundle.artifact_for(
            "faceRecognition", "deduplication").source
        assert "handle" in wrapper
        assert "def main(params):" in wrapper

    def test_count_by_kind(self):
        graph = scenario_b_graph()
        placement = Placement.of({
            "createRoute": "cloud", "collectImage": "edge",
            "obstacleAvoidance": "edge", "faceRecognition": "cloud",
            "deduplication": "cloud"})
        counts = generate_apis(graph, placement).count_by_kind()
        assert counts == {"thrift_rpc": 2, "local": 1, "openwhisk": 1}

    def test_unknown_artifact_lookup(self):
        graph = scenario_b_graph()
        placement = Placement.of({
            "createRoute": "cloud", "collectImage": "edge",
            "obstacleAvoidance": "edge", "faceRecognition": "cloud",
            "deduplication": "cloud"})
        bundle = generate_apis(graph, placement)
        with pytest.raises(KeyError):
            bundle.artifact_for("deduplication", "createRoute")


class TestCompiler:
    def test_device_kind_validation(self):
        with pytest.raises(ValueError):
            HiveMindCompiler(device_kind="submarine")
        with pytest.raises(ValueError):
            HiveMindCompiler(n_devices=0)

    def test_compile_ranks_feasible_first(self):
        compiler = HiveMindCompiler(n_devices=16)
        result = compiler.compile(scenario_b_graph())
        assert result.chosen is result.plans[0]
        assert result.chosen.estimate.feasible
        latencies = [p.estimate.latency_s for p in result.plans
                     if p.estimate.feasible]
        assert latencies == sorted(latencies)

    def test_hybrid_beats_pure_edge_for_heavy_compute(self):
        """The chosen plan must offload face recognition to the cloud."""
        compiler = HiveMindCompiler(n_devices=16)
        result = compiler.compile(scenario_b_graph())
        assert result.placement.tier_of("faceRecognition") == "cloud"

    def test_missing_profile_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a"))
        with pytest.raises(ValueError):
            HiveMindCompiler().compile(graph)

    def test_estimates_scale_with_devices(self):
        graph = scenario_b_graph()
        small = HiveMindCompiler(n_devices=4)
        large = HiveMindCompiler(n_devices=1000)
        all_cloud = Placement.of({
            "createRoute": "cloud", "collectImage": "edge",
            "obstacleAvoidance": "cloud", "faceRecognition": "cloud",
            "deduplication": "cloud"})
        estimate_small = small.estimate(graph, all_cloud)
        estimate_large = large.estimate(graph, all_cloud)
        assert estimate_large.network_mbs > estimate_small.network_mbs
        assert estimate_large.latency_s > estimate_small.latency_s

    def test_acceleration_reduces_latency(self):
        graph = scenario_b_graph()
        fast = HiveMindCompiler(n_devices=16, accelerated=True)
        slow = HiveMindCompiler(n_devices=16, accelerated=False)
        placement = fast.compile(graph).placement
        assert fast.estimate(graph, placement).latency_s < \
            slow.estimate(graph, placement).latency_s

    def test_constraint_filtering(self):
        graph = scenario_b_graph()
        graph.constraints = [ExecTimeConstraint(10.0)]
        result = HiveMindCompiler(n_devices=16).compile(graph)
        assert all(constraint.satisfied_by(result.chosen.estimate)
                   for constraint in graph.constraints)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            ExecTimeConstraint(0)
        with pytest.raises(ValueError):
            ExecTimeConstraint(-1)

    def test_warnings_propagated(self):
        # The consumer reads the producer's output but declares no
        # parent: compile refuses the graph and names the warning.
        graph = TaskGraph()
        graph.add_task(Task("producer", data_out="frames",
                            profile=TaskProfile(0.1, output_mb=1)))
        graph.add_task(Task("consumer", data_in="frames",
                            profile=TaskProfile(0.1)))
        with pytest.raises(ValidationError,
                           match="'consumer' consumes 'frames'"):
            HiveMindCompiler().compile(graph)
