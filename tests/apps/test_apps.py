"""Tests for the application suite and scenario specs."""

import numpy as np
import pytest

from repro.apps import (
    CAR_MAZE,
    SCENARIO_A,
    SCENARIO_B,
    SUITE,
    TREASURE_HUNT,
    AppSpec,
    all_apps,
    app,
    scenario,
)
from repro.dsl import HiveMindCompiler, validate_graph


class TestSuite:
    def test_ten_applications(self):
        assert len(SUITE) == 10
        assert list(SUITE) == [f"S{i}" for i in range(1, 11)]

    def test_unknown_app(self):
        with pytest.raises(ValueError):
            app("S99")

    def test_app_lookup(self):
        assert app("S1").name == "face_recognition"
        assert len(all_apps()) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            AppSpec("X", "x", cloud_service_s=0, service_sigma=0.1,
                    edge_slowdown=1, input_mb=1, output_mb=1, parallelism=1)
        with pytest.raises(ValueError):
            AppSpec("X", "x", cloud_service_s=1, service_sigma=0.1,
                    edge_slowdown=0, input_mb=1, output_mb=1, parallelism=1)

    def test_light_apps_have_small_edge_slowdown(self):
        """S3/S4/S7 behave comparably on cloud and edge (Fig 4a)."""
        for key in ("S3", "S4", "S7"):
            assert SUITE[key].edge_slowdown < 2.0
        for key in ("S1", "S2", "S5", "S9", "S10"):
            assert SUITE[key].edge_slowdown >= 8.0

    def test_obstacle_avoidance_edge_pinned(self):
        assert SUITE["S4"].edge_pinned
        assert not SUITE["S1"].edge_pinned

    def test_maze_low_rate(self):
        """S6: drones move slowly in the maze -> fewer tasks per second."""
        assert SUITE["S6"].rate_hz < 0.5

    def test_sampling_distribution(self):
        rng = np.random.default_rng(3)
        spec = SUITE["S1"]
        samples = [spec.sample_cloud_service(rng) for _ in range(500)]
        assert np.median(samples) == pytest.approx(
            spec.cloud_service_s, rel=0.15)
        assert all(s > 0 for s in samples)

    def test_function_specs_unique_images(self):
        images = {spec.function_spec().image for spec in all_apps()}
        assert len(images) == 10

    def test_dsl_graph_valid_and_compilable(self):
        for spec in all_apps():
            graph, directives = spec.dsl_graph()
            validate_graph(graph, directives)
            result = HiveMindCompiler(n_devices=4).compile(
                graph, directives)
            assert result.chosen is not None

    def test_pinned_app_compiles_to_edge(self):
        graph, directives = SUITE["S4"].dsl_graph()
        result = HiveMindCompiler(n_devices=4).compile(graph, directives)
        assert result.placement.tier_of("process") == "edge"

    def test_heavy_app_compiles_to_cloud(self):
        graph, directives = SUITE["S10"].dsl_graph()
        result = HiveMindCompiler(n_devices=4).compile(graph, directives)
        assert result.placement.tier_of("process") == "cloud"


class TestScenarios:
    def test_lookup(self):
        assert scenario("ScA") is SCENARIO_A
        assert scenario("ScB") is SCENARIO_B
        with pytest.raises(ValueError):
            scenario("ScC")

    def test_scenario_b_has_dedup(self):
        assert SCENARIO_B.dedup is SUITE["S5"]
        assert SCENARIO_B.moving_targets
        assert SCENARIO_A.dedup is None

    def test_scenario_graphs_match_listing3(self):
        for spec in (SCENARIO_A, SCENARIO_B):
            graph, directives = spec.dsl_graph()
            assert set(graph.task_names) == {
                "createRoute", "collectImage", "obstacleAvoidance",
                "recognition", "aggregate"}
            warnings = validate_graph(graph, directives)
            assert warnings == []
            assert ("obstacleAvoidance", "recognition") in \
                graph.parallel_pairs
            assert ("recognition", "aggregate") in graph.serial_pairs
            assert graph.sync_points["aggregate"] == "all"
            assert directives.learning["recognition"] == "global"
            assert directives.placements["obstacleAvoidance"] == "edge"
            assert "recognition" in directives.persisted

    def test_scenario_graph_compiles_hybrid(self):
        graph, directives = SCENARIO_B.dsl_graph()
        result = HiveMindCompiler(n_devices=16).compile(graph, directives)
        placement = result.placement
        assert placement.tier_of("collectImage") == "edge"
        assert placement.tier_of("obstacleAvoidance") == "edge"
        assert placement.tier_of("aggregate") == "cloud"


class TestCarScenarios:
    def test_treasure_hunt_uses_ocr(self):
        assert TREASURE_HUNT.perception is SUITE["S9"]
        assert TREASURE_HUNT.panels == 10

    def test_maze_spec(self):
        assert CAR_MAZE.perception is SUITE["S6"]
        assert CAR_MAZE.maze_side > 0
