"""Integration tests for scenario and car runners."""

import pytest

from repro.apps import CAR_MAZE, SCENARIO_A, SCENARIO_B, TREASURE_HUNT
from repro.platforms import (
    CarScenarioRunner,
    ScenarioRunner,
    platform_config,
)


def run_scenario(platform, scenario, **kwargs):
    return ScenarioRunner(platform_config(platform), scenario,
                          seed=5, **kwargs).run()


class TestScenarioRunner:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                           passes=0)

    def test_scenario_a_finds_items(self):
        result = run_scenario("hivemind", SCENARIO_A)
        assert result.completed
        found = result.extras["items_found"]
        assert found >= 0.8 * result.extras["targets"]

    def test_scenario_b_counts_people(self):
        # Two coverage passes: moving people can dodge a single sweep.
        result = run_scenario("hivemind", SCENARIO_B, passes=2)
        unique = result.extras["unique_people"]
        targets = result.extras["targets"]
        assert targets - 5 <= unique <= targets + 2

    def test_fig1_execution_time_ordering(self):
        makespans = {
            platform: run_scenario(platform, SCENARIO_A).extras[
                "makespan_s"]
            for platform in ("centralized_faas", "distributed_edge",
                             "hivemind")
        }
        assert makespans["hivemind"] < makespans["centralized_faas"]
        assert makespans["hivemind"] < makespans["distributed_edge"]

    def test_fig1_battery_ordering(self):
        batteries = {
            platform: run_scenario(platform, SCENARIO_A).battery_summary()[0]
            for platform in ("centralized_faas", "distributed_edge",
                             "hivemind")
        }
        assert batteries["hivemind"] < batteries["centralized_faas"]
        assert batteries["hivemind"] < batteries["distributed_edge"]

    def test_device_failure_repartitions_and_completes(self):
        result = run_scenario("hivemind", SCENARIO_A,
                              fail_devices_at=[(3, 10.0)])
        assert "drone0003" in result.extras["failed_devices"]
        # The failed drone's region was inherited: mission still covers
        # the field and completes.
        assert result.completed

    def test_device_failure_without_global_view_loses_coverage(self):
        result = run_scenario("distributed_edge", SCENARIO_A,
                              fail_devices_at=[(3, 10.0)])
        assert not result.completed

    def test_retraining_mode_override(self):
        result = run_scenario("hivemind", SCENARIO_A, retraining="none",
                              passes=2)
        tally = result.extras["tally"]
        assert tally.decisions > 0

    def test_multiple_passes_extend_mission(self):
        single = run_scenario("hivemind", SCENARIO_A)
        double = run_scenario("hivemind", SCENARIO_A, passes=2)
        assert double.extras["makespan_s"] > 1.5 * \
            single.extras["makespan_s"]

    def test_swarm_scaling_keeps_hivemind_flat(self):
        small = run_scenario("hivemind", SCENARIO_A)
        large = run_scenario("hivemind", SCENARIO_A, n_devices=64)
        assert large.extras["makespan_s"] < 1.6 * \
            small.extras["makespan_s"]


class TestCarRunner:
    def test_treasure_hunt_completes_all_cars(self):
        result = CarScenarioRunner(platform_config("hivemind"),
                                   TREASURE_HUNT, seed=3).run()
        jobs = result.extras["job_latencies"]
        assert len(jobs) == 14

    def test_maze_completes(self):
        result = CarScenarioRunner(platform_config("hivemind"),
                                   CAR_MAZE, seed=3).run()
        assert len(result.extras["job_latencies"]) == 14

    def test_hivemind_beats_distributed_for_cars(self):
        hivemind = CarScenarioRunner(platform_config("hivemind"),
                                     TREASURE_HUNT, seed=3).run()
        edge = CarScenarioRunner(platform_config("distributed_edge"),
                                 TREASURE_HUNT, seed=3).run()
        assert hivemind.extras["job_latencies"].median < \
            edge.extras["job_latencies"].median


class TestPersistDirective:
    def test_persisted_outputs_stored(self):
        result = run_scenario("hivemind", SCENARIO_B)
        # Listing 3 persists recognition and aggregate outputs.
        assert result.extras["persisted_documents"] > 100

    def test_distributed_platform_has_no_cloud_store(self):
        result = run_scenario("distributed_edge", SCENARIO_B)
        assert result.extras["persisted_documents"] == 0
