"""Tests for the DSL: AST, directives, validation, synthesis."""

import pytest

from repro.dsl import (
    DirectiveSet,
    Learn,
    Parallel,
    Persist,
    Place,
    Placement,
    Serial,
    Synchronize,
    SynthesisError,
    Task,
    TaskGraph,
    TaskProfile,
    ValidationError,
    enumerate_placements,
    validate_graph,
)


def scenario_b_graph():
    """The paper's Listing 3 graph: people recognition + deduplication."""
    graph = TaskGraph("scenario_b")
    graph.add_task(Task(
        "createRoute", data_in="map", data_out="route",
        profile=TaskProfile(0.02, output_mb=0.01),
        children=["collectImage"]))
    graph.add_task(Task(
        "collectImage", data_out="sensorData",
        profile=TaskProfile(0.01, input_mb=10.0, output_mb=10.0,
                            edge_only=True),
        parents=["createRoute"],
        children=["obstacleAvoidance", "faceRecognition"]))
    graph.add_task(Task(
        "obstacleAvoidance", data_in="sensorData", data_out="adjustRoute",
        profile=TaskProfile(0.06, input_mb=4.0, output_mb=0.01),
        parents=["collectImage"]))
    graph.add_task(Task(
        "faceRecognition", data_in="sensorData", data_out="recognitionStats",
        profile=TaskProfile(0.3, input_mb=10.0, output_mb=0.5,
                            parallelism=8),
        parents=["collectImage"], children=["deduplication"]))
    graph.add_task(Task(
        "deduplication", data_in="recognitionStats", data_out="dedupList",
        profile=TaskProfile(0.5, input_mb=0.5, output_mb=0.05,
                            cloud_only=True),
        parents=["faceRecognition"]))
    Parallel(graph, "obstacleAvoidance", "faceRecognition")
    Serial(graph, "faceRecognition", "deduplication")
    Synchronize(graph, "deduplication", "all")
    return graph


class TestTaskGraph:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task("")
        with pytest.raises(ValueError):
            Task("t", parents=["t"])

    def test_duplicate_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a"))
        with pytest.raises(ValueError):
            graph.add_task(Task("a"))

    def test_edges_deduplicated_across_directions(self):
        graph = TaskGraph()
        graph.add_task(Task("a", children=["b"]))
        graph.add_task(Task("b", parents=["a"]))
        assert graph.edges() == [("a", "b")]

    def test_roots_and_lookups(self):
        graph = scenario_b_graph()
        assert [t.name for t in graph.roots()] == ["createRoute"]
        assert graph.children_of("collectImage") == [
            "obstacleAvoidance", "faceRecognition"]
        assert graph.parents_of("deduplication") == ["faceRecognition"]

    def test_topological_order(self):
        order = scenario_b_graph().topological_order()
        assert order.index("createRoute") < order.index("collectImage")
        assert order.index("faceRecognition") < order.index("deduplication")

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", children=["b"]))
        graph.add_task(Task("b", children=["a"]))
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_unknown_task_lookup(self):
        with pytest.raises(KeyError):
            TaskGraph().task("ghost")


class TestTaskProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskProfile(-1)
        with pytest.raises(ValueError):
            TaskProfile(1, parallelism=0)
        with pytest.raises(ValueError):
            TaskProfile(1, rate_hz=0)
        with pytest.raises(ValueError):
            TaskProfile(1, edge_only=True, cloud_only=True)


class TestDirectives:
    def test_parallel_serial_conflict(self):
        graph = scenario_b_graph()
        with pytest.raises(ValueError):
            Serial(graph, "obstacleAvoidance", "faceRecognition")
        with pytest.raises(ValueError):
            Parallel(graph, "faceRecognition", "deduplication")

    def test_unknown_task_rejected(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        with pytest.raises(KeyError):
            Parallel(graph, "ghost", "createRoute")
        with pytest.raises(KeyError):
            Place(directives, graph, "ghost", "edge")

    def test_place_parses_scope(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        Place(directives, graph, "obstacleAvoidance", "Edge:all")
        assert directives.placements["obstacleAvoidance"] == "edge"
        with pytest.raises(ValueError):
            Place(directives, graph, "createRoute", "moon")

    def test_learn_scopes(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        Learn(directives, graph, "faceRecognition", "Global")
        assert directives.learning["faceRecognition"] == "global"
        with pytest.raises(ValueError):
            Learn(directives, graph, "faceRecognition", "sideways")

    def test_persist_idempotent(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        Persist(directives, graph, "deduplication")
        Persist(directives, graph, "deduplication")
        assert directives.persisted == ["deduplication"]

    def test_sync_needs_a_condition(self):
        graph = scenario_b_graph()
        with pytest.raises(ValueError):
            Synchronize(graph, "deduplication", "")


class TestValidation:
    def test_valid_graph_passes(self):
        warnings = validate_graph(scenario_b_graph())
        assert warnings == []

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError):
            validate_graph(TaskGraph())

    def test_unknown_edge_target_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", children=["ghost"]))
        with pytest.raises(ValidationError):
            validate_graph(graph)

    def test_cycle_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", children=["b"]))
        graph.add_task(Task("b", children=["a"]))
        with pytest.raises(ValidationError):
            validate_graph(graph)

    def test_placement_conflicts_with_pinning(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        Place(directives, graph, "collectImage", "cloud")  # edge_only task
        with pytest.raises(ValidationError):
            validate_graph(graph, directives)

    def test_missing_parent_warning(self):
        graph = TaskGraph()
        graph.add_task(Task("producer", data_out="frames"))
        graph.add_task(Task("consumer", data_in="frames"))
        warnings = validate_graph(graph)
        assert any("consumer" in w for w in warnings)


class TestSynthesis:
    def test_two_tier_graph_yields_four_models(self):
        """The paper's A->B example composes 4 end-to-end scenarios."""
        graph = TaskGraph()
        graph.add_task(Task("A", profile=TaskProfile(0.1, output_mb=1),
                            children=["B"]))
        graph.add_task(Task("B", profile=TaskProfile(0.1),
                            parents=["A"]))
        placements = enumerate_placements(graph)
        assert len(placements) == 4

    def test_pinned_tasks_respected(self):
        graph = scenario_b_graph()
        placements = enumerate_placements(graph)
        for placement in placements:
            assert placement.tier_of("collectImage") == "edge"
            assert placement.tier_of("deduplication") == "cloud"

    def test_directive_pins_respected(self):
        graph = scenario_b_graph()
        directives = DirectiveSet()
        Place(directives, graph, "obstacleAvoidance", "Edge:all")
        placements = enumerate_placements(graph, directives)
        assert all(p.tier_of("obstacleAvoidance") == "edge"
                   for p in placements)

    def test_bounce_models_pruned(self):
        """cloud -> edge -> cloud for an unpinned task is not meaningful."""
        graph = TaskGraph()
        graph.add_task(Task("a", profile=TaskProfile(0.1, cloud_only=True),
                            children=["b"]))
        graph.add_task(Task("b", profile=TaskProfile(0.1, output_mb=1),
                            parents=["a"], children=["c"]))
        graph.add_task(Task("c", profile=TaskProfile(0.1, cloud_only=True),
                            parents=["b"]))
        placements = enumerate_placements(graph)
        assert len(placements) == 1
        assert placements[0].tier_of("b") == "cloud"

    def test_explosion_guard(self):
        graph = TaskGraph()
        previous = None
        for index in range(16):
            name = f"t{index}"
            graph.add_task(Task(
                name, profile=TaskProfile(0.1),
                parents=[previous] if previous else []))
            previous = name
        with pytest.raises(SynthesisError):
            enumerate_placements(graph)


class TestPlacement:
    def test_of_and_accessors(self):
        placement = Placement.of({"a": "cloud", "b": "edge"})
        assert placement.tier_of("a") == "cloud"
        assert placement.tier_of("b") == "edge"
        assert "a@cloud" in str(placement)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            Placement.of({"a": "fog"})

    def test_unknown_task_lookup(self):
        with pytest.raises(KeyError):
            Placement.of({"a": "cloud"}).tier_of("z")
