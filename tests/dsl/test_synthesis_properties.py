"""Property-based tests: synthesis and codegen over random task graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import (
    HiveMindCompiler,
    Task,
    TaskGraph,
    TaskProfile,
    enumerate_placements,
    generate_apis,
    validate_graph,
)


@st.composite
def random_graphs(draw):
    """Random layered DAGs with random pinning, <= 10 free tasks."""
    n_tasks = draw(st.integers(2, 8))
    pins = draw(st.lists(
        st.sampled_from(["free", "edge", "cloud"]),
        min_size=n_tasks, max_size=n_tasks))
    graph = TaskGraph("random")
    names = [f"t{i}" for i in range(n_tasks)]
    for index, name in enumerate(names):
        # Parents drawn only from earlier tasks: guaranteed acyclic.
        n_parents = draw(st.integers(0, min(2, index)))
        parents = draw(st.permutations(names[:index]))[:n_parents] \
            if index else []
        profile = TaskProfile(
            cloud_service_s=draw(st.floats(0.01, 0.5)),
            input_mb=draw(st.floats(0, 8)),
            output_mb=draw(st.floats(0.001, 4)),
            edge_only=(pins[index] == "edge"),
            cloud_only=(pins[index] == "cloud"),
        )
        graph.add_task(Task(name, profile=profile, parents=list(parents)))
    return graph


class TestSynthesisProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_placements_are_unique_and_respect_pins(self, graph):
        placements = enumerate_placements(graph)
        seen = set()
        for placement in placements:
            assert placement.assignment not in seen
            seen.add(placement.assignment)
            for task in graph.tasks:
                tier = placement.tier_of(task.name)
                if task.profile.edge_only:
                    assert tier == "edge"
                if task.profile.cloud_only:
                    assert tier == "cloud"

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_placement_count_bounded_by_free_tasks(self, graph):
        free = sum(1 for t in graph.tasks
                   if not (t.profile.edge_only or t.profile.cloud_only))
        placements = enumerate_placements(graph)
        assert 1 <= len(placements) <= 2 ** free

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_no_surviving_bounce(self, graph):
        """No unpinned edge task squeezed between cloud stages survives."""
        for placement in enumerate_placements(graph):
            for task in graph.tasks:
                if task.profile.edge_only or task.profile.cloud_only:
                    continue
                if placement.tier_of(task.name) != "edge":
                    continue
                parents = graph.parents_of(task.name)
                children = graph.children_of(task.name)
                if parents and children:
                    all_cloud = (
                        all(placement.tier_of(p) == "cloud"
                            for p in parents) and
                        all(placement.tier_of(c) == "cloud"
                            for c in children))
                    assert not all_cloud

    @settings(max_examples=25, deadline=None)
    @given(random_graphs())
    def test_codegen_covers_every_edge(self, graph):
        placements = enumerate_placements(graph)
        bundle = generate_apis(graph, placements[0])
        assert len(bundle.artifacts) == len(graph.edges())
        for artifact in bundle.artifacts:
            assert artifact.kind in ("thrift_rpc", "openwhisk", "local")
            assert artifact.source  # never empty

    @settings(max_examples=20, deadline=None)
    @given(random_graphs())
    def test_compiler_chooses_feasible_when_one_exists(self, graph):
        validate_graph(graph)
        compiler = HiveMindCompiler(n_devices=4)
        result = compiler.compile(graph)
        feasible = [p for p in result.plans if p.estimate.feasible]
        if feasible:
            assert result.chosen.estimate.feasible
        # Ranking is consistent: chosen is first.
        assert result.chosen is result.plans[0]

    @settings(max_examples=20, deadline=None)
    @given(random_graphs())
    def test_estimates_are_finite_and_positive(self, graph):
        compiler = HiveMindCompiler(n_devices=4)
        for plan in compiler.compile(graph).plans:
            estimate = plan.estimate
            assert estimate.latency_s > 0
            assert estimate.latency_s < float("inf")
            assert estimate.network_mbs >= 0
            assert estimate.cloud_core_demand >= 0
