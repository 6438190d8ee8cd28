"""End-to-end multi-phase scenarios (paper section 2.1, Listing 3).

- **Scenario A — Stationary Items**: locate 15 tennis balls on a baseball
  field. Phases: route creation (A*), image collection, on-board obstacle
  avoidance (always edge), item recognition, location aggregation.
- **Scenario B — Moving People**: count 25 people who move freely, so the
  same person is photographed by several drones and must be deduplicated
  (FaceNet embedding clustering) behind a swarm-wide synchronization
  barrier.

Each spec renders its HiveMind DSL task graph with directives exactly in
the shape of the paper's Listing 3 (Parallel/Serial/Learn/Place/Persist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..dsl import (
    DirectiveSet,
    Learn,
    Parallel,
    Persist,
    Place,
    Serial,
    Synchronize,
    Task,
    TaskGraph,
    TaskProfile,
)
from .base import AppSpec
from .suite import SUITE

__all__ = ["ScenarioSpec", "ITEM_RECOGNITION", "SCENARIO_A", "SCENARIO_B",
           "scenario"]

#: Scenario A's tennis-ball detector: a small single-class CNN — lighter
#: than the general tree-recognition model, which is why Scenario B is the
#: more computationally intensive of the two (section 2.3).
ITEM_RECOGNITION = AppSpec(
    key="ITEM", name="item_recognition",
    description="Detect tennis balls (small single-class CNN)",
    cloud_service_s=0.25, service_sigma=0.22, edge_slowdown=10.0,
    input_mb=16.0, output_mb=0.10, parallelism=8,
    edge_filter_keep=0.40, edge_filter_service_s=0.025)


@dataclass(frozen=True)
class ScenarioSpec:
    """One end-to-end multi-phase scenario."""

    key: str
    name: str
    description: str
    #: The per-batch recognition application (S2-style CNN for items,
    #: S1 FaceNet for people).
    recognition: AppSpec
    #: The aggregation/deduplication stage, if any (Scenario B).
    dedup: Optional[AppSpec]
    #: True when targets move (forces deduplication).
    moving_targets: bool
    #: Extra on-board work per batch when recognition runs at the edge
    #: (Scenario B extracts face embeddings for later deduplication even
    #: when classifying locally). Cloud-core seconds.
    edge_extra_service_s: float = 0.0

    def dsl_graph(self) -> Tuple[TaskGraph, DirectiveSet]:
        """The Listing 3 task graph for this scenario."""
        graph = TaskGraph(self.key)
        recognition_profile = self.recognition.task_profile()
        graph.add_task(Task(
            "createRoute", data_in="inputMap", data_out="outputRoute",
            profile=TaskProfile(0.02, output_mb=0.01),
            args={"load_balancer": "round robin"},
            children=["collectImage"]))
        graph.add_task(Task(
            "collectImage", data_out="sensorData",
            profile=TaskProfile(
                0.005, input_mb=self.recognition.input_mb,
                output_mb=self.recognition.input_mb, edge_only=True),
            args={"speed": "4", "resolution": "1024p",
                  "colorFormat": "color"},
            parents=["createRoute"],
            children=["obstacleAvoidance", "recognition"]))
        graph.add_task(Task(
            "obstacleAvoidance", data_in="sensorData",
            data_out="adjustRoute",
            profile=TaskProfile(0.06, input_mb=4.0, output_mb=0.01,
                                edge_only=True),
            args={"algorithm": "slam"},
            parents=["collectImage"]))
        graph.add_task(Task(
            "recognition", data_in="sensorData",
            data_out="recognitionStats",
            profile=recognition_profile,
            args={"trainingData": "zoo", "algorithm": "tensorflow_zoo"},
            parents=["collectImage"],
            children=["aggregate"]))
        aggregate_profile = (
            self.dedup.task_profile() if self.dedup is not None
            else TaskProfile(0.10, input_mb=0.2, output_mb=0.05))
        # Aggregation needs the whole swarm's results: cloud-only.
        graph.add_task(Task(
            "aggregate", data_in="recognitionStats", data_out="finalList",
            profile=TaskProfile(
                aggregate_profile.cloud_service_s,
                input_mb=aggregate_profile.input_mb,
                output_mb=aggregate_profile.output_mb,
                parallelism=aggregate_profile.parallelism,
                rate_hz=aggregate_profile.rate_hz,
                service_sigma=aggregate_profile.service_sigma,
                cloud_only=True),
            args={"sync": "all"},
            parents=["recognition"]))
        directives = DirectiveSet()
        Parallel(graph, "obstacleAvoidance", "recognition")
        Serial(graph, "recognition", "aggregate")
        Synchronize(graph, "aggregate", "all")
        Learn(directives, graph, "recognition", "Global")
        Place(directives, graph, "obstacleAvoidance", "Edge:all")
        Persist(directives, graph, "recognition")
        Persist(directives, graph, "aggregate")
        return graph, directives


SCENARIO_A = ScenarioSpec(
    key="ScA",
    name="stationary_items",
    description="Locate 15 tennis balls placed in a baseball field",
    recognition=ITEM_RECOGNITION,
    dedup=None,
    moving_targets=False,
)

SCENARIO_B = ScenarioSpec(
    key="ScB",
    name="moving_people",
    description="Count 25 unique moving people in a field",
    recognition=SUITE["S1"],
    dedup=SUITE["S5"],
    moving_targets=True,
    edge_extra_service_s=0.15,
)

_SCENARIOS = {"ScA": SCENARIO_A, "ScB": SCENARIO_B}


def scenario(key: str) -> ScenarioSpec:
    found = _SCENARIOS.get(key)
    if found is None:
        raise ValueError(f"unknown scenario {key!r}; valid: ScA, ScB")
    return found
