"""Application model for the benchmark suite.

An :class:`AppSpec` captures everything the platform runners need to execute
one of the paper's applications (S1-S10): the processing stage's resource
profile, its per-application edge slowdown (a CNN suffers far more on a
Cortex A8 than an SVM does — this is why S3/S7 behave comparably on cloud
and edge while S1/S9/S10 do not), payload sizes, intra-task parallelism,
and whether results must return to the device (obstacle avoidance adjusts
the route in place; analytics only report upstream).

``dsl_graph`` renders the app as a HiveMind DSL task graph (collect ->
process [-> aggregate]), which is what the compiler consumes to pick a
placement (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..dsl import DirectiveSet, Place, Task, TaskGraph, TaskProfile
from ..serverless import FunctionSpec

__all__ = ["AppSpec"]


@dataclass(frozen=True)
class AppSpec:
    """One benchmark application."""

    key: str                   # "S1" .. "S10"
    name: str
    #: Median service seconds for one task on one cloud core.
    cloud_service_s: float
    #: Lognormal sigma of the intrinsic service-time distribution.
    service_sigma: float
    #: Slowdown of on-board execution relative to one cloud core (per-app:
    #: heavy CNNs blow past the A8's caches, light analytics do not).
    edge_slowdown: float
    #: Input payload per task (MB) — what centralized execution uploads.
    input_mb: float
    #: Result payload per task (MB).
    output_mb: float
    #: Exploitable intra-task parallelism.
    parallelism: int
    #: Tasks per second per device.
    rate_hz: float = 1.0
    #: True when the result must return to the device (course adjustment).
    response_to_device: bool = True
    #: True when the task must run on the device regardless of platform
    #: (obstacle avoidance always runs on-board to avoid catastrophic
    #: failures from network delays — section 2.1).
    edge_pinned: bool = False
    #: Memory reserved for the serverless function's container.
    memory_mb: float = 256.0
    #: HiveMind's hybrid execution can split the task: a cheap on-board
    #: filtering stage (keyframe selection / crop / compress) keeps this
    #: fraction of the payload before upload (Fig 12's "partial edge task
    #: execution" that cuts network traffic). 1.0 = nothing to filter.
    edge_filter_keep: float = 1.0
    #: Cloud-core-equivalent cost of the on-board filter stage.
    edge_filter_service_s: float = 0.0

    def __post_init__(self):
        if self.cloud_service_s <= 0:
            raise ValueError("service time must be positive")
        if self.edge_slowdown <= 0:
            raise ValueError("edge slowdown must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")

    # -- sampling ------------------------------------------------------------
    def sample_cloud_service(self, rng: np.random.Generator) -> float:
        """One task's intrinsic cloud service time."""
        return float(rng.lognormal(np.log(self.cloud_service_s),
                                   self.service_sigma))

    # -- serverless/DSL views -----------------------------------------------
    def function_spec(self) -> FunctionSpec:
        return FunctionSpec(name=self.key.lower(), memory_mb=self.memory_mb,
                            image=f"{self.key.lower()}-image")

    def task_profile(self) -> TaskProfile:
        return TaskProfile(
            cloud_service_s=self.cloud_service_s,
            input_mb=self.input_mb,
            output_mb=self.output_mb,
            parallelism=self.parallelism,
            rate_hz=self.rate_hz,
            service_sigma=self.service_sigma,
        )

    def dsl_graph(self) -> Tuple[TaskGraph, DirectiveSet]:
        """The app as a HiveMind task graph: collect -> process."""
        graph = TaskGraph(self.key)
        graph.add_task(Task(
            "collect", data_out="sensorData",
            profile=TaskProfile(
                0.005, input_mb=self.input_mb, output_mb=self.input_mb,
                rate_hz=self.rate_hz, edge_only=True),
            children=["process"]))
        graph.add_task(Task(
            "process", data_in="sensorData", data_out="result",
            profile=self.task_profile(),
            parents=["collect"]))
        directives = DirectiveSet()
        if self.edge_pinned:
            Place(directives, graph, "process", "edge")
        return graph, directives
