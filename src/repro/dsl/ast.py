"""The HiveMind DSL: task and task-graph declarations (paper Listing 1/3).

Users declare *what* their application computes — tasks, their I/O, and the
control-flow edges — and HiveMind synthesizes the deployment. The Python
surface mirrors the paper's listings::

    graph = TaskGraph(constraints=[ExecTimeConstraint(10.0)])
    graph.add_task(Task("createRoute", data_in="map", data_out="route",
                        children=["collectImage"]))
    ...

Profiles (:class:`TaskProfile`) carry the resource footprint the compiler
needs for placement estimation: service seconds on one cloud core, payload
sizes, intra-task parallelism, and pinning flags (a sensor-collection task
cannot run in the cloud).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TaskProfile", "Stream", "Task", "TaskGraph", "Placement",
           "PLACEMENTS"]

#: Valid placement values for a task.
PLACEMENTS = ("cloud", "edge")


@dataclass(frozen=True)
class Stream:
    """A continuous data stream between tasks (paper section 4.1: the DSL
    supports both individual objects and data streams).

    A stream flows at ``rate_hz`` items of ``item_mb`` each; consumers see
    one-second windows. Declaring an edge's payload as a
    Stream tells the compiler to budget *continuous* bandwidth for the
    crossing and tells codegen to emit a subscription API instead of a
    request/response one.
    """

    name: str
    rate_hz: float
    item_mb: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("stream name must be non-empty")
        if self.rate_hz <= 0:
            raise ValueError("stream rate must be positive")
        if self.item_mb < 0:
            raise ValueError("stream item size must be non-negative")

    @property
    def mbs(self) -> float:
        """Continuous bandwidth of the stream (MB/s)."""
        return self.rate_hz * self.item_mb


@dataclass(frozen=True)
class TaskProfile:
    """Resource footprint of one task (per activation)."""

    #: Median service seconds on one cloud core.
    cloud_service_s: float
    #: Input payload consumed per activation (MB).
    input_mb: float = 0.0
    #: Output payload produced per activation (MB).
    output_mb: float = 0.01
    #: Exploitable intra-task parallelism (1 = sequential).
    parallelism: int = 1
    #: Activations per second per device when the application runs.
    rate_hz: float = 1.0
    #: Lognormal sigma of the service-time distribution.
    service_sigma: float = 0.25
    #: True for tasks that physically must run on the device (sensor
    #: collection, actuation): the synthesizer never places them in the
    #: cloud ("meaningful" pruning, section 4.2).
    edge_only: bool = False
    #: True for tasks that only make sense with global state (e.g. a
    #: swarm-wide synchronization barrier aggregation); never placed at
    #: the edge.
    cloud_only: bool = False

    def __post_init__(self):
        if self.cloud_service_s < 0:
            raise ValueError("service time must be non-negative")
        if self.input_mb < 0 or self.output_mb < 0:
            raise ValueError("payload sizes must be non-negative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")
        if self.edge_only and self.cloud_only:
            raise ValueError("a task cannot be both edge- and cloud-only")


@dataclass
class Task:
    """One node of the application task graph (paper Listing 1: Task).

    ``data_in``/``data_out`` are either names (individual objects) or
    :class:`Stream` declarations (continuous flows).
    """

    name: str
    data_in: Optional[object] = None
    data_out: Optional[object] = None
    profile: Optional[TaskProfile] = None
    parents: List[str] = field(default_factory=list)
    children: List[str] = field(default_factory=list)
    #: Free-form task arguments (speed, resolution, algorithm, ...) exactly
    #: as the paper's Listing 3 passes them.
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.name in self.parents or self.name in self.children:
            raise ValueError(f"task {self.name!r} cannot depend on itself")

    @property
    def output_stream(self) -> Optional[Stream]:
        return self.data_out if isinstance(self.data_out, Stream) else None

    @property
    def data_out_name(self) -> Optional[str]:
        if isinstance(self.data_out, Stream):
            return self.data_out.name
        return self.data_out


class TaskGraph:
    """The application's control flow (paper Listing 1: TaskGraph)."""

    def __init__(self, name: str = "app",
                 constraints: Optional[Iterable] = None):
        self.name = name
        self.constraints = list(constraints or [])
        self._tasks: Dict[str, Task] = {}
        #: Relationship annotations (Parallel/Serial pairs and
        #: Synchronize points), filled by the directive helpers.
        self.parallel_pairs: List[Tuple[str, str]] = []
        self.serial_pairs: List[Tuple[str, str]] = []
        self.sync_points: Dict[str, str] = {}

    # -- construction ------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if task.name in self._tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        return task

    def task(self, name: str) -> Task:
        found = self._tasks.get(name)
        if found is None:
            raise KeyError(f"unknown task {name!r}")
        return found

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    @property
    def task_names(self) -> List[str]:
        return list(self._tasks)

    def edges(self) -> List[Tuple[str, str]]:
        """(parent, child) pairs, derived from both directions and
        deduplicated."""
        seen = set()
        result: List[Tuple[str, str]] = []
        for task in self._tasks.values():
            for child in task.children:
                edge = (task.name, child)
                if edge not in seen:
                    seen.add(edge)
                    result.append(edge)
            for parent in task.parents:
                edge = (parent, task.name)
                if edge not in seen:
                    seen.add(edge)
                    result.append(edge)
        return result

    def roots(self) -> List[Task]:
        """Tasks with no parents (application entry points)."""
        have_parents = {child for _, child in self.edges()}
        return [t for t in self._tasks.values()
                if t.name not in have_parents]

    def children_of(self, name: str) -> List[str]:
        return [child for parent, child in self.edges() if parent == name]

    def parents_of(self, name: str) -> List[str]:
        return [parent for parent, child in self.edges() if child == name]

    def topological_order(self) -> List[str]:
        """Task names in dependency order; raises on cycles."""
        edges = self.edges()
        in_degree = {name: 0 for name in self._tasks}
        for _, child in edges:
            if child in in_degree:
                in_degree[child] += 1
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for parent, child in edges:
                if parent == current and child in in_degree:
                    in_degree[child] -= 1
                    if in_degree[child] == 0:
                        ready.append(child)
            ready.sort()
        if len(order) != len(self._tasks):
            raise ValueError(f"task graph {self.name!r} has a cycle")
        return order


@dataclass(frozen=True)
class Placement:
    """A full assignment of tasks to tiers (one execution model)."""

    assignment: Tuple[Tuple[str, str], ...]  # ((task, tier), ...) sorted

    @classmethod
    def of(cls, mapping: Dict[str, str]) -> "Placement":
        for task, tier in mapping.items():
            if tier not in PLACEMENTS:
                raise ValueError(f"unknown tier {tier!r} for {task!r}")
        return cls(tuple(sorted(mapping.items())))

    def tier_of(self, task: str) -> str:
        for name, tier in self.assignment:
            if name == task:
                return tier
        raise KeyError(f"task {task!r} not in placement")

    def __str__(self) -> str:
        return ", ".join(f"{name}@{tier}" for name, tier in self.assignment)
