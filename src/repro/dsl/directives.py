"""DSL relationship operations and optional management directives.

Paper Listing 1 (relationships): ``Parallel``, ``Serial``,
``Synchronize``. Paper Listing 2 (management): ``Place``, ``Learn``,
``Persist``. Implemented as small helper functions/records that annotate
a :class:`~repro.dsl.ast.TaskGraph`; the compiler, the runners and the
serverless gateways consume the annotations. The paper's ``Overlap``,
``Schedule``, ``Isolate`` and ``Restore`` are not modelled: no component
acts on what they would record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .ast import Task, TaskGraph

__all__ = [
    "Parallel",
    "Serial",
    "Synchronize",
    "DirectiveSet",
    "Place",
    "Learn",
    "Persist",
]


def _require_tasks(graph: TaskGraph, *names: str) -> None:
    for name in names:
        if name not in graph:
            raise KeyError(f"unknown task {name!r} in graph {graph.name!r}")


def Parallel(graph: TaskGraph, task_a: str, task_b: str) -> None:
    """Declare that two tasks may execute fully in parallel."""
    _require_tasks(graph, task_a, task_b)
    if (task_a, task_b) in graph.serial_pairs or \
            (task_b, task_a) in graph.serial_pairs:
        raise ValueError(
            f"tasks {task_a!r}/{task_b!r} already declared Serial")
    graph.parallel_pairs.append((task_a, task_b))


def Serial(graph: TaskGraph, task_a: str, task_b: str) -> None:
    """Declare that two tasks must never overlap."""
    _require_tasks(graph, task_a, task_b)
    if (task_a, task_b) in graph.parallel_pairs or \
            (task_b, task_a) in graph.parallel_pairs:
        raise ValueError(
            f"tasks {task_a!r}/{task_b!r} already declared Parallel")
    graph.serial_pairs.append((task_a, task_b))


def Synchronize(graph: TaskGraph, task: str, condition: str) -> None:
    """Install a synchronization barrier on a task (e.g. 'all' devices
    must deliver before the task runs — Scenario B's deduplication)."""
    _require_tasks(graph, task)
    if not condition:
        raise ValueError("synchronization condition must be non-empty")
    graph.sync_points[task] = condition


@dataclass
class DirectiveSet:
    """Per-application management directives (paper Listing 2)."""

    #: task -> fixed tier ("edge" / "cloud"), optionally scoped
    #: ("edge:all" pins every device's instance).
    placements: Dict[str, str] = field(default_factory=dict)
    #: task -> learning scope: "global" (swarm-wide), "local" (one
    #: device), or "off".
    learning: Dict[str, str] = field(default_factory=dict)
    #: tasks whose outputs go to persistent storage.
    persisted: List[str] = field(default_factory=list)


def Place(directives: DirectiveSet, graph: TaskGraph, task: str,
          where: str) -> None:
    """Pin a task to the edge or the cloud (e.g. ``'Edge:all'``)."""
    _require_tasks(graph, task)
    tier = where.lower().split(":")[0]
    if tier not in ("edge", "cloud"):
        raise ValueError(f"unknown placement {where!r}")
    directives.placements[task] = tier


def Learn(directives: DirectiveSet, graph: TaskGraph, task: str,
          scope: str) -> None:
    """Enable/disable online retraining for a task's model.

    ``scope`` is ``'Global'`` (retrain from the whole swarm's decisions),
    ``'Local'`` (one device), or ``'Off'``.
    """
    _require_tasks(graph, task)
    normalized = scope.lower()
    if normalized not in ("global", "local", "off"):
        raise ValueError(f"unknown learning scope {scope!r}")
    directives.learning[task] = normalized


def Persist(directives: DirectiveSet, graph: TaskGraph, task: str) -> None:
    """Persist the task's output in durable storage."""
    _require_tasks(graph, task)
    if task not in directives.persisted:
        directives.persisted.append(task)
