"""Task-graph validation.

Incorrect or inconsistent API/task definitions are a primary source of bugs
in multi-tier cloud/edge applications (section 4.1); HiveMind's compiler
front end rejects malformed graphs before synthesis. Checks:

- every referenced parent/child exists;
- parent/child lists are mutually consistent (an edge declared on either
  side is enough, but contradictions are impossible by construction);
- the graph is acyclic;
- every non-root task can receive its input (its parents produce output);
- relationship annotations reference existing tasks and do not contradict
  (Parallel vs Serial on the same pair is rejected at declaration time);
- directive placements do not contradict profile pinning.
"""

from __future__ import annotations

from typing import List, Optional

from .ast import TaskGraph
from .directives import DirectiveSet

__all__ = ["ValidationError", "validate_graph"]


class ValidationError(Exception):
    """The task graph or its directives are inconsistent."""


def validate_graph(graph: TaskGraph,
                   directives: Optional[DirectiveSet] = None) -> List[str]:
    """Validate; returns warnings, raises :class:`ValidationError`."""
    warnings: List[str] = []
    if len(graph) == 0:
        raise ValidationError(f"graph {graph.name!r} has no tasks")

    # Edge endpoints must exist.
    for parent, child in graph.edges():
        if parent not in graph:
            raise ValidationError(
                f"edge references unknown parent task {parent!r}")
        if child not in graph:
            raise ValidationError(
                f"edge references unknown child task {child!r}")

    # Acyclicity (topological_order raises on cycles).
    try:
        graph.topological_order()
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    # Data-flow consistency: a child consuming data needs a producing parent.
    for task in graph.tasks:
        if task.data_in is not None and not graph.parents_of(task.name):
            # Roots read sensor inputs / initial maps — allowed, but warn
            # when the input name looks like another task's output.
            producers = [t.name for t in graph.tasks
                         if t.data_out_name == task.data_in and
                         t.name != task.name]
            if producers:
                warnings.append(
                    f"task {task.name!r} consumes {task.data_in!r} "
                    f"produced by {producers} but declares no parent")

    # Profile pinning vs directives.
    if directives is not None:
        for task_name, tier in directives.placements.items():
            profile = graph.task(task_name).profile
            if profile is None:
                continue
            if profile.edge_only and tier == "cloud":
                raise ValidationError(
                    f"task {task_name!r} is edge-only but placed in cloud")
            if profile.cloud_only and tier == "edge":
                raise ValidationError(
                    f"task {task_name!r} is cloud-only but placed at edge")

    # Synchronization points must sit on join nodes or be trivially
    # satisfiable; a barrier on a root is almost surely a mistake.
    for task_name in graph.sync_points:
        if not graph.parents_of(task_name):
            warnings.append(
                f"synchronization barrier on root task {task_name!r}")

    return warnings
