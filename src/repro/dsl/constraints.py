"""User-facing performance/cost constraints and plan estimates.

In addition to the control flow, users specify the performance metrics the
application must meet — execution time, latency, throughput — and optionally
a cloud cost ceiling (section 4.1). HiveMind uses these to choose among the
synthesized execution models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "PlanEstimate",
    "Constraint",
    "ExecTimeConstraint",
]


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted behaviour of one execution model (per activation)."""

    #: Critical-path latency of one task-graph activation (seconds).
    latency_s: float
    #: Aggregate edge-to-cloud bandwidth demand (MB/s).
    network_mbs: float
    #: False when some resource is past saturation.
    feasible: bool = True


class Constraint:
    """Base: a predicate over :class:`PlanEstimate`."""

    def satisfied_by(self, estimate: PlanEstimate) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ExecTimeConstraint(Constraint):
    """Bound on end-to-end activation time (the Listing 3
    ``constraint=[execTime='10s']``)."""

    max_exec_s: float

    def __post_init__(self):
        if self.max_exec_s <= 0:
            raise ValueError("execution-time bound must be positive")

    def satisfied_by(self, estimate: PlanEstimate) -> bool:
        return estimate.feasible and estimate.latency_s <= self.max_exec_s
