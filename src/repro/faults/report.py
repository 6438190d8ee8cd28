"""Resilience accounting: what recovery did, and what it cost.

:class:`RecoveryLog` collects individual recovery actions as they happen
(activation requeues after a server/invoker crash, function-fault
respawns, work shed to on-device compute during a partition, RPC
retries). :class:`ResilienceReport` condenses one chaos run — recovery
counts, recovery-latency percentiles, and makespan/latency inflation
against the fault-free twin run — into the rows the ``--chaos`` harness
prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["RecoveryLog", "ResilienceReport"]


@dataclass
class RecoveryAction:
    """One recovery event: what was recovered, when, and how long it took."""

    kind: str          # "requeue" | "respawn" | "shed" | "rpc_retry"
    started_at: float
    #: Filled when the recovered work eventually completes; None while
    #: in flight (or when completion never happened).
    recovered_at: Optional[float] = None

    @property
    def latency_s(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.started_at


class RecoveryLog:
    """Append-only log of recovery actions for one run."""

    def __init__(self, env):
        self.env = env
        self.actions: List[RecoveryAction] = []

    def record(self, kind: str) -> RecoveryAction:
        action = RecoveryAction(kind=kind, started_at=self.env.now)
        self.actions.append(action)
        return action

    def complete(self, action: RecoveryAction) -> None:
        action.recovered_at = self.env.now

    def latencies(self) -> List[float]:
        return [a.latency_s for a in self.actions
                if a.latency_s is not None]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for action in self.actions:
            out[action.kind] = out.get(action.kind, 0) + 1
        return out


def _percentile(values: List[float], q: float) -> float:
    # An empty RecoveryLog has no percentile — report nan rather than a
    # fake 0.0 that reads as "instant recovery" in the tables.
    if not values:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), q,
                               method="linear"))


@dataclass
class ResilienceReport:
    """The condensed outcome of one (scenario, plan) chaos run."""

    scenario: str
    plan: str
    submitted: int
    completed: int
    lost: int
    violations: int
    recoveries: Dict[str, int] = field(default_factory=dict)
    recovery_latencies_s: List[float] = field(default_factory=list)
    makespan_s: float = 0.0
    baseline_makespan_s: float = 0.0
    median_latency_s: float = 0.0
    baseline_median_latency_s: float = 0.0
    violation_details: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return sum(self.recoveries.values())

    @property
    def recovery_p50_s(self) -> float:
        return _percentile(self.recovery_latencies_s, 50)

    @property
    def recovery_p99_s(self) -> float:
        return _percentile(self.recovery_latencies_s, 99)

    @property
    def makespan_inflation(self) -> float:
        """Chaos makespan over fault-free makespan (1.0 = no inflation)."""
        if self.baseline_makespan_s <= 0:
            return 1.0
        return self.makespan_s / self.baseline_makespan_s

    @property
    def latency_inflation(self) -> float:
        if self.baseline_median_latency_s <= 0:
            return 1.0
        return self.median_latency_s / self.baseline_median_latency_s

    @property
    def all_accounted(self) -> bool:
        return self.submitted == self.completed + self.lost

    def row(self) -> List[Any]:
        """One table row for the chaos harness output."""
        return [
            f"{self.scenario}:{self.plan}",
            self.submitted,
            self.completed,
            self.lost,
            self.recovered,
            round(self.recovery_p50_s, 3),
            round(self.recovery_p99_s, 3),
            round(self.makespan_inflation, 3),
            self.violations,
        ]

    @staticmethod
    def headers() -> List[str]:
        return ["scenario:plan", "submitted", "completed", "lost",
                "recovered", "recovery_p50_s", "recovery_p99_s",
                "makespan_inflation", "violations"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "plan": self.plan,
            "submitted": self.submitted,
            "completed": self.completed,
            "lost": self.lost,
            "violations": self.violations,
            "violation_details": list(self.violation_details),
            "recoveries": dict(self.recoveries),
            "recovery_p50_s": self.recovery_p50_s,
            "recovery_p99_s": self.recovery_p99_s,
            "makespan_s": self.makespan_s,
            "baseline_makespan_s": self.baseline_makespan_s,
            "makespan_inflation": self.makespan_inflation,
            "median_latency_s": self.median_latency_s,
            "baseline_median_latency_s": self.baseline_median_latency_s,
            "latency_inflation": self.latency_inflation,
        }
