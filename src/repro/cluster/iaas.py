"""Statically provisioned (IaaS/PaaS) deployments.

The paper compares serverless against fixed allocations of equal cost
(Fig 1, 5a) and against average-/max-load provisioning (Fig 5b). A
:class:`FixedPool` is a reserved set of worker cores: tasks queue FIFO and
run without serverless instantiation overheads, but the pool cannot grow —
under load spikes it saturates and latency grows unboundedly, and under low
load it sits idle (the inefficiency serverless removes).

Instance (re)provisioning on IaaS takes tens of seconds (the paper cites
"several seconds" to spin up new instances versus milliseconds for
functions); :meth:`FixedPool.resize` models that delay.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Environment, Resource

__all__ = ["FixedPool"]


class FixedPool:
    """A reserved pool of worker cores with FIFO task admission."""

    #: Spin-up latency for adding IaaS instances (calibrated; the paper
    #: cites several seconds for traditional cloud instances).
    PROVISION_DELAY_S = 35.0

    def __init__(self, env: Environment, cores: int, name: str = "pool"):
        if cores <= 0:
            raise ValueError("pool must have at least one core")
        self.env = env
        self.name = name
        self.workers = Resource(env, capacity=cores)
        self._core_seconds = 0.0

    @property
    def cores(self) -> int:
        return self.workers.capacity

    def execute(self, service_s: float) -> Generator:
        """Process: run one task; returns (wait_s, service_s)."""
        if service_s < 0:
            raise ValueError("service time must be non-negative")
        arrived = self.env.now
        with self.workers.request() as grant:
            yield grant
            wait_s = self.env.now - arrived
            self._core_seconds += service_s
            yield self.env.timeout(service_s)
        return (wait_s, service_s)

    def resize(self, cores: int) -> Generator:
        """Process: change capacity; growth pays the provision delay."""
        if cores <= 0:
            raise ValueError("pool must keep at least one core")
        if cores > self.workers.capacity:
            yield self.env.timeout(self.PROVISION_DELAY_S)
        self.workers.resize(cores)
        return cores

    def utilization(self, horizon_s: float) -> float:
        """Mean core occupancy over ``horizon_s`` (Fig 5b inefficiency)."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        return min(1.0, self._core_seconds / (horizon_s * self.cores))
