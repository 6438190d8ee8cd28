"""Lifecycle of serverless function containers.

Functions run in Docker containers instantiated by an invoker. The pieces
the paper's figures depend on:

- **Cold starts** cost hundreds of milliseconds (lognormal, Fig 6b's
  instantiation share); **warm starts** cost single-digit milliseconds.
- **Keep-alive**: an idling container lingers 10-30 s before termination so
  a near-future function can reuse it (section 4.3).
- **Pinning**: a running container holds dedicated logical cores; two
  containers may share a server but never a core (section 4.3). Idle (warm)
  containers keep their memory reservation but hold no core.
"""

from __future__ import annotations

from enum import Enum

from .function import FunctionSpec

__all__ = ["ContainerState", "FunctionContainer"]


class ContainerState(Enum):
    COLD_STARTING = "cold_starting"
    RUNNING = "running"
    WARM = "warm"
    TERMINATED = "terminated"


class FunctionContainer:
    """One Docker container hosting serverless function executions.

    ``serial`` comes from a counter the platform shares among its
    invokers: ids are unique within one platform and independent of
    what else ran in the process."""

    def __init__(self, serial: int, server_id: str, image: str,
                 memory_mb: float):
        self.container_id = f"c{serial}"
        self.server_id = server_id
        self.image = image
        self.memory_mb = memory_mb
        self.state = ContainerState.COLD_STARTING
        self.warm_expiry: float = 0.0

    def compatible_with(self, spec: FunctionSpec) -> bool:
        """Warm reuse requires the same image and enough memory."""
        return self.image == spec.image and self.memory_mb >= spec.memory_mb

    def mark_running(self) -> None:
        if self.state is ContainerState.TERMINATED:
            raise RuntimeError(
                f"{self.container_id} is terminated; cannot run")
        self.state = ContainerState.RUNNING

    def mark_warm(self, now: float, keepalive_s: float) -> None:
        if self.state is not ContainerState.RUNNING:
            raise RuntimeError(
                f"{self.container_id} must be running to go warm")
        self.state = ContainerState.WARM
        self.warm_expiry = now + keepalive_s

    def mark_terminated(self) -> None:
        self.state = ContainerState.TERMINATED

    def is_warm(self, now: float) -> bool:
        return (self.state is ContainerState.WARM and
                now < self.warm_expiry)

    def is_expired(self, now: float) -> bool:
        return (self.state is ContainerState.WARM and
                now >= self.warm_expiry)

    def __repr__(self) -> str:
        return (f"<FunctionContainer {self.container_id} {self.image} "
                f"on {self.server_id} {self.state.value}>")
