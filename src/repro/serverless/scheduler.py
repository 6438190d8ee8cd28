"""Function placement policies.

The base :class:`OpenWhiskScheduler` reproduces the stock behaviour: prefer
an invoker with a compatible warm container (OpenWhisk's home-invoker
affinity), otherwise the least-loaded healthy server. HiveMind's scheduler
(:class:`HiveMindScheduler`, ``OpenWhiskPlatform(scheduler="hivemind")``)
adds the two optimizations of section 4.3:

1. place a child function in its parent's still-live container for
   in-memory data exchange;
2. reuse idling containers before starting new ones (the base scheduler
   already benefits from warm pools; HiveMind additionally steers requests
   toward them deliberately), while never letting two containers share a
   logical core.
"""

from __future__ import annotations

from typing import List, Optional

from .container import FunctionContainer
from .function import InvocationRequest
from .invoker import Invoker

__all__ = ["Placement", "OpenWhiskScheduler", "HiveMindScheduler"]


class Placement:
    """A scheduling decision: which invoker, optionally which container."""

    def __init__(self, invoker: Invoker,
                 container: Optional[FunctionContainer] = None):
        self.invoker = invoker
        self.container = container


class OpenWhiskScheduler:
    """Stock placement: warm-pool affinity, then least-loaded."""

    name = "openwhisk"

    def __init__(self, invokers: List[Invoker]):
        if not invokers:
            raise ValueError("scheduler needs at least one invoker")
        self.invokers = list(invokers)
        self._rotation = 0

    def _healthy(self) -> List[Invoker]:
        """Schedulable invokers: alive first, then probation-free.

        Dead invokers/servers (chaos crashes) are never candidates while
        any peer survives; probation only thins the alive set. With the
        whole cluster down we fall back to everyone — the activation
        queues rather than crashing the scheduler, exactly like a real
        controller publishing into a dead invoker's topic.
        """
        alive = [inv for inv in self.invokers
                 if inv.alive and inv.server.alive]
        candidates = alive or self.invokers
        healthy = [inv for inv in candidates
                   if not inv.server.on_probation]
        return healthy or candidates

    def _least_loaded(self, candidates: List[Invoker]) -> Invoker:
        """Lowest-utilization invoker; ties rotate (OpenWhisk's hashing
        spreads actions across invokers rather than piling onto one)."""
        loads = [inv.server.utilization for inv in candidates]
        best = min(loads)
        tied = [inv for inv, load in zip(candidates, loads) if load == best]
        chosen = tied[self._rotation % len(tied)]
        self._rotation += 1
        return chosen

    def place(self, request: InvocationRequest) -> Placement:
        candidates = self._healthy()
        for invoker in candidates:
            if invoker.has_warm(request.spec.image) and \
                    invoker.server.utilization < 1.0:
                return Placement(invoker)
        return Placement(self._least_loaded(candidates))


class HiveMindScheduler(OpenWhiskScheduler):
    """HiveMind's serverless scheduler (section 4.3)."""

    name = "hivemind"

    def __init__(self, invokers: List[Invoker]):
        super().__init__(invokers)
        self._by_server = {invoker.server.server_id: invoker
                           for invoker in self.invokers}

    def place(self, request: InvocationRequest) -> Placement:
        # Optimization 1: child into the parent's container when possible.
        parent = request.parent
        if parent is not None and request.colocate_with_parent:
            invoker = self._by_server.get(parent.server_id)
            if invoker is not None and invoker.alive and \
                    invoker.server.alive and not invoker.server.on_probation:
                container = invoker.warm_container_of(parent)
                if container is not None and \
                        container.compatible_with(request.spec):
                    return Placement(invoker, container=container)
        # Optimization 2: prefer idling containers anywhere, then load.
        return super().place(request)
