"""Shared resources for the simulation kernel.

:class:`Resource` — ``capacity`` interchangeable slots with a FIFO wait
queue — is the one blocking primitive the HiveMind models need: server
cores, the IaaS worker pool and the RPC offload engine.

Requests are events: a process does ``yield resource.request()`` (or uses the
request as a context manager) and resumes once the slot is granted. A
claimer whose yield is the last act of its dispatch (the invoker's core
claim) uses :meth:`Resource.claim`, whose free-slot grant costs no event.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from .kernel import Environment, Event

__all__ = ["Resource"]


class Request(Event):
    """A pending claim on one :class:`Resource` slot."""

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None

    # Context-manager protocol: ``with res.request() as req: yield req``.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        try:
            self.resource.queue.remove(self)
        except ValueError:
            pass


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of slots in use."""
        return len(self.users) / self._capacity

    def request(self) -> Request:
        return self._enter(Event.succeed)

    def claim(self) -> Request:
        """:meth:`request` for a claimer that yields the request as the
        last act of the current dispatch: a free slot is granted through
        ``Environment.succeed_next``, so the claimer resumes in place
        when the grant would have been the next event dispatched. A
        queued claim is granted by :meth:`release` like any request."""
        return self._enter(self.env.succeed_next)

    def _enter(self, grant: Callable[[Event, Request], object]) -> Request:
        req = Request(self)
        if len(self.users) < self._capacity:
            self._grant(req, grant)
        else:
            self.queue.append(req)
        return req

    def _grant(self, req: Request,
               grant: Callable[[Event, Request], object]) -> None:
        self.users.append(req)
        req.usage_since = self.env.now
        grant(req, req)

    def release(self, req: Request) -> None:
        """Return a granted slot; wakes the next queued request."""
        try:
            self.users.remove(req)
        except ValueError:
            raise RuntimeError("releasing a request that holds no slot")
        self._wake_next()

    def _wake_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            self._grant(self.queue.popleft(), Event.succeed)

    def resize(self, capacity: int) -> None:
        """Change capacity online (elastic pools). Shrinking never evicts
        current users; it only stops granting until usage drops below the
        new capacity."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._wake_next()
