"""Backend server model.

A :class:`Server` exposes its logical cores as a resource pool and its RAM
as a free-MB counter. HiveMind's scheduler pins containers to cores (two
containers may share a server but never a core, section 4.3); pinning is
modeled by acquiring dedicated core slots for the container's lifetime.
Interference on *shared* (unpinned) deployments is modeled as a
utilization-dependent service-time inflation, which produces the serverless
variability of Fig 6a.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..config import ClusterConstants
from ..sim import Environment, Interrupt, Resource
from ..sim.accounting import tally

__all__ = ["Server", "CoreGrant", "Cluster"]


class CoreGrant:
    """A claim on ``n`` cores of one server; release() returns them."""

    def __init__(self, server: "Server", requests: List):
        self.server = server
        self._requests = requests
        self._released = False

    def release(self) -> None:
        if self._released:
            raise RuntimeError("core grant already released")
        for request in self._requests:
            self.server.cores.release(request)
        self._released = True


class Server:
    """One two-socket server: a core pool, a memory pool, and health."""

    def __init__(self, env: Environment, server_id: str,
                 cores: int = 40, ram_gb: float = 192.0):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.env = env
        self.server_id = server_id
        self.cores = Resource(env, capacity=cores)
        self.memory_capacity_mb = ram_gb * 1024.0
        self._free_mb = self.memory_capacity_mb
        #: Set by the straggler mitigator when the node misbehaves
        #: (section 4.6); a server on probation receives no new functions.
        self.probation_until: float = 0.0
        #: Cleared by :meth:`fail` (chaos server-crash injection); a dead
        #: server schedules nothing new.
        self.alive = True
        #: Zero-arg callbacks fired on every :meth:`free_memory` (the
        #: invoker's event-driven memory waits hook in here instead of
        #: polling on a retry timer).
        self._free_listeners: List = []

    @property
    def busy_cores(self) -> int:
        return self.cores.count

    @property
    def utilization(self) -> float:
        return self.cores.utilization

    @property
    def free_memory_mb(self) -> float:
        return self._free_mb

    @property
    def on_probation(self) -> bool:
        return self.env.now < self.probation_until

    def put_on_probation(self, duration_s: float) -> None:
        self.probation_until = max(self.probation_until,
                                   self.env.now + duration_s)

    def fail(self) -> None:
        """Crash the server (chaos injection): stop taking new work."""
        self.alive = False

    def acquire_cores(self, n: int = 1) -> Generator:
        """Process: claim ``n`` pinned cores; returns a :class:`CoreGrant`.

        Only the OpenWhisk invoker claims cores, each time right after a
        timeout resumed it, so the claim may resume it in place
        (``Resource.claim``); its grant events are tagged ``serverless``.

        Interrupt-safe: a process killed while waiting here (server crash,
        straggler-replica reap) leaks neither its queued request nor any
        cores it already pinned.
        """
        if n <= 0:
            raise ValueError("core count must be positive")
        if n > self.cores.capacity:
            raise ValueError(
                f"requested {n} cores but {self.server_id} has "
                f"{self.cores.capacity}")
        requests = []
        request = None
        try:
            for _ in range(n):
                # A free core is granted in place (see above); a grant
                # still pending is one kernel event.
                request = self.cores.claim()
                if request.callbacks is not None:
                    tally("serverless", 1)
                yield request
                requests.append(request)
                request = None
        except Interrupt:
            if request is not None:
                # Granted-but-undispatched requests already hold a slot
                # (usage_since set at grant time); queued ones do not.
                if request.usage_since is not None:
                    self.cores.release(request)
                else:
                    request.cancel()
            for granted in requests:
                self.cores.release(granted)
            raise
        return CoreGrant(self, requests)

    def reserve_memory(self, mb: float) -> bool:
        """Non-blocking memory claim; False when the server is full."""
        if mb <= self._free_mb:
            self._free_mb -= mb
            return True
        return False

    def add_free_memory_listener(self, callback) -> None:
        """Register a zero-arg callback fired after each memory release."""
        self._free_listeners.append(callback)

    def free_memory(self, mb: float) -> None:
        """Return ``mb`` to the pool; freeing more than was reserved is a
        bookkeeping fault and raises."""
        if mb < 0:
            raise ValueError("amount must be non-negative")
        if self._free_mb + mb > self.memory_capacity_mb:
            raise ValueError(
                f"{self.server_id}: freeing {mb} MB overflows the "
                f"{self.memory_capacity_mb} MB pool")
        self._free_mb += mb
        for listener in self._free_listeners:
            listener()

    def compute(self, seconds: float) -> Generator:
        """Process: run for ``seconds`` on already-granted cores."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        yield self.env.timeout(seconds)


class Cluster:
    """The 12-server backend (section 2.1)."""

    def __init__(self, env: Environment,
                 constants: Optional[ClusterConstants] = None):
        self.env = env
        self.constants = constants or ClusterConstants()
        self.servers: Dict[str, Server] = {}
        for index in range(self.constants.servers):
            server_id = f"server{index}"
            self.servers[server_id] = Server(
                env, server_id,
                cores=self.constants.cores_per_server,
                ram_gb=self.constants.ram_gb_per_server)

    def __len__(self) -> int:
        return len(self.servers)
