"""The Invoker: per-server function launcher (OpenWhisk's executor).

Each backend server runs one invoker. It maintains a warm-container pool,
pays cold/warm start costs, pins a core for the execution, models
interference from co-located functions, injects faults when an experiment
asks for them, and respawns failed executions (OpenWhisk respawns failed
tasks by default — Fig 5c). Every finished container goes back to the warm
pool for its keep-alive window; no request asks for a dedicated one.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterator, List, Optional

import numpy as np

from ..cluster import Server
from ..config import ServerlessConstants
from ..sim import Environment, Interrupt
from ..sim.accounting import tally
from .container import FunctionContainer
from .function import Invocation, InvocationRequest

__all__ = ["ActivationCancelled", "ActivationMessage", "Invoker"]


class ActivationCancelled(Exception):
    """The platform reaped this activation (e.g. a losing straggler
    replica); its ``done`` event fails with this so the waiting caller
    can distinguish a deliberate cancel from a genuine crash."""

    def __init__(self, invocation_id: int):
        super().__init__(f"invocation {invocation_id} cancelled")
        self.invocation_id = invocation_id


class ActivationMessage:
    """One activation handed to an invoker over the Kafka bus.

    Carries the request, the in-flight invocation record, the optional
    container-colocation hint, and the event the controller-side caller
    blocks on until the invoker finishes."""

    def __init__(self, request: InvocationRequest, invocation: Invocation,
                 prefer_container: Optional[FunctionContainer],
                 done):
        self.request = request
        self.invocation = invocation
        self.prefer_container = prefer_container
        self.done = done
        #: Set by :meth:`Invoker.cancel`. A cancel whose interrupt a
        #: crash overrides leaves it set on the requeued message, and the
        #: next invoker's handler fails ``done`` instead of running it.
        self.cancelled = False
        #: The handler running this activation on its current invoker
        #: (a started process): what crash and cancel interrupt.
        self.handler = None


class Invoker:
    """Launches functions in containers on one server."""

    #: How long to back off when the server has no memory for a container.
    MEMORY_RETRY_S = 0.05

    def __init__(self, env: Environment, server: Server,
                 constants: ServerlessConstants,
                 rng: np.random.Generator,
                 container_ids: Iterator[int],
                 fault_rate: float = 0.0,
                 keepalive_s: Optional[float] = None):
        if not 0 <= fault_rate < 1:
            raise ValueError("fault rate must be in [0, 1)")
        self.env = env
        self.server = server
        self.constants = constants
        self.rng = rng
        #: The platform's container-id counter, shared by its invokers.
        self._container_ids = container_ids
        self.fault_rate = fault_rate
        self.keepalive_s = (keepalive_s if keepalive_s is not None
                            else constants.default_keepalive_s)
        self._warm: Dict[str, List[FunctionContainer]] = {}
        #: Earliest warm-container expiry across every pool (stale-low is
        #: safe: it only costs one wasted scan). Lets _reap_expired exit
        #: in O(1) on the hot take_warm path when nothing can be expired.
        self._warm_min_expiry = float("inf")
        #: Activations asleep waiting for container memory: woken by the
        #: server's free-memory hook or by a new evictable warm container
        #: instead of a retry timer.
        self._mem_waiters: List = []
        server.add_free_memory_listener(self._signal_memory)
        #: Machine-health multiplier on service times (thermal throttling,
        #: failing disks, noisy neighbours outside our control): the
        #: straggler source the p90 mitigation targets (section 4.6).
        self.slow_factor = 1.0
        #: Cleared by :meth:`crash` (chaos invoker/server-crash injection).
        self.alive = True
        #: In-flight activations: invocation_id -> message. Registered
        #: at handler start, removed at handler exit, so every handler
        #: filed here is alive; :meth:`crash` interrupts them all,
        #: :meth:`cancel` one.
        self._active: Dict[int, ActivationMessage] = {}
        self.cold_starts = 0
        self.warm_starts = 0
        self.respawns = 0

    # -- chaos hooks -----------------------------------------------------------
    def crash(self) -> list:
        """Kill the invoker daemon: containers die, activations abort.

        Every in-flight handler is interrupted (cause ``"crash"``) —
        cleanup releases its cores and frees its container memory — and
        the warm pool is torn down. Returns the orphaned activation
        messages so the platform can re-enqueue them; their ``done``
        events stay pending until the requeued execution completes.
        """
        self.alive = False
        orphans = []
        for _, message in sorted(self._active.items()):
            message.handler.interrupt("crash")
            orphans.append(message)
        self._active.clear()
        for pool in self._warm.values():
            for container in pool:
                container.mark_terminated()
                self.server.free_memory(container.memory_mb)
        self._warm.clear()
        self._warm_min_expiry = float("inf")
        return orphans

    def restore(self) -> None:
        """Reboot complete: start taking activations again."""
        self.alive = True

    def cancel(self, invocation_id: int) -> bool:
        """Reap one in-flight activation (straggler-loser cleanup).

        The handler is interrupted with cause ``"cancel"``; it releases
        its resources and fails its ``done`` event with
        :class:`ActivationCancelled`. Returns False when the activation
        is not executing here (already finished, or still upstream).
        """
        message = self._active.get(invocation_id)
        if message is None:
            return False
        message.cancelled = True
        message.handler.interrupt("cancel")
        return True

    # -- warm pool ----------------------------------------------------------
    def _reap_expired(self) -> None:
        # Every container in a pool shares this invoker's keepalive, so a
        # pool is sorted by expiry (appended at completion time, removals
        # keep the order): only an expired *prefix* can exist, which makes
        # reaping O(expired) instead of a full scan per invocation.
        now = self.env.now
        if now < self._warm_min_expiry:
            return
        for image in [image for image, pool in self._warm.items()
                      if pool and pool[0].is_expired(now)]:
            pool = self._warm[image]
            drop = 0
            for container in pool:
                if not container.is_expired(now):
                    break
                container.mark_terminated()
                self.server.free_memory(container.memory_mb)
                drop += 1
            if drop == len(pool):
                del self._warm[image]
            else:
                del pool[:drop]
        self._warm_min_expiry = min(
            (pool[0].warm_expiry for pool in self._warm.values() if pool),
            default=float("inf"))

    def take_warm(self, request: InvocationRequest,
                  prefer: Optional[FunctionContainer] = None
                  ) -> Optional[FunctionContainer]:
        """Claim a warm container compatible with the request, if any."""
        self._reap_expired()
        pool = self._warm.get(request.spec.image, [])
        if prefer is not None and prefer in pool \
                and prefer.compatible_with(request.spec):
            pool.remove(prefer)
            return prefer
        if pool and pool[0].compatible_with(request.spec):
            # Indexed hit: the image keys the pool and in steady state
            # every container of an image has the same memory class, so
            # the oldest (head) container is the match — no scan.
            return pool.pop(0)
        for container in pool:
            if container.compatible_with(request.spec):
                pool.remove(container)
                return container
        return None

    def has_warm(self, image: str) -> bool:
        self._reap_expired()
        return bool(self._warm.get(image))

    def warm_container_of(self, invocation: Invocation
                          ) -> Optional[FunctionContainer]:
        """The still-warm container a past invocation ran in, if alive."""
        self._reap_expired()
        for pool in self._warm.values():
            for container in pool:
                if container.container_id == invocation.container_id:
                    return container
        return None

    def _evict_one_warm(self) -> bool:
        """Terminate the stalest warm container to free memory."""
        victim: Optional[FunctionContainer] = None
        for pool in self._warm.values():
            for container in pool:
                if victim is None or container.warm_expiry < victim.warm_expiry:
                    victim = container
        if victim is None:
            return False
        self._warm[victim.image].remove(victim)
        if not self._warm[victim.image]:
            del self._warm[victim.image]
        victim.mark_terminated()
        self.server.free_memory(victim.memory_mb)
        return True

    @property
    def warm_count(self) -> int:
        return sum(len(pool) for pool in self._warm.values())

    # -- memory waits --------------------------------------------------------
    def _signal_memory(self) -> None:
        """Wake every sleeping activation: memory state changed."""
        if not self._mem_waiters:
            return
        waiters, self._mem_waiters = self._mem_waiters, []
        now = self.env.now
        for gate in waiters:
            gate.succeed(now)

    def _reserve_container_memory(self, memory_mb: float) -> Generator:
        """Process: claim ``memory_mb``, evicting stale warm containers.

        The model is a poll every ``MEMORY_RETRY_S``. Between memory
        releases and warm-container arrivals those polls are provably
        no-ops (nothing to reserve, nothing to evict), so the activation
        sleeps on the release hook and then resumes at the first
        boundary of the poll grid after the signal — the accumulated
        ``now + 0.05 + 0.05 + ...`` floats a real poll loop would reach.
        """
        boundary = None
        while not self.server.reserve_memory(memory_mb):
            if self._evict_one_warm():
                continue
            if boundary is None:
                boundary = self.env.now
            tally("serverless", 2)
            gate = self.env.event()
            self._mem_waiters.append(gate)
            signal_time = yield gate
            while boundary <= signal_time:
                boundary += self.MEMORY_RETRY_S
            yield self.env.timeout_at(boundary)

    # -- execution ------------------------------------------------------------
    def _cold_start_time(self) -> float:
        median = self.constants.cold_start_median_s
        sigma = self.constants.cold_start_sigma
        return float(self.rng.lognormal(np.log(median), sigma))

    def _interference_factor(self) -> float:
        """Latency inflation from sharing the node with other functions."""
        occupancy = self.server.utilization
        excess = max(0.0, occupancy - 0.5)
        inflation = 1.0 + self.constants.interference_slope * excess
        # Multi-tenant noise: the node also hosts other tenants' functions
        # (serverless gives no machine-type or colocation guarantees) —
        # the variability reserved deployments do not see (Fig 6a).
        jitter = float(self.rng.lognormal(0.0, 0.16))
        return inflation * jitter * self.slow_factor

    def _acquire_container(self, request: InvocationRequest,
                           invocation: Invocation,
                           prefer: Optional[FunctionContainer]) -> Generator:
        container = self.take_warm(request, prefer=prefer)
        try:
            if container is not None:
                start_cost = self.constants.warm_start_s
                self.warm_starts += 1
            else:
                # Cold path: reserve memory (evicting stale warm containers
                # if needed), then pay the Docker instantiation cost.
                yield from self._reserve_container_memory(
                    request.spec.memory_mb)
                container = FunctionContainer(
                    next(self._container_ids), self.server.server_id,
                    request.spec.image, request.spec.memory_mb)
                start_cost = self._cold_start_time()
                self.cold_starts += 1
                invocation.cold_start = True
            tally("serverless", 1)
            yield self.env.timeout(start_cost)
        except Interrupt:
            # Killed mid-start (invoker crash / cancel): the half-built
            # container dies with us; its memory goes back to the server.
            if container is not None:
                container.mark_terminated()
                self.server.free_memory(container.memory_mb)
            raise
        invocation.instantiation_s += start_cost
        invocation.breakdown.charge("management", start_cost)
        container.mark_running()
        return container

    def run(self, request: InvocationRequest, invocation: Invocation,
            prefer_container: Optional[FunctionContainer] = None) -> Generator:
        """Process: execute one activation on this server.

        Fills in the invocation's container/server fields, instantiation
        and execution charges, and handles fault-respawn loops.
        Interrupt-safe: a crash/cancel mid-execution releases the pinned
        cores and frees the container's memory before propagating.
        """
        trace = invocation.trace
        acquire_start = self.env.now
        container = yield from self._acquire_container(
            request, invocation, prefer_container)
        invocation.server_id = self.server.server_id
        invocation.container_id = container.container_id
        invocation.colocated = (
            prefer_container is not None and container is prefer_container)
        if trace:
            trace.emit("cold_start" if invocation.cold_start
                       else "warm_start", "serverless",
                       acquire_start, self.env.now,
                       server=self.server.server_id)

        grant = None
        try:
            while True:
                attempt_start = self.env.now
                tally("serverless", 2)  # core grant + compute timeout
                grant = yield from self.server.acquire_cores(1)
                service = request.service_s * self._interference_factor()
                faulty = (self.fault_rate > 0 and
                          float(self.rng.random()) < self.fault_rate)
                if faulty:
                    # Fail partway through, release the core, respawn.
                    failed_after = service * float(self.rng.uniform(0.1, 0.9))
                    yield from self.server.compute(grant, failed_after)
                    grant.release()
                    grant = None
                    invocation.failures += 1
                    invocation.breakdown.charge("execution", failed_after)
                    self.respawns += 1
                    if trace:
                        trace.emit("execute_failed", "execution",
                                   attempt_start, self.env.now)
                    continue
                yield from self.server.compute(grant, service)
                grant.release()
                grant = None
                invocation.breakdown.charge("execution", service)
                if trace:
                    trace.emit("execute", "execution",
                               attempt_start, self.env.now)
                break
        except Interrupt:
            if grant is not None:
                grant.release()
            container.mark_terminated()
            self.server.free_memory(container.memory_mb)
            raise

        container.mark_warm(self.env.now, self.keepalive_s)
        self._warm.setdefault(container.image, []).append(container)
        if container.warm_expiry < self._warm_min_expiry:
            self._warm_min_expiry = container.warm_expiry
        # A fresh warm container is evictable: wake memory waits.
        self._signal_memory()
        return invocation

    # -- Kafka consumer -------------------------------------------------------
    def start_consumer(self, bus, topic: str) -> None:
        """Begin consuming activations from this invoker's topic.

        OpenWhisk's controller passes function information to the chosen
        invoker via Kafka's publish-subscribe model (section 4.3); each
        consumed activation runs concurrently (containers start in
        parallel) and signals its ``done`` event on completion.
        """
        bus.subscribe(topic, self._spawn_handler)

    def _spawn_handler(self, message: ActivationMessage) -> None:
        # Started in place: a Kafka delivery runs inside a NORMAL
        # dispatch with the urgent lane empty, so the Initialize a
        # process would schedule was the very next event, and nothing
        # drew an id or a random number in between. Filed before the
        # first segment runs, since _handle's finally may pop it there.
        self._active[message.invocation.invocation_id] = message
        message.handler = self.env.start(self._handle(message))

    def _handle(self, message: ActivationMessage) -> Generator:
        iid = message.invocation.invocation_id
        try:
            if message.cancelled:
                tally("serverless", 1)
                message.done.fail(ActivationCancelled(iid))
                return
            if not self.alive:
                # Delivered to the topic of an invoker that crashed
                # while the message was on the bus: the crash sweep
                # missed it and nothing requeues it (a known gap,
                # ROADMAP "No activation lost in a dead invoker's topic").
                return
            yield from self.run(
                message.request, message.invocation,
                prefer_container=message.prefer_container)
            tally("serverless", 1)
            message.done.succeed(message.invocation)
        except Interrupt as interrupt:
            if interrupt.cause == "cancel":
                tally("serverless", 1)
                message.done.fail(ActivationCancelled(iid))
            # "crash": leave `done` pending — the platform requeues the
            # activation and the replacement execution will succeed it.
        except BaseException as error:  # surface crashes to the caller
            tally("serverless", 1)
            message.done.fail(error)
        finally:
            self._active.pop(iid, None)
