"""The assembled serverless platform (OpenWhisk emulation).

Ties together the front end, CouchDB, the controller, Kafka, per-server
invokers, a placement policy, and a data-sharing protocol into the pipeline
the paper describes (section 2.3): an HTTP request hits the NGINX front end,
the controller authenticates against CouchDB and selects an invoker, the
activation travels over Kafka, and the invoker instantiates the function in
a Docker container.

:class:`OpenWhiskPlatform.invoke` is the single entry point; it returns a
completed :class:`~repro.serverless.function.Invocation` whose breakdown
carries the management / data-I/O / execution split of Figs 3a, 6b and 12.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Generator, List, Optional, Tuple

from ..cluster import Cluster
from ..config import ServerlessConstants
from ..hardware.remote_memory import RemoteMemoryFabric
from ..network.rpc import SoftwareClusterRpc
from ..network.switch import ClusterNetwork
from ..sim.accounting import tally
from ..sim import Environment, RandomStreams
from .couchdb import CouchDB
from .datasharing import (
    CouchDBSharing,
    InMemorySharing,
    RemoteMemorySharing,
    RpcSharing,
)
from .function import Invocation, InvocationRequest
from .invoker import ActivationMessage, Invoker
from .kafka import KafkaBus
from .scheduler import HiveMindScheduler, OpenWhiskScheduler, Placement

__all__ = ["OpenWhiskPlatform"]

SHARING_PROTOCOLS = ("couchdb", "rpc", "remote_memory")


class OpenWhiskPlatform:
    """A serverless cloud on top of a :class:`~repro.cluster.Cluster`."""

    def __init__(self, env: Environment, cluster: Cluster,
                 streams: RandomStreams,
                 constants: Optional[ServerlessConstants] = None,
                 scheduler: str = "openwhisk",
                 sharing: str = "couchdb",
                 fault_rate: float = 0.0,
                 keepalive_s: Optional[float] = None,
                 n_controllers: int = 1,
                 cluster_network: Optional[ClusterNetwork] = None,
                 remote_memory: Optional[RemoteMemoryFabric] = None):
        if sharing not in SHARING_PROTOCOLS:
            raise ValueError(f"unknown sharing protocol {sharing!r}")
        if n_controllers <= 0:
            raise ValueError("need at least one controller")
        if keepalive_s is not None and not keepalive_s >= 0:
            raise ValueError("keep-alive must be non-negative")
        self.env = env
        self.cluster = cluster
        self.constants = constants or ServerlessConstants()
        self.couchdb = CouchDB(env, self.constants,
                               rng=streams.stream("serverless.couchdb"))
        self.kafka = KafkaBus(env, self.constants)
        #: Per-platform id counters: invocation ids and container ids
        #: (shared by every invoker) depend only on this run.
        self._invocation_ids = itertools.count()
        container_ids = itertools.count()
        self.invokers: List[Invoker] = [
            Invoker(env, server, self.constants,
                    rng=streams.stream(f"serverless.invoker.{server_id}"),
                    container_ids=container_ids,
                    fault_rate=fault_rate, keepalive_s=keepalive_s)
            for server_id, server in sorted(cluster.servers.items())
        ]
        # Each invoker consumes its own Kafka topic (section 4.3).
        for invoker in self.invokers:
            invoker.start_consumer(
                self.kafka, self._topic_of(invoker))
        if scheduler == "hivemind":
            self.scheduler = HiveMindScheduler(self.invokers)
        elif scheduler == "openwhisk":
            self.scheduler = OpenWhiskScheduler(self.invokers)
        else:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        #: Shared-state controller capacity: HiveMind can run several
        #: schedulers with global visibility (section 4.3); stock OpenWhisk
        #: has one. This is the centralized-scalability bottleneck of Fig 1.
        #: The hold time is fixed, so the controllers are a k-entry
        #: min-heap of controller-free times (grant order = arrival
        #: order).
        self._controller_free = [0.0] * n_controllers
        #: Admission control (the platform-wide in-flight cap). The hold
        #: spans the whole activation, so this cannot become a virtual
        #: clock; instead it keeps an integer occupancy and only
        #: materializes an event for admissions that actually wait.
        self._admitted = 0
        self._adm_waiters: deque = deque()
        self.sharing_name = sharing
        self._sharing_couchdb = CouchDBSharing(env, self.couchdb,
                                               self.constants)
        self._sharing_inmem = InMemorySharing(env, self.constants)
        self._sharing_rpc = (
            RpcSharing(env, SoftwareClusterRpc(env, cluster_network),
                       self.constants)
            if cluster_network is not None else None)
        self._sharing_remote = (
            RemoteMemorySharing(env, remote_memory)
            if remote_memory is not None else None)
        self.invocations: List[Invocation] = []
        self.active_tasks = 0
        #: (time, active_count) samples, appended on every change (Fig 5c).
        self.active_samples: List[Tuple[float, int]] = [(0.0, 0)]
        self._invoker_by_server = {
            invoker.server.server_id: invoker for invoker in self.invokers}
        #: Chaos wiring (all empty/None in fault-free runs, where they add
        #: no events): completion observers, the resilience recovery log,
        #: and requeue actions awaiting their activation's completion.
        self._completion_listeners: List = []
        self.recovery_log = None
        self._pending_recovery = {}
        self.requeues = 0
        self.cancellations = 0

    @staticmethod
    def _topic_of(invoker: Invoker) -> str:
        return f"invoker-{invoker.server.server_id}"

    # -- chaos: crash, recover, cancel ----------------------------------------
    def invoker_of(self, server_id: str) -> Invoker:
        found = self._invoker_by_server.get(server_id)
        if found is None:
            raise KeyError(f"no invoker on server {server_id!r}")
        return found

    def add_completion_listener(self, listener) -> None:
        """``listener(invocation)`` fires on every finished activation."""
        self._completion_listeners.append(listener)

    def crash_server(self, server_id: str) -> int:
        """Hard server crash: cores, memory, containers, invoker all die.

        In-flight activations are interrupted and re-enqueued through the
        scheduler onto surviving servers; returns how many were requeued.
        """
        invoker = self.invoker_of(server_id)
        invoker.server.fail()
        return self._crash_and_requeue(invoker)

    def crash_invoker(self, server_id: str) -> int:
        """Invoker-daemon crash: the server stays up but its executor and
        containers die; in-flight activations are re-enqueued."""
        return self._crash_and_requeue(self.invoker_of(server_id))

    def restore_invoker(self, server_id: str) -> None:
        self.invoker_of(server_id).restore()

    def _crash_and_requeue(self, invoker: Invoker) -> int:
        orphans = invoker.crash()
        for message in orphans:
            self._requeue(message)
        return len(orphans)

    def _requeue(self, message: ActivationMessage) -> None:
        """Re-enqueue a crash-orphaned activation on a healthy invoker."""
        invocation = message.invocation
        invocation.requeues += 1
        self.requeues += 1
        if invocation.trace:
            invocation.trace.emit("requeue", "serverless",
                                  self.env.now, self.env.now)
        if self.recovery_log is not None:
            self._pending_recovery[invocation.invocation_id] = \
                self.recovery_log.record("requeue")
        self.env.start(self._republish(message))

    def _republish(self, message: ActivationMessage) -> Generator:
        # Fresh placement: the scheduler skips dead invokers. The original
        # container hint is moot — it died with the old invoker.
        placement = self.scheduler.place(message.request)
        message.prefer_container = placement.container
        yield from self.kafka.publish(
            self._topic_of(placement.invoker), message)

    def cancel_invocation(self, invocation: Invocation) -> bool:
        """Reap an executing activation (straggler-loser cleanup).

        Best-effort: returns False when the activation is not currently
        executing on its invoker (still upstream in the pipeline, or
        already finished) — then it simply runs out on its own.
        """
        if not invocation.server_id:
            return False
        invoker = self._invoker_by_server.get(invocation.server_id)
        if invoker is None:
            return False
        cancelled = invoker.cancel(invocation.invocation_id)
        if cancelled:
            self.cancellations += 1
        return cancelled

    # -- bookkeeping ----------------------------------------------------------
    def _task_started(self) -> None:
        self.active_tasks += 1
        self.active_samples.append((self.env.now, self.active_tasks))

    def _task_finished(self) -> None:
        self.active_tasks -= 1
        self.active_samples.append((self.env.now, self.active_tasks))

    @property
    def cold_starts(self) -> int:
        return sum(inv.cold_starts for inv in self.invokers)

    @property
    def warm_starts(self) -> int:
        return sum(inv.warm_starts for inv in self.invokers)

    @property
    def respawns(self) -> int:
        return sum(inv.respawns for inv in self.invokers)

    # -- data sharing -----------------------------------------------------------
    def _select_sharing(self, colocated: bool):
        if colocated:
            return self._sharing_inmem
        if self.sharing_name == "rpc":
            if self._sharing_rpc is None:
                raise RuntimeError(
                    "RPC sharing requires a cluster network")
            return self._sharing_rpc
        if self.sharing_name == "remote_memory":
            if self._sharing_remote is None:
                raise RuntimeError(
                    "remote-memory sharing requires an FPGA fabric")
            return self._sharing_remote
        return self._sharing_couchdb

    def _share_parent_output(self, request: InvocationRequest,
                             invocation: Invocation,
                             placement: Placement) -> Generator:
        parent = request.parent
        if parent is None or parent.request.output_mb == 0:
            return
        colocated = placement.container is not None
        protocol = self._select_sharing(colocated)
        dst = placement.invoker.server.server_id
        src = dst if colocated else (parent.server_id or dst)
        took = yield from protocol.share(src, dst,
                                         parent.request.output_mb)
        invocation.data_share_s += took
        invocation.breakdown.charge("data_io", took)

    # -- the activation pipeline -----------------------------------------------
    def invoke(self, request: InvocationRequest) -> Generator:
        """Process: run one activation end to end; returns the Invocation."""
        invocation = Invocation(
            request=request, invocation_id=next(self._invocation_ids),
            t_arrive=self.env.now)
        request.inflight = invocation
        if request.trace:
            invocation.trace = request.trace.span(
                "invocation", "serverless", self.env.now,
                function=request.spec.name)
        if self._admitted < self.constants.concurrency_limit:
            self._admitted += 1
        else:
            # Park on a gate, granted FIFO at a release.
            tally("serverless", 1)
            gate = self.env.event()
            self._adm_waiters.append(gate)
            yield gate
        self._task_started()
        try:
            yield from self._pipeline(request, invocation)
        finally:
            self._task_finished()
            if self._adm_waiters:
                self._adm_waiters.popleft().succeed(None)
            else:
                self._admitted -= 1
        self._finish_invocation(invocation)
        return invocation

    def _pipeline(self, request: InvocationRequest,
                  invocation: Invocation) -> Generator:
        """Process: the admitted activation pipeline (front end through
        completion)."""
        trace = invocation.trace
        # Front end, then the auth check against CouchDB and the
        # controller's scheduler slot, claimed together in one step:
        # the auth pass arrives at the controller the instant it ends.
        front_start = self.env.now
        tally("serverless", 1)
        yield self.env.timeout(self.constants.frontend_latency_s)
        auth_start = self.env.now
        auth_end = self.couchdb.claim(self.constants.auth_check_s)
        hold = (self.constants.controller_decision_s +
                self.constants.controller_service_s)
        tally("serverless", 1)
        free_at = heapq.heappop(self._controller_free)
        grant_at = free_at if free_at > auth_end else auth_end
        end = grant_at + hold
        heapq.heappush(self._controller_free, end)
        yield self.env.timeout_at(end)
        invocation.breakdown.charge(
            "management",
            self.constants.frontend_latency_s + (auth_end - auth_start))
        placement = self.scheduler.place(request)
        invocation.breakdown.charge("management", self.env.now - auth_end)
        if trace:
            trace.emit("frontend", "serverless", front_start, auth_start)
            trace.emit("couchdb_auth", "data_io", auth_start, auth_end)
            trace.emit("controller", "serverless", auth_end, self.env.now)
        # Fetch the parent's output (protocol depends on placement).
        share_start = self.env.now
        yield from self._share_parent_output(request, invocation, placement)
        if trace and self.env.now > share_start:
            trace.emit("data_share", "data_io", share_start, self.env.now,
                       protocol=self.sharing_name)
        # Activation travels over Kafka to the chosen invoker's topic; its
        # consumer instantiates and executes, and the caller blocks on the
        # completion event.
        kafka_start = self.env.now
        done = self.env.event()
        message = ActivationMessage(
            request, invocation, placement.container, done)
        yield from self.kafka.publish(
            self._topic_of(placement.invoker), message)
        invocation.breakdown.charge(
            "management", self.env.now - kafka_start)
        if trace:
            trace.emit("kafka", "serverless", kafka_start, self.env.now)
        invocation.t_scheduled = self.env.now
        yield done
        invocation.t_complete = self.env.now

    def _finish_invocation(self, invocation: Invocation) -> None:
        self.invocations.append(invocation)
        for listener in self._completion_listeners:
            listener(invocation)
        if self._pending_recovery:
            action = self._pending_recovery.pop(
                invocation.invocation_id, None)
            if action is not None:
                self.recovery_log.complete(action)
        invocation.trace.close(
            invocation.t_complete,
            server=invocation.server_id, cold=invocation.cold_start,
            requeues=invocation.requeues)
        return invocation

    def invoke_parallel(self, request: InvocationRequest,
                        ways: int) -> Generator:
        """Process: fan one task out across ``ways`` functions (Fig 5a).

        The task's work and payload divide evenly; the task completes when
        every shard does. Returns the list of shard invocations.
        """
        if ways <= 0:
            raise ValueError("parallelism must be positive")
        if ways == 1:
            single = yield from self.invoke(request)
            return [single]
        shards = [self.env.process(self.invoke(InvocationRequest(
            spec=request.spec,
            service_s=request.service_s / ways,
            input_mb=request.input_mb / ways,
            output_mb=request.output_mb / ways,
            parent=request.parent,
            colocate_with_parent=request.colocate_with_parent,
            trace=request.trace))) for _ in range(ways)]
        results = yield self.env.all_of(shards)
        return list(results.values())
