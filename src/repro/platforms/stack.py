"""Platform assembly: the cloud side and the edge transport, built once.

Every runner and the monolithic :class:`~repro.serverless.gateway.
CloudGateway` turn a :class:`~repro.platforms.base.PlatformConfig` into
the same objects: a backend :class:`~repro.cluster.Cluster`, the FPGA
remote-memory fabric when ``remote_mem`` is set (section 4.4), an
:class:`~repro.serverless.OpenWhiskPlatform` with the platform's
scheduler, sharing protocol, keep-alive and controller count, the
straggler watchdog when ``straggler_mitigation`` is set (section 4.6),
and an edge->cloud RPC transport that is FPGA-offloaded when
``net_accel`` is set (section 4.5). This module is the one place that
does so. :meth:`CloudStack.persist` is the one Persist-directive stage
(Listing 2): the scenario runner and the sharded run's
:class:`~repro.serverless.gateway.CloudGateway` both store through it.
The task stages the runners share sit in :mod:`repro.platforms.pipeline`.
"""

from __future__ import annotations

from typing import AbstractSet, Generator, Optional

from ..cluster import Cluster
from ..config import PaperConstants
from ..core import StragglerMitigator
from ..hardware import AcceleratedEdgeRpc, RemoteMemoryFabric
from ..network import EdgeCloudRpc, ReliableEdgeRpc
from ..obs import NULL_CONTEXT
from ..serverless import InvocationRequest, OpenWhiskPlatform
from ..telemetry import LatencyBreakdown
from .base import PlatformConfig

__all__ = ["CloudStack", "build_cloud", "build_edge_rpc"]


class CloudStack:
    """The cloud side of one platform: ``platform`` and, when the config
    mitigates stragglers, the ``mitigator`` wrapping it.
    ``persisted_documents`` counts the outputs :meth:`persist` stored."""

    __slots__ = ("platform", "mitigator", "persisted_documents")

    def __init__(self, platform: OpenWhiskPlatform,
                 mitigator: Optional[StragglerMitigator]):
        self.platform = platform
        self.mitigator = mitigator
        self.persisted_documents = 0

    def invoke(self, request: InvocationRequest,
               breakdown: LatencyBreakdown) -> Generator:
        """Run one invocation (through the straggler watchdog when one
        is set), charge its cloud components to ``breakdown`` and return
        it."""
        if self.mitigator is not None:
            invocation = yield from self.mitigator.invoke(request)
        else:
            invocation = yield from self.platform.invoke(request)
        breakdown.charge("management", invocation.breakdown.management)
        breakdown.charge("data_io", invocation.breakdown.data_io)
        breakdown.charge("execution", invocation.breakdown.execution)
        return invocation

    def persist(self, persisted: AbstractSet[str], task_name: str, key: str,
                megabytes: float, trace=NULL_CONTEXT) -> Generator:
        """Store ``task_name``'s output in CouchDB when the graph's
        Persist directive names it in ``persisted``; no-op otherwise."""
        if task_name not in persisted:
            return
        env = self.platform.env
        start = env.now
        yield from self.platform.couchdb.store(key, megabytes)
        if trace:
            trace.emit("persist", "data_io", start, env.now, key=key)
        self.persisted_documents += 1


def build_cloud(env, config: PlatformConfig, constants: PaperConstants,
                streams, cluster_network, n_devices: int,
                fault_rate: float = 0.0,
                keepalive_s: Optional[float] = None,
                harden_races: bool = False) -> CloudStack:
    """Build ``config``'s cloud side for a ``n_devices`` swarm.

    ``keepalive_s`` overrides the config's container keep-alive;
    ``fault_rate`` and ``harden_races`` pass through to the platform and
    the straggler watchdog.
    """
    cluster = Cluster(env, constants.cluster)
    remote_memory = (RemoteMemoryFabric(env, constants.accel)
                     if config.remote_mem else None)
    platform = OpenWhiskPlatform(
        env, cluster, streams,
        constants=constants.serverless,
        scheduler=config.scheduler,
        sharing=config.sharing,
        fault_rate=fault_rate,
        keepalive_s=(keepalive_s if keepalive_s is not None
                     else config.container_keepalive_s),
        n_controllers=config.controllers_for(n_devices),
        cluster_network=cluster_network,
        remote_memory=remote_memory)
    mitigator = (StragglerMitigator(env, platform, constants.control,
                                    harden_races=harden_races)
                 if config.straggler_mitigation else None)
    return CloudStack(platform, mitigator)


def build_edge_rpc(env, config: PlatformConfig, constants: PaperConstants,
                   wireless, recovery_log=None
                   ) -> EdgeCloudRpc | ReliableEdgeRpc:
    """The edge->cloud transport over ``wireless``. A ``recovery_log``
    (chaos runs) adds retries and backoff across partition windows;
    exhausted budgets surface as :class:`~repro.network.RpcTimeout`."""
    if config.net_accel:
        rpc = AcceleratedEdgeRpc(env, wireless, constants.accel)
    else:
        rpc = EdgeCloudRpc(env, wireless)
    if recovery_log is not None:
        rpc = ReliableEdgeRpc(env, rpc, recovery_log=recovery_log)
    return rpc
