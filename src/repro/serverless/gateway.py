"""Cloud-shard gateway for the sharded scenario runtime.

In sharded execution (:mod:`repro.sim.shard`) the swarm's edge cells run
in their own kernels and the cloud tier — the OpenWhisk platform, the
backend cluster and its network, CouchDB persistence, straggler
mitigation — runs here, in exactly one :class:`CloudGateway`. Edge cells
never observe cloud results mid-flight (the scenario graphs have no
cloud→edge data edge; only the final synchronization barrier joins the
tiers), so the gateway can lag the cells by a full barrier window and
still serve every message at its exact arrival timestamp.

Determinism: the gateway is fed the *merged* cloud-bound message stream
in canonical ``(arrival_s, cell, seq)`` order, each message carrying the
service-time draws its cell already made from its own streams. The
gateway adds randomness only from its own private stream namespace
(``seed + GATEWAY_SEED_OFFSET``). Since neither the merged stream nor
the gateway's seeds depend on how cells were grouped into shards, the
cloud side is byte-identical at any shard count.

When the cloud tier is itself decomposed (``REPRO_CLOUD_SHARDS``), the
per-region analytic model in :mod:`repro.serverless.region` replaces
this gateway entirely; hybrid exact/mean-field runs always take that
path, so synthetic background calls must never reach a
:class:`CloudGateway` — :meth:`CloudGateway.feed` enforces it.
"""

from __future__ import annotations

import math
from typing import Generator

from ..cluster import Cluster
from ..config import PaperConstants
from ..core import StragglerMitigator
from ..hardware import RemoteMemoryFabric
from ..network import build_fabric
from ..sim import Environment, RandomStreams
from ..telemetry import LatencyBreakdown
from .function import InvocationRequest
from .openwhisk import OpenWhiskPlatform

__all__ = ["CloudGateway", "GATEWAY_SEED_OFFSET"]

#: Seed offset separating the gateway's stream namespace from the cells'
#: (cells use ``seed + 1000 * cell_index``; the offset keeps the gateway
#: clear of any realistic cell count).
GATEWAY_SEED_OFFSET = 271_828


class CloudGateway:
    """The cloud half of a sharded scenario run.

    ``config`` is the :class:`~repro.platforms.base.PlatformConfig` under
    test (must be cloud-backed), ``constants`` the *globally scaled*
    :class:`~repro.config.PaperConstants`, ``n_devices`` the whole-swarm
    device count (drives HiveMind's controller scale-out exactly as the
    unsharded runner's ``_n_controllers`` does).
    """

    def __init__(self, config, scenario, constants: PaperConstants,
                 n_devices: int, seed: int = 0):
        if config.execution not in ("cloud_faas", "hybrid"):
            raise ValueError(
                "CloudGateway requires a cloud-backed platform "
                f"(got execution={config.execution!r})")
        self.config = config
        self.scenario = scenario
        env = self.env = Environment()
        streams = self.streams = RandomStreams(seed + GATEWAY_SEED_OFFSET)
        cluster = Cluster(env, constants.cluster)
        fabric = build_fabric(env, constants, streams)
        remote_memory = (RemoteMemoryFabric(env, constants.accel)
                         if config.remote_mem else None)
        n_controllers = config.n_controllers
        if config.scheduler == "hivemind":
            n_controllers = max(n_controllers, math.ceil(n_devices / 64))
        self.platform = OpenWhiskPlatform(
            env, cluster, streams,
            constants=constants.serverless,
            scheduler=config.scheduler,
            sharing=config.sharing,
            keepalive_s=config.container_keepalive_s,
            n_controllers=n_controllers,
            cluster_network=fabric.cluster,
            remote_memory=remote_memory)
        self.mitigator = (StragglerMitigator(env, self.platform,
                                             constants.control)
                          if config.straggler_mitigation else None)
        self.recognition_spec = scenario.recognition.function_spec()
        self.dedup_spec = (scenario.dedup.function_spec()
                           if scenario.dedup is not None else None)
        _, directives = scenario.dsl_graph()
        self._persisted_tasks = set(directives.persisted)
        self.persisted_documents = 0
        self.completions = 0
        self.last_completion_s = 0.0
        self._outstanding = 0
        self._idle_event = None

    # -- feeding --------------------------------------------------------
    def feed(self, calls) -> None:
        """Register cloud-bound messages (one barrier window's worth).

        ``calls`` must already be in canonical ``(arrival_s, cell, seq)``
        order and must all have ``arrival_s >= self.env.now`` — i.e. feed
        a window's batch *before* advancing the gateway past it.
        """
        for call in calls:
            if call.arrival_s < self.env.now:
                raise RuntimeError(
                    f"late cloud message: arrival {call.arrival_s:.6f} < "
                    f"gateway time {self.env.now:.6f} (barrier protocol "
                    "violated)")
            if call.synthetic:
                raise RuntimeError(
                    "synthetic mean-field call fed to the monolithic "
                    "CloudGateway; hybrid runs must use the regional "
                    "cloud tier (cloud_shards >= 1)")
            self._outstanding += 1
            self.env.process(self._serve(call))

    def _invoke(self, request: InvocationRequest) -> Generator:
        if self.mitigator is not None:
            result = yield from self.mitigator.invoke(request)
        else:
            result = yield from self.platform.invoke(request)
        return result

    def _persist(self, task_name: str, key: str,
                 megabytes: float) -> Generator:
        if task_name not in self._persisted_tasks:
            return
        yield from self.platform.couchdb.store(key, megabytes)
        self.persisted_documents += 1

    def _serve(self, call) -> Generator:
        yield self.env.timeout_at(call.arrival_s)
        breakdown = LatencyBreakdown()
        try:
            parent = None
            if call.recognition_s is not None:
                request = InvocationRequest(
                    spec=self.recognition_spec,
                    service_s=call.recognition_s,
                    input_mb=call.input_mb, output_mb=call.output_mb)
                parent = yield from self._invoke(request)
                breakdown.charge("management",
                                 parent.breakdown.management)
                breakdown.charge("data_io", parent.breakdown.data_io)
                breakdown.charge("execution", parent.breakdown.execution)
                yield from self._persist(
                    "recognition", f"rec-{parent.invocation_id}",
                    call.output_mb)
            if call.dedup_s is not None and self.dedup_spec is not None:
                request = InvocationRequest(
                    spec=self.dedup_spec, service_s=call.dedup_s,
                    input_mb=(parent.request.output_mb
                              if parent is not None else call.input_mb),
                    output_mb=0.05, parent=parent)
                invocation = yield from self._invoke(request)
                breakdown.charge("management",
                                 invocation.breakdown.management)
                breakdown.charge("data_io",
                                 invocation.breakdown.data_io)
                breakdown.charge("execution",
                                 invocation.breakdown.execution)
                yield from self._persist(
                    "aggregate", f"agg-{invocation.invocation_id}", 0.05)
            call.completion_s = self.env.now
            call.cloud_breakdown = breakdown.as_dict()
            self.completions += 1
            self.last_completion_s = max(self.last_completion_s,
                                         self.env.now)
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._idle_event is not None:
                event, self._idle_event = self._idle_event, None
                event.succeed()

    # -- stepping -------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Messages fed but not yet completed."""
        return self._outstanding

    def advance_to(self, until: float) -> None:
        """Dispatch the cloud kernel up to simulated time ``until``."""
        if until > self.env.now:
            self.env.run(until=until)

    def drain(self) -> float:
        """Run until every fed message has completed; returns the time of
        the last completion (the cloud tier's contribution to the global
        makespan)."""
        while self._outstanding > 0:
            self._idle_event = self.env.event()
            self.env.run(until=self._idle_event)
        return self.last_completion_s

    @property
    def cold_starts(self) -> int:
        return self.platform.cold_starts
