"""Monolithic cloud tier for the sharded scenario runtime.

In sharded execution (:mod:`repro.sim.shard`) the edge cells run in
their own kernels and the cloud tier — OpenWhisk, the backend cluster
and its network, CouchDB persistence, straggler mitigation — runs in one
:class:`CloudGateway` in the driver process. Cells never observe cloud
results mid-flight (the scenario graphs have no cloud→edge data edge),
so the gateway can lag them by a barrier window and still serve every
call at its exact arrival time.

It has the cloud-tier shape the driver shares with the regional tier:
``serve(batch, until)`` feeds a window's calls, runs the kernel to
``until`` and returns the calls completed so far as
:class:`Completions` columns; ``finish()`` drains and returns the rest
plus ``{0: stats()}``.

Determinism: calls arrive in canonical ``(arrival_s, cell, seq)`` order
carrying their cells' service-time draws, and the gateway draws only
from its own stream namespace (``seed + GATEWAY_SEED_OFFSET``), so the
cloud side is byte-identical at any shard count. Synthetic (hybrid)
calls belong to the regional tier: :meth:`CloudGateway.serve` refuses
them.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Tuple

from ..config import PaperConstants
from ..network import build_fabric
from ..platforms.stack import build_cloud
from ..sim import Environment, RandomStreams
from ..telemetry import LatencyBreakdown, breakdown_array
from .function import InvocationRequest
from .region import GATEWAY_SEED_OFFSET
from .wire import Calls, Completions

__all__ = ["CloudGateway", "GATEWAY_SEED_OFFSET"]


class CloudGateway:
    """The cloud half of a sharded scenario run.

    ``config`` is the :class:`~repro.platforms.base.PlatformConfig` under
    test (must be cloud-backed), ``constants`` the *globally scaled*
    :class:`~repro.config.PaperConstants`, ``n_devices`` the whole-swarm
    device count (drives HiveMind's controller scale-out,
    :meth:`~repro.platforms.base.PlatformConfig.controllers_for`).
    """

    def __init__(self, config, scenario, constants: PaperConstants,
                 n_devices: int, seed: int = 0):
        if not config.cloud_backed:
            raise ValueError(
                "CloudGateway requires a cloud-backed platform "
                f"(got execution={config.execution!r})")
        env = self.env = Environment()
        streams = self.streams = RandomStreams(seed + GATEWAY_SEED_OFFSET)
        fabric = build_fabric(env, constants, streams)
        self._cloud = build_cloud(env, config, constants, streams,
                                  fabric.cluster, n_devices)
        self.platform = self._cloud.platform
        self.mitigator = self._cloud.mitigator
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
        self._done: Tuple[List, List, List, List] = ([], [], [], [])

    # -- cloud-tier shape ----------------------------------------------
    def serve(self, calls: Calls, until: float) -> Completions:
        """Feed one window's calls (canonical order, none before
        ``env.now``), run the kernel to ``until`` and return the
        completions since the previous call."""
        if calls.synthetic.any():
            raise RuntimeError(
                "synthetic mean-field call fed to the monolithic "
                "CloudGateway; hybrid runs must use the regional "
                "cloud tier (cloud_shards >= 1)")
        for row in zip(calls.cell.tolist(), calls.seq.tolist(),
                       calls.arrival_s.tolist(),
                       calls.recognition_s.tolist(),
                       calls.dedup_s.tolist(), calls.input_mb.tolist(),
                       calls.output_mb.tolist()):
            if row[2] < self.env.now:
                raise RuntimeError(
                    f"late cloud message: arrival {row[2]:.6f} < "
                    f"gateway time {self.env.now:.6f} (barrier protocol "
                    "violated)")
            self._outstanding += 1
            self.env.start(self._serve(*row))
        if until > self.env.now:
            self.env.run(until=until)
        return self._take_done()

    def finish(self) -> Tuple[Completions, Dict[int, Dict]]:
        """Drain every fed call; return the remaining completions and
        ``{0: stats}`` (the whole backend is one region)."""
        while self._outstanding > 0:
            self._idle_event = self.env.event()
            self.env.run(until=self._idle_event)
        return self._take_done(), {0: self.stats()}

    def _take_done(self) -> Completions:
        (cells, seqs, done_s, breakdowns), self._done = (
            self._done, ([], [], [], []))
        return Completions.build(cells, seqs, done_s,
                                 breakdown_array(breakdowns))

    def stats(self) -> Dict[str, float]:
        return {
            "completions": self.completions,
            "last_completion_s": self.last_completion_s,
            "persisted_documents": self.persisted_documents,
            "cold_starts": self.platform.cold_starts,
        }

    def _persist(self, task_name: str, key: str,
                 megabytes: float) -> Generator:
        if task_name not in self._persisted_tasks:
            return
        yield from self.platform.couchdb.store(key, megabytes)
        self.persisted_documents += 1

    def _serve(self, cell: int, seq: int, arrival_s: float,
               recognition_s: float, dedup_s: float, input_mb: float,
               output_mb: float) -> Generator:
        yield self.env.timeout_at(arrival_s)
        breakdown = LatencyBreakdown()
        try:
            parent = None
            if not math.isnan(recognition_s):
                request = InvocationRequest(
                    spec=self.recognition_spec, service_s=recognition_s,
                    input_mb=input_mb, output_mb=output_mb)
                parent = yield from self._cloud.invoke(request, breakdown)
                yield from self._persist(
                    "recognition", f"rec-{parent.invocation_id}",
                    output_mb)
            if not math.isnan(dedup_s) and self.dedup_spec is not None:
                request = InvocationRequest(
                    spec=self.dedup_spec, service_s=dedup_s,
                    input_mb=(parent.request.output_mb
                              if parent is not None else input_mb),
                    output_mb=0.05, parent=parent)
                invocation = yield from self._cloud.invoke(request,
                                                           breakdown)
                yield from self._persist(
                    "aggregate", f"agg-{invocation.invocation_id}", 0.05)
            cells, seqs, done_s, breakdowns = self._done
            cells.append(cell)
            seqs.append(seq)
            done_s.append(self.env.now)
            breakdowns.append(breakdown)
            self.completions += 1
            self.last_completion_s = max(self.last_completion_s,
                                         self.env.now)
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._idle_event is not None:
                event, self._idle_event = self._idle_event, None
                event.succeed()
