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

from typing import Dict, Generator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..config import PaperConstants
from ..network import build_fabric
from ..platforms.stack import build_cloud
from ..sim import Environment, RandomStreams
from ..telemetry import LatencyBreakdown, breakdown_array
from .function import InvocationRequest
from .region import GATEWAY_SEED_OFFSET

__all__ = ["CloudGateway", "Completions", "GATEWAY_SEED_OFFSET"]

#: ``(cell, seq, done_s, breakdown)``: one served call, as a gateway
#: prices it.
Completion = Tuple[int, int, float, Dict[str, float]]


class Completions(NamedTuple):
    """Served calls as columns: the shape both cloud tiers return.

    Row ``i`` is call ``(cell[i], seq[i])``, done at ``done_s[i]``, with
    its cloud-side breakdown in ``breakdown[i]`` (``COMPONENTS`` order),
    so a worker pipe carries four arrays, not a tuple and a dict per
    call.
    """

    cell: np.ndarray  # int64
    seq: np.ndarray  # int64
    done_s: np.ndarray  # float64
    breakdown: np.ndarray  # (n, 4) float64

    @classmethod
    def pack(cls, served: Sequence[Completion]) -> "Completions":
        """Columns of ``(cell, seq, done_s, breakdown dict)`` tuples."""
        count = len(served)
        return cls(
            np.fromiter((done[0] for done in served), np.int64, count),
            np.fromiter((done[1] for done in served), np.int64, count),
            np.fromiter((done[2] for done in served), float, count),
            breakdown_array([done[3] for done in served]))

    @classmethod
    def concat(cls, parts: Sequence["Completions"]) -> "Completions":
        if not parts:
            return cls.pack(())
        return cls(*(np.concatenate(column) for column in zip(*parts)))


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
        self._done: List[Completion] = []

    # -- cloud-tier shape ----------------------------------------------
    def serve(self, calls, until: float) -> Completions:
        """Feed one window's calls (canonical order, none before
        ``env.now``), run the kernel to ``until`` and return the
        completions since the previous call."""
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
        if until > self.env.now:
            self.env.run(until=until)
        done, self._done = self._done, []
        return Completions.pack(done)

    def finish(self) -> Tuple[Completions, Dict[int, Dict]]:
        """Drain every fed call; return the remaining completions and
        ``{0: stats}`` (the whole backend is one region)."""
        while self._outstanding > 0:
            self._idle_event = self.env.event()
            self.env.run(until=self._idle_event)
        done, self._done = self._done, []
        return Completions.pack(done), {0: self.stats()}

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
                parent = yield from self._cloud.invoke(request, breakdown)
                yield from self._persist(
                    "recognition", f"rec-{parent.invocation_id}",
                    call.output_mb)
            if call.dedup_s is not None and self.dedup_spec is not None:
                request = InvocationRequest(
                    spec=self.dedup_spec, service_s=call.dedup_s,
                    input_mb=(parent.request.output_mb
                              if parent is not None else call.input_mb),
                    output_mb=0.05, parent=parent)
                invocation = yield from self._cloud.invoke(request,
                                                           breakdown)
                yield from self._persist(
                    "aggregate", f"agg-{invocation.invocation_id}", 0.05)
            self._done.append((call.cell, call.seq, self.env.now,
                               breakdown.as_dict()))
            self.completions += 1
            self.last_completion_s = max(self.last_completion_s,
                                         self.env.now)
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._idle_event is not None:
                event, self._idle_event = self._idle_event, None
                event.succeed()
