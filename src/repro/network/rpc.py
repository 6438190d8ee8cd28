"""RPC transports.

Two RPC paths exist in the paper's system:

- **Edge <-> cloud** (Apache Thrift over TCP/IP over WiFi): sensor payloads
  up, responses/route updates down. Modeled by :class:`EdgeCloudRpc`.
- **Server <-> server** inside the cluster: the kernel TCP/IP stack
  (:class:`SoftwareClusterRpc`, ~tens of microseconds of per-RPC CPU cost).
  HiveMind's FPGA offload of this path (2.1 us RTT) is not modelled; the
  offload is modelled on the edge-facing path only
  (:mod:`repro.hardware.rpc_accel`).

A call returns :class:`RpcResult` with the wall-clock split the breakdown
accounting needs (wire vs. per-call processing).

RPC transports draw no randomness of their own — all stochastic loss
retries happen inside the links they ride (see
:class:`~repro.network.wireless.WirelessNetwork`, which draws scalars
from its shared ``network.loss`` stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..sim import Environment
from ..sim.accounting import tally
from .switch import ClusterNetwork
from .wireless import NetworkPartitioned, WirelessNetwork

__all__ = ["RpcResult", "RpcTimeout", "EdgeCloudRpc",
           "ReliableEdgeRpc", "SoftwareClusterRpc", "boundary_lookahead"]


def boundary_lookahead(constants) -> float:
    """Minimum edge->cloud boundary latency (seconds) for ``constants``.

    No event inside an edge cell can cause an effect at the cloud tier
    sooner than one uplink propagation (half the wireless base RTT plus
    one hop) plus the RPC floor through the ToR. This is the conservative
    lookahead bound of the sharded runtime (:mod:`repro.sim.shard`):
    shards synchronized at barriers no further apart than this bound can
    never deliver a cloud-bound message into the cloud shard's past, so
    any barrier window >= this value is causally safe. ``constants`` is a
    :class:`~repro.config.PaperConstants` bundle.
    """
    wireless = constants.wireless
    return (wireless.base_rtt_s / 2.0 + wireless.per_hop_latency_s +
            constants.cluster.tor_latency_s)


@dataclass(frozen=True)
class RpcResult:
    """Timing of a completed RPC."""

    total_s: float
    wire_s: float
    processing_s: float
    request_mb: float
    response_mb: float


class RpcTimeout(Exception):
    """An RPC exhausted its retry attempts / total timeout budget."""

    def __init__(self, device_id: str, attempts: int, waited_s: float):
        super().__init__(
            f"{device_id}: RPC gave up after {attempts} attempts "
            f"({waited_s:.3f}s)")
        self.device_id = device_id
        self.attempts = attempts


class EdgeCloudRpc:
    """Thrift-style RPC between an edge device and the backend cloud.

    The HiveMind compiler generates these stubs for tasks that may run at
    the edge (section 4.1); serialization cost is charged per call on both
    ends.
    """

    #: Per-call marshal/unmarshal + kernel stack cost at each end (calibrated
    #: for Thrift compact protocol on the A8 / Xeon pair).
    EDGE_PROC_S = 2.4e-3
    CLOUD_PROC_S = 0.12e-3
    PER_MB_MARSHAL_S = 0.9e-3

    def __init__(self, env: Environment, wireless: WirelessNetwork):
        self.env = env
        self.wireless = wireless

    def call(self, device_id: str, request_mb: float,
             response_mb: float, trace=None) -> Generator:
        """Process: device-initiated RPC; returns :class:`RpcResult`."""
        start = self.env.now
        processing = (self.EDGE_PROC_S + self.CLOUD_PROC_S +
                      self.PER_MB_MARSHAL_S * (request_mb + response_mb))
        yield self.env.timeout(processing)
        if trace:
            trace.emit("rpc_processing", "network", start, self.env.now)
        wire_s = yield from self.wireless.round_trip(
            device_id, request_mb, response_mb, trace=trace)
        return RpcResult(
            total_s=self.env.now - start,
            wire_s=wire_s,
            processing_s=processing,
            request_mb=request_mb,
            response_mb=response_mb,
        )

    def push(self, device_id: str, megabytes: float,
             trace=None) -> Generator:
        """Process: one-way upload (streaming sensor data). The TCP ack
        still crosses the air, so the caller pays one base RTT — folded
        into the upload's completion event."""
        start = self.env.now
        processing = (self.EDGE_PROC_S + self.CLOUD_PROC_S +
                      self.PER_MB_MARSHAL_S * megabytes)
        tally("network")
        yield self.env.timeout(processing)
        if trace:
            trace.emit("rpc_processing", "network", start, self.env.now)
        wire_s = yield from self.wireless.upload(
            device_id, megabytes,
            extra_delay_s=self.wireless.constants.base_rtt_s,
            trace=trace)
        return RpcResult(
            total_s=processing + wire_s, wire_s=wire_s,
            processing_s=processing, request_mb=megabytes, response_mb=0.0)


class ReliableEdgeRpc:
    """Retry wrapper for an edge<->cloud transport (chaos recovery layer).

    Wraps any object with ``call``/``push`` coroutines (stock
    :class:`EdgeCloudRpc` or the accelerated variant). When a transfer
    hits a cloud-partition window (:class:`NetworkPartitioned`), the
    caller pays the per-attempt discovery timeout plus exponential
    backoff, then retries; when the attempt or budget ceiling is
    exhausted it raises :class:`RpcTimeout` so the runtime can shed the
    task to on-device compute. Used only by chaos runs — fault-free runs
    keep the bare transport, so their event streams are untouched.
    """

    #: Retry schedule. Each failed attempt costs up to
    #: ``ATTEMPT_TIMEOUT_S`` of discovery (the client waits that long
    #: before concluding the cloud is gone) plus an exponential backoff
    #: before the next try; the whole call never exceeds
    #: ``TOTAL_BUDGET_S`` of wall time spent on failures.
    MAX_ATTEMPTS = 4
    BASE_BACKOFF_S = 0.25
    BACKOFF_FACTOR = 2.0
    ATTEMPT_TIMEOUT_S = 1.0
    TOTAL_BUDGET_S = 10.0

    def __init__(self, env: Environment, inner, recovery_log=None):
        self.env = env
        self.inner = inner
        self.recovery_log = recovery_log
        self.retries = 0

    def call(self, device_id: str, request_mb: float,
             response_mb: float, trace=None) -> Generator:
        result = yield from self._reliable(
            device_id,
            lambda: self.inner.call(device_id, request_mb, response_mb,
                                    trace=trace),
            trace=trace)
        return result

    def push(self, device_id: str, megabytes: float,
             trace=None) -> Generator:
        result = yield from self._reliable(
            device_id,
            lambda: self.inner.push(device_id, megabytes, trace=trace),
            trace=trace)
        return result

    def _reliable(self, device_id: str, attempt, trace=None) -> Generator:
        start = self.env.now
        deadline = start + self.TOTAL_BUDGET_S
        backoff = self.BASE_BACKOFF_S
        attempts = 0
        action = None
        while True:
            attempts += 1
            try:
                result = yield from attempt()
            except NetworkPartitioned:
                remaining = deadline - self.env.now
                if attempts >= self.MAX_ATTEMPTS or remaining <= 0:
                    raise RpcTimeout(device_id, attempts,
                                     self.env.now - start)
                if action is None and self.recovery_log is not None:
                    action = self.recovery_log.record("rpc_retry", device_id)
                self.retries += 1
                # Discovery timeout for the dead attempt + backoff before
                # the next, clipped to the remaining budget.
                retry_start = self.env.now
                yield self.env.timeout(
                    min(self.ATTEMPT_TIMEOUT_S + backoff, remaining))
                if trace:
                    trace.emit("rpc_retry", "network", retry_start,
                               self.env.now, attempt=attempts)
                backoff *= self.BACKOFF_FACTOR
                continue
            if action is not None:
                self.recovery_log.complete(action)
            return result


class SoftwareClusterRpc:
    """Kernel TCP/IP RPC between cluster servers (the baseline stack)."""

    def __init__(self, env: Environment, network: ClusterNetwork):
        self.env = env
        self.network = network
        self.constants = network.constants

    @property
    def per_call_cpu_s(self) -> float:
        """Host-CPU seconds consumed per RPC (freed by FPGA offload)."""
        return 2 * self.constants.sw_rpc_overhead_s

    def call(self, src: str, dst: str, request_mb: float,
             response_mb: float) -> Generator:
        """Process: request to ``dst`` and response back; RpcResult."""
        start = self.env.now
        processing = self.per_call_cpu_s
        yield self.env.timeout(processing)
        wire = yield from self.network.transfer(src, dst, request_mb)
        wire_back = yield from self.network.transfer(dst, src, response_mb)
        return RpcResult(
            total_s=self.env.now - start,
            wire_s=wire + wire_back,
            processing_s=processing,
            request_mb=request_mb,
            response_mb=response_mb,
        )
