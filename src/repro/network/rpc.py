"""RPC transports.

Two RPC paths exist in the paper's system:

- **Edge -> cloud** (Apache Thrift over TCP/IP over WiFi): sensor payloads
  pushed up one way by :meth:`EdgeCloudRpc.push`. Responses and route
  updates come down through
  :meth:`~repro.network.wireless.WirelessNetwork.download`, with no RPC
  processing of their own.
- **Server <-> server** inside the cluster: the kernel TCP/IP stack
  (:class:`SoftwareClusterRpc`, ~tens of microseconds of per-RPC CPU cost).
  HiveMind's FPGA offload of this path (2.1 us RTT) is not modelled; the
  offload is modelled on the edge-facing path only
  (:mod:`repro.hardware.rpc_accel`).

A push returns its seconds: the marshal-and-stack processing
:func:`push_processing_s` prices, plus the wire. That one function prices
the software stack and the FPGA offload, for the transports and for the
closed forms fig18 validates them against.

RPC transports draw no randomness of their own — all stochastic loss
retries happen inside the links they ride (see
:class:`~repro.network.wireless.WirelessNetwork`, which draws scalars
from its shared ``network.loss`` stream).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import AccelerationConstants
from ..sim import Environment
from ..sim.accounting import tally
from .switch import ClusterNetwork
from .wireless import NetworkPartitioned, WirelessNetwork

__all__ = ["RpcTimeout", "EdgeCloudRpc", "ReliableEdgeRpc",
           "SoftwareClusterRpc", "boundary_lookahead", "push_processing_s"]

#: Per-push marshal/unmarshal + kernel stack cost at each end (calibrated
#: for Thrift compact protocol on the A8 / Xeon pair).
EDGE_PROC_S = 2.4e-3
CLOUD_PROC_S = 0.12e-3
PER_MB_MARSHAL_S = 0.9e-3


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


def push_processing_s(megabytes: float,
                      accel: Optional[AccelerationConstants] = None
                      ) -> float:
    """Marshal-and-stack seconds of one edge push of ``megabytes``.

    With ``accel`` the cloud end's stack runs on the FPGA NIC (section
    4.5): its cost drops to the residual CPU fraction and zero-copy
    buffers cut marshalling to a quarter. The edge end is unchanged.
    """
    if accel is None:
        return EDGE_PROC_S + CLOUD_PROC_S + PER_MB_MARSHAL_S * megabytes
    return (EDGE_PROC_S + CLOUD_PROC_S * accel.residual_cpu_fraction +
            PER_MB_MARSHAL_S * 0.25 * megabytes)


class RpcTimeout(Exception):
    """An RPC exhausted its retry attempts / total timeout budget."""

    def __init__(self, device_id: str, attempts: int, waited_s: float):
        super().__init__(
            f"{device_id}: RPC gave up after {attempts} attempts "
            f"({waited_s:.3f}s)")
        self.device_id = device_id
        self.attempts = attempts


class EdgeCloudRpc:
    """Thrift-style RPC from an edge device to the backend cloud.

    The HiveMind compiler generates these stubs for tasks that may run at
    the edge (section 4.1); serialization cost is charged per push on
    both ends.
    """

    def __init__(self, env: Environment, wireless: WirelessNetwork):
        self.env = env
        self.wireless = wireless

    def push(self, device_id: str, megabytes: float,
             trace=None) -> Generator:
        """Process: one-way upload (streaming sensor data); returns its
        seconds. The TCP ack still crosses the air, so the caller pays
        one base RTT — folded into the upload's completion event."""
        start = self.env.now
        processing = push_processing_s(megabytes)
        tally("network")
        yield self.env.timeout(processing)
        if trace:
            trace.emit("rpc_processing", "network", start, self.env.now)
        wire_s = yield from self.wireless.upload(
            device_id, megabytes,
            extra_delay_s=self.wireless.constants.base_rtt_s,
            trace=trace)
        return processing + wire_s


class ReliableEdgeRpc:
    """Retry wrapper for an edge->cloud transport (chaos recovery layer).

    Wraps the stock :class:`EdgeCloudRpc` or the accelerated variant.
    When a push hits a cloud-partition window
    (:class:`NetworkPartitioned`), the caller pays the per-attempt
    discovery timeout plus exponential backoff, then retries; when the
    attempt or budget ceiling is exhausted it raises :class:`RpcTimeout`
    so the runtime can shed the task to on-device compute. Used only by
    chaos runs — fault-free runs keep the bare transport, so their event
    streams are untouched.
    """

    #: Retry schedule. Each failed attempt costs up to
    #: ``ATTEMPT_TIMEOUT_S`` of discovery (the client waits that long
    #: before concluding the cloud is gone) plus an exponential backoff
    #: before the next try; the whole push never exceeds
    #: ``TOTAL_BUDGET_S`` of wall time spent on failures.
    MAX_ATTEMPTS = 4
    BASE_BACKOFF_S = 0.25
    BACKOFF_FACTOR = 2.0
    ATTEMPT_TIMEOUT_S = 1.0
    TOTAL_BUDGET_S = 10.0

    def __init__(self, env: Environment, inner: EdgeCloudRpc,
                 recovery_log=None):
        self.env = env
        self.inner = inner
        self.recovery_log = recovery_log
        self.retries = 0

    def push(self, device_id: str, megabytes: float,
             trace=None) -> Generator:
        """Process: :meth:`EdgeCloudRpc.push` retried across partition
        windows; returns the seconds of the attempt that got through."""
        start = self.env.now
        deadline = start + self.TOTAL_BUDGET_S
        backoff = self.BASE_BACKOFF_S
        attempts = 0
        action = None
        while True:
            attempts += 1
            try:
                seconds = yield from self.inner.push(device_id, megabytes,
                                                     trace=trace)
            except NetworkPartitioned:
                remaining = deadline - self.env.now
                if attempts >= self.MAX_ATTEMPTS or remaining <= 0:
                    raise RpcTimeout(device_id, attempts,
                                     self.env.now - start)
                if action is None and self.recovery_log is not None:
                    action = self.recovery_log.record("rpc_retry")
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
            return seconds


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
        """Process: request to ``dst`` and response back; returns the
        elapsed seconds."""
        start = self.env.now
        yield self.env.timeout(self.per_call_cpu_s)
        yield from self.network.transfer(src, dst, request_mb)
        yield from self.network.transfer(dst, src, response_mb)
        return self.env.now - start
