"""FPGA RPC offload (paper section 4.5), on edge-facing traffic.

The entire RPC stack runs on the FPGA NIC; the UPI interconnect exposes the
FPGA to the host as another NUMA node with zero-copy buffers.
:class:`AcceleratedEdgeRpc` applies the offload to edge-facing traffic: the
radio still bounds throughput (the FPGA cannot speed up air time), but all
host-side packet processing leaves the CPU, shrinking the per-call processing
and its latency variance — the "22 % lower latency on average" the car swarm
sees from network acceleration.

The server-to-server side of the fabric (the paper's 2.1 us round trips and
12.4 Mrps per core for 64 B RPCs) is not modelled: no platform routes a
cluster-internal RPC through it.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import AccelerationConstants
from ..network.rpc import EdgeCloudRpc, RpcResult
from ..network.wireless import WirelessNetwork
from ..sim import Environment

__all__ = ["AcceleratedEdgeRpc"]


class AcceleratedEdgeRpc(EdgeCloudRpc):
    """Edge-facing RPCs with the cloud-side stack offloaded to the FPGA.

    Air time is unchanged (the wireless medium is shared exactly as in the
    software path), but the cloud endpoint's processing drops to the
    residual fraction and the NIC simply forwards packets to the FPGA.
    """

    def __init__(self, env: Environment, wireless: WirelessNetwork,
                 constants: Optional[AccelerationConstants] = None):
        super().__init__(env, wireless)
        self.constants = constants or AccelerationConstants()

    @property
    def _cloud_processing_s(self) -> float:
        return self.CLOUD_PROC_S * self.constants.residual_cpu_fraction

    def call(self, device_id: str, request_mb: float,
             response_mb: float, trace=None) -> Generator:
        start = self.env.now
        processing = (self.EDGE_PROC_S + self._cloud_processing_s +
                      self.PER_MB_MARSHAL_S * 0.25 *
                      (request_mb + response_mb))
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
        start = self.env.now
        processing = (self.EDGE_PROC_S + self._cloud_processing_s +
                      self.PER_MB_MARSHAL_S * 0.25 * megabytes)
        yield self.env.timeout(processing)
        if trace:
            trace.emit("rpc_processing", "network", start, self.env.now)
        wire_s = yield from self.wireless.upload(device_id, megabytes,
                                                trace=trace)
        # Offload cannot remove the over-the-air ack round trip.
        rtt = self.wireless.constants.base_rtt_s
        ack_start = self.env.now
        yield self.env.timeout(rtt)
        if trace:
            trace.emit("ack_rtt", "network", ack_start, self.env.now)
        wire_s += rtt
        return RpcResult(
            total_s=processing + wire_s, wire_s=wire_s,
            processing_s=processing, request_mb=megabytes, response_mb=0.0)
