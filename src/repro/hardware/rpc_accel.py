"""FPGA RPC offload (paper section 4.5), on edge-facing traffic.

The entire RPC stack runs on the FPGA NIC; the UPI interconnect exposes the
FPGA to the host as another NUMA node with zero-copy buffers.
:class:`AcceleratedEdgeRpc` applies the offload to the one edge-facing
operation, the sensor push: the radio still bounds throughput (the FPGA
cannot speed up air time), but all host-side packet processing leaves the
CPU, shrinking the per-push processing
(:func:`~repro.network.rpc.push_processing_s` with the acceleration
constants) — the "22 % lower latency on average" the car swarm sees from
network acceleration. The over-the-air ack is still paid, as its own
``ack_rtt`` wait after the upload.

The server-to-server side of the fabric (the paper's 2.1 us round trips and
12.4 Mrps per core for 64 B RPCs) is not modelled: no platform routes a
cluster-internal RPC through it.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import AccelerationConstants
from ..network.rpc import EdgeCloudRpc, push_processing_s
from ..network.wireless import WirelessNetwork
from ..sim import Environment
from ..sim.accounting import tally

__all__ = ["AcceleratedEdgeRpc"]


class AcceleratedEdgeRpc(EdgeCloudRpc):
    """Edge-facing RPCs with the cloud-side stack offloaded to the FPGA.

    Air time is unchanged (the wireless medium is shared exactly as in the
    software path), but the cloud endpoint's processing drops to the
    residual fraction and the NIC simply forwards packets to the FPGA.
    A push returns its seconds, like :meth:`EdgeCloudRpc.push`.
    """

    def __init__(self, env: Environment, wireless: WirelessNetwork,
                 constants: Optional[AccelerationConstants] = None):
        super().__init__(env, wireless)
        self.constants = constants or AccelerationConstants()

    def push(self, device_id: str, megabytes: float,
             trace=None) -> Generator:
        start = self.env.now
        processing = push_processing_s(megabytes, self.constants)
        tally("network")
        yield self.env.timeout(processing)
        if trace:
            trace.emit("rpc_processing", "network", start, self.env.now)
        wire_s = yield from self.wireless.upload(device_id, megabytes,
                                                trace=trace)
        # Offload cannot remove the over-the-air ack round trip.
        rtt = self.wireless.constants.base_rtt_s
        ack_start = self.env.now
        tally("network")
        yield self.env.timeout(rtt)
        if trace:
            trace.emit("ack_rtt", "network", ack_start, self.env.now)
        return processing + (wire_s + rtt)
