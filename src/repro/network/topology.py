"""Topology builder: wires the swarm, access network, and cluster together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


from ..config import PaperConstants
from ..sim import Environment, RandomStreams
from ..telemetry import BandwidthMeter
from .rpc import EdgeCloudRpc, SoftwareClusterRpc
from .switch import ClusterNetwork
from .wireless import WirelessNetwork

__all__ = ["Fabric", "build_fabric"]


@dataclass
class Fabric:
    """All network pieces of one simulated deployment."""

    wireless: WirelessNetwork
    cluster: ClusterNetwork
    edge_rpc: EdgeCloudRpc
    cluster_rpc: SoftwareClusterRpc
    wireless_meter: BandwidthMeter
    cluster_meter: BandwidthMeter
    server_ids: List[str]


def build_fabric(env: Environment, constants: PaperConstants,
                 streams: Optional[RandomStreams] = None) -> Fabric:
    """Build the full network fabric for one experiment.

    Registers ``constants.cluster.servers`` servers on the ToR and returns
    the transports the serverless and edge layers use.
    """
    rng = streams.stream("network.loss") if streams is not None else None
    wireless_meter = BandwidthMeter("wireless")
    cluster_meter = BandwidthMeter("cluster")
    wireless = WirelessNetwork(env, constants.wireless,
                               meter=wireless_meter, rng=rng)
    cluster = ClusterNetwork(env, constants.cluster, meter=cluster_meter)
    server_ids = [f"server{i}" for i in range(constants.cluster.servers)]
    for server_id in server_ids:
        cluster.register_server(server_id)
    return Fabric(
        wireless=wireless,
        cluster=cluster,
        edge_rpc=EdgeCloudRpc(env, wireless),
        cluster_rpc=SoftwareClusterRpc(env, cluster),
        wireless_meter=wireless_meter,
        cluster_meter=cluster_meter,
        server_ids=server_ids,
    )
