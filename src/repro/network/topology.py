"""Topology builder: wires the swarm, access network, and cluster together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PaperConstants
from ..sim import Environment, RandomStreams
from ..telemetry import BandwidthMeter
from .switch import ClusterNetwork
from .wireless import WirelessNetwork

__all__ = ["Fabric", "build_fabric"]


@dataclass
class Fabric:
    """All network pieces of one simulated deployment."""

    wireless: WirelessNetwork
    cluster: ClusterNetwork
    wireless_meter: BandwidthMeter


def build_fabric(env: Environment, constants: PaperConstants,
                 streams: Optional[RandomStreams] = None) -> Fabric:
    """Build the full network fabric for one experiment.

    Registers ``constants.cluster.servers`` servers (``server0``,
    ``server1``, ...) on the ToR and returns the networks the serverless
    and edge layers build their transports on.
    """
    rng = streams.stream("network.loss") if streams is not None else None
    wireless_meter = BandwidthMeter("wireless")
    cluster_meter = BandwidthMeter("cluster")
    wireless = WirelessNetwork(env, constants.wireless,
                               meter=wireless_meter, rng=rng)
    cluster = ClusterNetwork(env, constants.cluster, meter=cluster_meter)
    for index in range(constants.cluster.servers):
        cluster.register_server(f"server{index}")
    return Fabric(wireless=wireless, cluster=cluster,
                  wireless_meter=wireless_meter)
