"""Network substrate: links, wireless access, cluster fabric, RPC transports."""

from .link import Link
from .rpc import (EdgeCloudRpc, ReliableEdgeRpc, RpcResult, RpcTimeout,
                  SoftwareClusterRpc, boundary_lookahead)
from .switch import ClusterNetwork, ToRSwitch
from .topology import Fabric, build_fabric
from .wireless import AccessPoint, NetworkPartitioned, WirelessNetwork

__all__ = [
    "Link",
    "AccessPoint",
    "WirelessNetwork",
    "NetworkPartitioned",
    "ToRSwitch",
    "ClusterNetwork",
    "RpcResult",
    "EdgeCloudRpc",
    "ReliableEdgeRpc",
    "RpcTimeout",
    "SoftwareClusterRpc",
    "Fabric",
    "build_fabric",
    "boundary_lookahead",
]
