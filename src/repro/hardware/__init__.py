"""FPGA acceleration fabrics: remote memory and RPC offload."""

from .remote_memory import RemoteMemoryFabric
from .rpc_accel import AcceleratedEdgeRpc

__all__ = [
    "RemoteMemoryFabric",
    "AcceleratedEdgeRpc",
]
