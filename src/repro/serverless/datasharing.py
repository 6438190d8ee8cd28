"""Data-sharing protocols between dependent functions (Fig 6c, section 4.4).

OpenWhisk (and commercial FaaS) forbid direct function communication; a
child reaches its parent's output through a third party. The paper compares
four paths, all implemented here behind one interface:

- :class:`CouchDBSharing` — the OpenWhisk default: a controller round trip
  for the database handle, a write by the parent, a read by the child.
- :class:`RpcSharing` — direct RPC between the two containers' servers
  (breaks the location-transparency rule; measured in Fig 6c for contrast).
- :class:`InMemorySharing` — child placed in the parent's live container;
  data never leaves the address space.
- :class:`RemoteMemorySharing` — HiveMind's FPGA fabric: microsecond-scale
  virtualized object access that preserves location transparency.

Each ``share`` coroutine returns the seconds spent, which the platform
charges to the invocation's ``data_io`` component.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import ServerlessConstants
from ..hardware.remote_memory import RemoteMemoryFabric
from ..network.rpc import SoftwareClusterRpc
from ..sim import Environment
from .couchdb import CouchDB

__all__ = [
    "CouchDBSharing",
    "RpcSharing",
    "InMemorySharing",
    "RemoteMemorySharing",
]


class CouchDBSharing:
    """OpenWhisk default: intermediate results through CouchDB."""

    name = "couchdb"

    def __init__(self, env: Environment, couchdb: CouchDB,
                 constants: Optional[ServerlessConstants] = None):
        self.env = env
        self.couchdb = couchdb
        self.constants = constants or couchdb.constants

    def share(self, src_server: str, dst_server: str,
              megabytes: float) -> Generator:
        start = self.env.now
        # Both functions round-trip the controller for a database handle.
        yield self.env.timeout(2 * self.constants.couchdb_handle_s)
        yield from self.couchdb.access(megabytes)  # parent write
        yield from self.couchdb.access(megabytes)  # child read
        return self.env.now - start


class RpcSharing:
    """Direct RPC between parent and child servers."""

    name = "rpc"

    def __init__(self, env: Environment, rpc: SoftwareClusterRpc,
                 constants: Optional[ServerlessConstants] = None):
        self.env = env
        self.rpc = rpc
        self.constants = constants or ServerlessConstants()

    def share(self, src_server: str, dst_server: str,
              megabytes: float) -> Generator:
        start = self.env.now
        yield self.env.timeout(self.constants.rpc_share_latency_s)
        yield from self.rpc.call(src_server, dst_server, megabytes, 0.001)
        return self.env.now - start


class InMemorySharing:
    """Child runs in the parent's container: an address-space handoff."""

    name = "in_memory"

    def __init__(self, env: Environment,
                 constants: Optional[ServerlessConstants] = None):
        self.env = env
        self.constants = constants or ServerlessConstants()

    def share(self, src_server: str, dst_server: str,
              megabytes: float) -> Generator:
        if src_server != dst_server:
            raise ValueError(
                "in-memory sharing requires parent and child on the same "
                f"server (got {src_server!r} -> {dst_server!r})")
        cost = (self.constants.inmem_latency_s +
                megabytes / self.constants.inmem_mbs)
        yield self.env.timeout(cost)
        return cost


class RemoteMemorySharing:
    """HiveMind's FPGA remote-memory fabric (section 4.4)."""

    name = "remote_memory"

    def __init__(self, env: Environment, fabric: RemoteMemoryFabric):
        self.env = env
        self.fabric = fabric

    def share(self, src_server: str, dst_server: str,
              megabytes: float) -> Generator:
        start = self.env.now
        handle = yield from self.fabric.write(src_server, megabytes)
        yield from self.fabric.read(dst_server, handle)
        self.fabric.evict(handle)
        return self.env.now - start
