"""FPGA remote-memory fabric for inter-function data exchange (section 4.4).

When a child function cannot share its parent's container, HiveMind bypasses
CouchDB with an RDMA-over-Converged-Ethernet-style protocol terminated on the
FPGA and bridged to host memory over the UPI interconnect. Two properties
matter to the reproduction:

1. **Latency/bandwidth** — a read costs a few microseconds plus payload time
   at UPI-class bandwidth, orders of magnitude below CouchDB.
2. **Virtualized object addressing** — the child never learns the parent's
   physical location (preserving the serverless abstraction): it presents an
   object handle, and the fabric's address map (maintained with the
   centralized controller's placement knowledge) resolves it.

:class:`RemoteMemoryFabric` implements both: an object registry keyed by
opaque handles, and timed ``write``/``read`` coroutines.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional

from ..config import AccelerationConstants
from ..sim import Environment

__all__ = ["RemoteMemoryFabric"]


class RemoteMemoryFabric:
    """Cluster-wide remote-memory service backed by per-server FPGAs."""

    def __init__(self, env: Environment,
                 constants: Optional[AccelerationConstants] = None):
        self.env = env
        self.constants = constants or AccelerationConstants()
        #: Handle -> object size in MB. The home server stays with the
        #: fabric's address map, never with readers.
        self._objects: Dict[str, float] = {}
        self._handles = itertools.count()
        self.reads = 0
        self.writes = 0

    def _transfer_time(self, size_mb: float) -> float:
        return (self.constants.remote_mem_latency_s +
                size_mb / self.constants.remote_mem_mbs)

    def write(self, server_id: str, size_mb: float) -> Generator:
        """Process: publish an object from ``server_id``; returns a handle.

        The write placing the parent's output into a fabric-visible region
        costs one fabric transfer.
        """
        if size_mb < 0:
            raise ValueError("size must be non-negative")
        yield self.env.timeout(self._transfer_time(size_mb))
        handle = f"rmobj-{next(self._handles)}"
        self._objects[handle] = size_mb
        self.writes += 1
        return handle

    def read(self, reader_server: str, handle: str) -> Generator:
        """Process: fetch an object by handle; returns its size in MB.

        A local read (reader on the object's home server) still crosses the
        UPI hop but skips the network leg — effectively the same cost at
        these magnitudes, so we charge one fabric transfer either way, which
        matches the paper's 'child sees a virtualized object location'
        framing.
        """
        size_mb = self._objects.get(handle)
        if size_mb is None:
            raise KeyError(f"unknown remote-memory handle {handle!r}")
        yield self.env.timeout(self._transfer_time(size_mb))
        self.reads += 1
        return size_mb

    def exists(self, handle: str) -> bool:
        return handle in self._objects

    def evict(self, handle: str) -> None:
        self._objects.pop(handle, None)

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def resident_mb(self) -> float:
        return sum(self._objects.values())
