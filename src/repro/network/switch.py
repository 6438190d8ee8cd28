"""Intra-cluster network: server NICs behind a top-of-rack switch.

Every server owns a full-duplex NIC (two :class:`Link` objects); the ToR
fabric itself is modeled as a shared link at the switch's rated capacity.
A server-to-server transfer crosses sender NIC -> ToR -> receiver NIC. At
the message sizes in the paper (KB result objects, MB frame batches) the
NIC links dominate; the ToR only matters under cluster-wide incast.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..config import ClusterConstants
from ..sim import Environment
from ..telemetry import BandwidthMeter
from .link import Link

__all__ = ["ToRSwitch", "ClusterNetwork"]

MB_PER_MBIT = 1.0 / 8.0


class ToRSwitch:
    """Shared switching fabric with a per-hop latency."""

    def __init__(self, env: Environment, constants: ClusterConstants,
                 meter: Optional[BandwidthMeter] = None):
        self.fabric = Link(
            env, "tor", constants.tor_mbps * MB_PER_MBIT,
            latency_s=constants.tor_latency_s, meter=meter)


class ClusterNetwork:
    """NICs + ToR connecting the backend servers (section 2.1)."""

    def __init__(self, env: Environment, constants: ClusterConstants,
                 meter: Optional[BandwidthMeter] = None):
        self.env = env
        self.constants = constants
        self.meter = meter if meter is not None else BandwidthMeter("cluster")
        self.tor = ToRSwitch(env, constants, meter=None)
        self._tx: Dict[str, Link] = {}
        self._rx: Dict[str, Link] = {}

    def register_server(self, server_id: str) -> None:
        if server_id in self._tx:
            raise ValueError(f"server {server_id!r} already registered")
        nic_mbs = self.constants.nic_mbps * MB_PER_MBIT
        self._tx[server_id] = Link(self.env, f"{server_id}.tx", nic_mbs)
        self._rx[server_id] = Link(self.env, f"{server_id}.rx", nic_mbs)

    def has_server(self, server_id: str) -> bool:
        return server_id in self._tx

    def transfer(self, src: str, dst: str, megabytes: float) -> Generator:
        """Process: move ``megabytes`` from ``src`` to ``dst`` server."""
        if src not in self._tx:
            raise KeyError(f"unknown source server {src!r}")
        if dst not in self._rx:
            raise KeyError(f"unknown destination server {dst!r}")
        start = self.env.now
        if src == dst:
            return 0.0  # loopback; no wire time
        yield from self._tx[src].transfer(megabytes)
        yield from self.tor.fabric.transfer(megabytes)
        yield from self._rx[dst].transfer(megabytes)
        self.meter.record(self.env.now, megabytes)
        return self.env.now - start
