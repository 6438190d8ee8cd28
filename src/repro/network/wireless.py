"""Shared wireless medium between the swarm and the backend (section 2.1).

The testbed uses two 867 Mbps MU-MIMO access points. Each access point is a
pair of serialized links (uplink toward the cloud carries the sensor data
an edge RPC pushes; downlink carries responses/route updates, which
:meth:`WirelessNetwork.download` sends with no RPC processing of their
own), and devices are statically
balanced across access points — matching how the real swarm associates with
whichever router it joined. Saturation emerges naturally: when offered load
exceeds the per-AP capacity, the link FIFO queues and tail latency explodes
(Fig 3b).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from ..config import WirelessConstants
from ..sim import Environment
from ..telemetry import BandwidthMeter
from .link import Link

__all__ = ["AccessPoint", "NetworkPartitioned", "WirelessNetwork"]


class NetworkPartitioned(Exception):
    """The edge<->cloud path is down (chaos cloud-partition window).

    Raised synchronously at transfer start — the radio's carrier sense /
    association logic knows immediately that the AP is gone; the
    *latency* cost of discovering an unreachable cloud is charged by the
    RPC retry layer's per-attempt timeout budget, not here.
    """

    def __init__(self, device_id: str):
        super().__init__(device_id)
        self.device_id = device_id


class AccessPoint:
    """One router: an uplink and a downlink sharing its rated capacity.

    MU-MIMO routers schedule air-time across directions; we give each
    direction the full rated capacity but track combined utilization, which
    reproduces the saturation point within the fidelity the figures need.
    """

    def __init__(self, env: Environment, name: str,
                 constants: WirelessConstants,
                 meter: Optional[BandwidthMeter] = None,
                 rng: Optional[np.random.Generator] = None):
        self.name = name
        self.uplink = Link(
            env, f"{name}.up", constants.ap_mbs,
            latency_s=constants.per_hop_latency_s,
            loss_rate=constants.loss_rate, meter=meter, rng=rng,
            contention_penalty=constants.contention_penalty,
            max_collapse=constants.max_collapse)
        self.downlink = Link(
            env, f"{name}.down", constants.ap_mbs,
            latency_s=constants.per_hop_latency_s,
            loss_rate=constants.loss_rate, meter=meter, rng=rng,
            contention_penalty=constants.contention_penalty,
            max_collapse=constants.max_collapse)


class WirelessNetwork:
    """The swarm's access network: devices balanced across access points.

    ``rng`` is shared by every link and draws only fixed-``p`` geometric
    retry counts, one per lossy transfer grant, in global grant order.
    """

    def __init__(self, env: Environment, constants: WirelessConstants,
                 meter: Optional[BandwidthMeter] = None,
                 rng: Optional[np.random.Generator] = None):
        self.env = env
        self.constants = constants
        self.meter = meter if meter is not None else BandwidthMeter("wireless")
        self.access_points: List[AccessPoint] = [
            AccessPoint(env, f"ap{i}", constants, meter=self.meter, rng=rng)
            for i in range(constants.access_points)
        ]
        self._assignment: Dict[str, AccessPoint] = {}
        self._next_ap = 0
        #: Chaos cloud-partition state: while True, new transfers raise
        #: :class:`NetworkPartitioned`. Never set outside chaos runs.
        self.partitioned = False
        self._heal_listeners: List = []

    # -- chaos hooks -----------------------------------------------------
    def set_partitioned(self, partitioned: bool) -> None:
        """Enter/leave a cloud-partition window (fault injection)."""
        was = self.partitioned
        self.partitioned = partitioned
        if was and not partitioned:
            for listener in self._heal_listeners:
                listener()

    def add_heal_listener(self, callback) -> None:
        """Zero-arg callback fired when a partition window closes."""
        self._heal_listeners.append(callback)

    def degrade(self, factor: float) -> None:
        """Scale every link's capacity by ``factor`` (chaos injection).

        Applies to transfers *granted* from now on; payloads already on
        the wire keep their committed serialization schedule.
        """
        for ap in self.access_points:
            ap.uplink.scale_capacity(factor)
            ap.downlink.scale_capacity(factor)

    def restore_capacity(self) -> None:
        """Undo :meth:`degrade`: links return to nominal bandwidth."""
        for ap in self.access_points:
            ap.uplink.scale_capacity(1.0)
            ap.downlink.scale_capacity(1.0)

    def attach(self, device_id: str) -> AccessPoint:
        """Associate a device with an access point (round-robin balance)."""
        if device_id in self._assignment:
            return self._assignment[device_id]
        ap = self.access_points[self._next_ap % len(self.access_points)]
        self._next_ap += 1
        self._assignment[device_id] = ap
        return ap

    def upload(self, device_id: str, megabytes: float,
               extra_delay_s: float = 0.0, trace=None) -> Generator:
        """Process: send ``megabytes`` from device to the cloud edge; a
        pushing transport folds its ack's ``extra_delay_s`` into the
        completion event."""
        if self.partitioned:
            raise NetworkPartitioned(device_id)
        ap = self.attach(device_id)
        took = yield from ap.uplink.transfer(megabytes,
                                             extra_delay_s=extra_delay_s,
                                             trace=trace)
        return took

    def download(self, device_id: str, megabytes: float,
                 trace=None) -> Generator:
        """Process: send ``megabytes`` from the cloud edge to the device."""
        if self.partitioned:
            raise NetworkPartitioned(device_id)
        ap = self.attach(device_id)
        took = yield from ap.downlink.transfer(megabytes, trace=trace)
        return took
