"""Swarm container: devices, work regions, failure injection.

The swarm owns the mapping from devices to field regions (initial equal
partition, section 2.1) and the control constants of the heartbeat protocol
every device speaks (one beat per second, section 4.6), which the
controller's :class:`~repro.core.FailureDetector` models in closed form.
Failure injection schedules a device crash mid-mission so the
controller-side fault tolerance (3 s timeout + repartitioning) can be
exercised end to end.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..config import ControlConstants
from ..routing import Region, partition_field
from ..sim import Environment
from .device import EdgeDevice

__all__ = ["Swarm"]


class Swarm:
    """A fleet of edge devices plus their work assignment."""

    def __init__(self, env: Environment, devices: List[EdgeDevice],
                 control: Optional[ControlConstants] = None):
        if not devices:
            raise ValueError("a swarm needs at least one device")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate device ids in swarm")
        self.env = env
        self.devices: Dict[str, EdgeDevice] = {d.device_id: d
                                               for d in devices}
        self.control = control or ControlConstants()
        self.regions: Dict[str, List[Region]] = {}

    def __len__(self) -> int:
        return len(self.devices)

    def device(self, device_id: str) -> EdgeDevice:
        found = self.devices.get(device_id)
        if found is None:
            raise KeyError(f"unknown device {device_id!r}")
        return found

    # -- work assignment ---------------------------------------------------
    def assign_regions(self, width_m: float, height_m: float) -> None:
        """Initial equal division of the field among all devices."""
        tiles = partition_field(width_m, height_m, len(self.devices))
        self.regions = {
            device_id: [tile]
            for device_id, tile in zip(sorted(self.devices), tiles)
        }

    # -- failure injection --------------------------------------------------
    def fail_device_at(self, device_id: str, at_time: float) -> None:
        """Schedule a crash of ``device_id`` at absolute time ``at_time``."""
        device = self.device(device_id)

        def killer() -> Generator:
            delay = at_time - self.env.now
            if delay < 0:
                raise ValueError("failure time is in the past")
            yield self.env.timeout(delay)
            device.fail()

        self.env.process(killer())
