"""Edge fault tolerance: heartbeat detection + load repartitioning.

Devices heartbeat once per second; miss three seconds of beats and the
controller declares the device failed (section 4.6) and repartitions its
assigned area among neighbouring devices with sufficient battery (Fig 10),
pushing updated routes to the heirs.

A beat carries nothing but its sender's liveness, so beats are modelled in
closed form rather than as messages: the detector checks on the beat grid
itself and, at each check instant, reads a device's ``alive`` flag as that
instant's beat.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..config import ControlConstants
from ..edge import Swarm
from ..routing import repartition_on_failure
from ..sim import Environment

__all__ = ["FailureDetector"]


class FailureDetector:
    """Samples the swarm's liveness on the beat grid and detects silent
    devices."""

    #: Minimum battery fraction a neighbour needs to inherit work.
    MIN_HEIR_BATTERY = 0.10

    def __init__(self, env: Environment, swarm: Swarm,
                 constants: Optional[ControlConstants] = None):
        self.env = env
        self.swarm = swarm
        self.constants = constants or swarm.control
        # Seeded with the construction instant, the grid's first beat: a
        # device already silent then is declared one timeout later, not
        # at the first check of a detector built late in the mission.
        self.last_beat: Dict[str, float] = {
            device_id: env.now for device_id in swarm.devices}
        self.failed: List[str] = []
        env.process(self._check())

    def _check(self) -> Generator:
        """Check every ``heartbeat_period_s`` from construction on.

        Each check instant is the previous one plus the period, the grid
        the devices beat on, so a device alive at a check beat at it."""
        timeout = self.constants.heartbeat_timeout_s
        devices = self.swarm.devices
        while True:
            yield self.env.timeout(self.constants.heartbeat_period_s)
            now = self.env.now
            for device_id, last in list(self.last_beat.items()):
                if device_id in self.failed:
                    continue
                if devices[device_id].alive:
                    self.last_beat[device_id] = now
                elif now - last > timeout:
                    self._declare_failed(device_id)

    def _declare_failed(self, device_id: str) -> None:
        self.failed.append(device_id)
        device = self.swarm.devices[device_id]
        # Route through fail() so in-flight work reacts (the vectorized
        # engine truncates an armed analytic leg from the fail hook); the
        # controller stops dispatching to it either way.
        device.fail()
        self._repartition(device_id)

    def _repartition(self, device_id: str) -> None:
        """Give the failed device's region(s) to healthy neighbours."""
        if device_id not in self.swarm.regions:
            return
        # Flatten to a single-region view for the geometric repartition,
        # skipping heirs whose battery is too low (section 4.6: "assuming
        # they have sufficient battery").
        flat = {d: regions[0] for d, regions in self.swarm.regions.items()
                if regions and self._eligible(d, device_id)}
        if not any(d != device_id for d in flat):
            # Every heir is below the battery floor. An uncovered region
            # is worse than a tired heir, so relax the floor to "alive"
            # rather than silently dropping the dead device's area.
            flat = {d: regions[0]
                    for d, regions in self.swarm.regions.items()
                    if regions and (d == device_id or
                                    self.swarm.devices[d].alive)}
        if device_id not in flat:
            flat[device_id] = self.swarm.regions[device_id][0]
        if len(flat) <= 1:
            new_assignment = {d: list(r) for d, r in
                              self.swarm.regions.items() if d != device_id}
        else:
            new_assignment = repartition_on_failure(flat, device_id)
            # The geometric repartition works on the single-region flat
            # view; restore everything it left out so no area is dropped:
            # the failed device's extra regions (inherited from earlier
            # failures) go to its heirs round-robin, and every survivor
            # keeps the tail of its own region list.
            heirs = sorted(d for d, regions in new_assignment.items()
                           if len(regions) > 1)
            for index, region in enumerate(
                    self.swarm.regions[device_id][1:]):
                new_assignment[heirs[index % len(heirs)]].append(region)
            for d, regions in self.swarm.regions.items():
                if d == device_id:
                    continue
                if d in new_assignment:
                    new_assignment[d].extend(regions[1:])
                else:
                    # Devices excluded for low battery keep their regions.
                    new_assignment[d] = list(regions)
        self.swarm.regions = {d: list(regions)
                              for d, regions in new_assignment.items()}

    def _eligible(self, device_id: str, failed_id: str) -> bool:
        if device_id == failed_id:
            return True  # the failed device itself must be in the map
        device = self.swarm.devices[device_id]
        return (device.alive and
                device.energy.remaining_fraction > self.MIN_HEIR_BATTERY)

    @property
    def alive_count(self) -> int:
        return len(self.swarm.devices) - len(self.failed)
