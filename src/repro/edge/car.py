"""Robotic car model (Yahboom Raspberry Pi cars, section 5.5).

Cars drive on a grid (maze corridors or instruction panels), one cell per
move, with a front camera for text/obstacle recognition. Less
power-constrained than drones: larger battery, lower motion draw, and a
4-core Pi, which is why obstacle avoidance and sensor analytics almost
always run on-board for them.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from ..config import CarConstants
from ..sim import Environment
from .device import EdgeDevice

__all__ = ["RoboticCar"]


class RoboticCar(EdgeDevice):
    """A terrestrial swarm member."""

    #: Size of one front-camera still used for text recognition (MB).
    PHOTO_MB = 3.0
    #: Grid cell edge length in meters (corridor spacing).
    CELL_M = 1.5

    def __init__(self, env: Environment, device_id: str,
                 constants: CarConstants,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(
            env, device_id,
            cpu_cores=constants.cpu_cores,
            battery_wh=constants.battery_wh,
            motion_power_w=constants.motion_power_w,
            compute_power_w=constants.compute_power_w,
            compute_idle_w=constants.compute_idle_w,
            radio_tx_w=constants.radio_tx_w,
            radio_rx_w=constants.radio_rx_w,
            radio_idle_w=constants.radio_idle_w,
            cloud_to_edge_slowdown=constants.cloud_to_edge_slowdown,
            rng=rng)
        self.constants = constants
        self.speed_mps = constants.speed_mps
        self.cell: Tuple[int, int] = (0, 0)

    def drive_to_cell(self, cell: Tuple[int, int]) -> Generator:
        """Process: drive to an adjacent grid cell; returns seconds."""
        dx = abs(cell[0] - self.cell[0])
        dy = abs(cell[1] - self.cell[1])
        if dx + dy != 1:
            raise ValueError(
                f"cell {cell} is not adjacent to {self.cell}")
        travel_s = self.CELL_M / self.speed_mps
        yield self.env.timeout(travel_s)
        self.account_motion(travel_s)
        self.cell = cell
        self.position = (cell[0] * self.CELL_M, cell[1] * self.CELL_M)
        return travel_s

    def turn(self) -> Generator:
        """Process: rotate in place (cheap but not free)."""
        yield self.env.timeout(self.constants.turn_time_s)
        self.account_motion(self.constants.turn_time_s)

    def photograph(self) -> float:
        """Take one front-camera still; returns its size in MB."""
        return self.PHOTO_MB
