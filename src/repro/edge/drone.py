"""Drone model (Parrot AR. Drone 2.0, section 2.1).

A drone flies a waypoint route at constant speed and captures one
:class:`~repro.edge.sensors.FrameBatch` per second while airborne. The
flight runs on
:meth:`repro.edge.engine.SwarmEngine.fly_route`; its batch callback is how
the platform layer decides what happens to the data (upload to the cloud,
process on-board, or HiveMind's hybrid split) without the drone knowing
about platforms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import DroneConstants
from ..sim import Environment
from .device import EdgeDevice
from .sensors import Camera

__all__ = ["Drone"]


class Drone(EdgeDevice):
    """A camera drone."""

    def __init__(self, env: Environment, device_id: str,
                 constants: DroneConstants,
                 rng: Optional[np.random.Generator] = None,
                 frame_mb: Optional[float] = None,
                 fps: Optional[float] = None):
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
        self.camera = Camera(
            fps=fps if fps is not None else constants.frames_per_second,
            frame_mb=frame_mb if frame_mb is not None else constants.frame_mb,
            fov_width_m=constants.fov_width_m,
            fov_depth_m=constants.fov_depth_m)
