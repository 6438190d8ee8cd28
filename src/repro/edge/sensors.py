"""On-board sensing: the camera and the telemetry sensor suite.

Drones carry an 8 MP underside camera collecting 8 frames per second at
2 MB per frame by default (section 2.1), plus gyroscope, accelerometer,
thermometer, magnetometer, hygrometer, and ultrasound altitude sensors.
A :class:`FrameBatch` is the unit the tasks consume — one second of frames —
matching the paper's task definition ("recognizing a human face in a frame
batch of one second").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .field import FieldWorld

__all__ = ["FrameBatch", "Camera", "SensorReading", "SensorSuite"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class FrameBatch:
    """One second of camera frames captured at one position."""

    device_id: str
    time: float
    position: Point
    frame_count: int
    total_mb: float
    item_sightings: List[int] = field(default_factory=list)
    people_sightings: List[int] = field(default_factory=list)


class Camera:
    """The underside photo camera."""

    def __init__(self, fps: float, frame_mb: float,
                 fov_width_m: float, fov_depth_m: float):
        if not (fps > 0 and frame_mb > 0):
            raise ValueError("fps and frame size must be positive")
        if not (fov_width_m > 0 and fov_depth_m > 0):
            raise ValueError("field of view must be positive")
        self.fps = fps
        self.frame_mb = frame_mb
        self.fov_width_m = fov_width_m
        self.fov_depth_m = fov_depth_m

    def capture_batch(self, device_id: str, world: FieldWorld,
                      position: Point, time: float,
                      duration_s: float = 1.0) -> FrameBatch:
        """Capture ``duration_s`` worth of frames at ``position``."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        frames = max(1, round(self.fps * duration_s))
        return FrameBatch(
            device_id=device_id,
            time=time,
            position=position,
            frame_count=frames,
            total_mb=frames * self.frame_mb,
            item_sightings=world.visible_items(
                position, self.fov_width_m, self.fov_depth_m),
            people_sightings=world.visible_people(
                position, self.fov_width_m, self.fov_depth_m),
        )


@dataclass(frozen=True)
class SensorReading:
    """One sample of the non-camera sensors."""

    time: float
    temperature_c: float
    humidity_pct: float
    altitude_m: float
    acceleration: Tuple[float, float, float]
    heading_deg: float
    size_mb: float = 0.002  # a telemetry record is a couple of KB


class SensorSuite:
    """Generates plausible telemetry streams for the analytics jobs."""

    def __init__(self, rng: np.random.Generator,
                 base_temperature_c: float = 24.0,
                 base_humidity_pct: float = 55.0):
        self._rng = rng
        self.base_temperature_c = base_temperature_c
        self.base_humidity_pct = base_humidity_pct

    def sample(self, time: float, altitude_m: float = 5.0) -> SensorReading:
        rng = self._rng
        # Slow diurnal-ish drift plus sensor noise.
        drift = 2.0 * np.sin(time / 600.0)
        return SensorReading(
            time=time,
            temperature_c=float(self.base_temperature_c + drift +
                                rng.normal(0, 0.3)),
            humidity_pct=float(np.clip(
                self.base_humidity_pct - 3 * drift + rng.normal(0, 1.0),
                0, 100)),
            altitude_m=float(altitude_m + rng.normal(0, 0.15)),
            acceleration=(float(rng.normal(0, 0.4)),
                          float(rng.normal(0, 0.4)),
                          float(rng.normal(9.81, 0.2))),
            heading_deg=float(rng.uniform(0, 360)),
        )
