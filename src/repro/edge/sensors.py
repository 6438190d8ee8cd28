"""On-board sensing: the camera.

Drones carry an 8 MP underside camera collecting 8 frames per second at
2 MB per frame by default (section 2.1). A :class:`FrameBatch` is the unit
the tasks consume — one second of frames — matching the paper's task
definition ("recognizing a human face in a frame batch of one second").
The paper's drones also carry gyroscope, accelerometer, thermometer,
magnetometer, hygrometer and ultrasound altitude sensors; no figure's
pipeline reads them, so they are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .field import FieldWorld

__all__ = ["FrameBatch", "Camera"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class FrameBatch:
    """One second of camera frames captured at one position."""

    device_id: str
    time: float
    position: Point
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
            total_mb=frames * self.frame_mb,
            item_sightings=world.visible_items(
                position, self.fov_width_m, self.fov_depth_m),
            people_sightings=world.visible_people(
                position, self.fov_width_m, self.fov_depth_m),
        )
