"""Boustrophedon (lawnmower) coverage planning.

Each drone must photograph every point of its assigned region. With a camera
swath of ``fov_width_m`` the classic minimal-turn plan is back-and-forth
sweep legs spaced one swath apart. :func:`coverage_route` produces the
waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Region", "coverage_route"]

Point = Tuple[float, float]


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangle of the field."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate region {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return ((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def contains(self, point: Point) -> bool:
        x, y = point
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def coverage_route(region: Region, swath_m: float) -> List[Point]:
    """Lawnmower waypoints covering ``region`` with ``swath_m`` spacing.

    Legs run along the region's longer axis to minimize turns.
    """
    if swath_m <= 0:
        raise ValueError("swath must be positive")
    horizontal_legs = region.width >= region.height
    span = region.height if horizontal_legs else region.width
    n_legs = max(1, math.ceil(span / swath_m))
    # Center the legs inside the span.
    spacing = span / n_legs
    waypoints: List[Point] = []
    for leg in range(n_legs):
        offset = (leg + 0.5) * spacing
        if horizontal_legs:
            y = region.y0 + offset
            ends = ((region.x0, y), (region.x1, y))
        else:
            x = region.x0 + offset
            ends = ((x, region.y0), (x, region.y1))
        if leg % 2 == 1:
            ends = (ends[1], ends[0])
        waypoints.extend(ends)
    return waypoints
