"""The 2-D world the swarm operates over.

Holds the stationary items of Scenario A (tennis balls on a baseball field)
and the moving people of Scenario B (random-waypoint walkers). The camera
model queries visibility against this world, which is what makes detection
counts and deduplication pressure (the same person photographed by several
drones) emerge from the simulation rather than being scripted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["FieldWorld", "Person"]

Point = Tuple[float, float]

#: Walking speed of every person (m/s).
WALK_SPEED_MPS = 1.2


@dataclass
class Person:
    """A walker with a current position and waypoint."""

    person_id: int
    position: Point
    waypoint: Point


class FieldWorld:
    """A rectangle with stationary items and moving people."""

    def __init__(self, width_m: float, height_m: float,
                 rng: np.random.Generator):
        if not (width_m > 0 and height_m > 0):
            raise ValueError("field dimensions must be positive")
        self.width_m = width_m
        self.height_m = height_m
        self._rng = rng
        self.items: Dict[int, Point] = {}
        self.people: Dict[int, Person] = {}
        self._clock = 0.0
        #: Lazily built uniform grid over the (static) items: cell -> ids.
        self._item_grid: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._cell_m = 1.0
        #: Walker positions as an (n, 2) array and their ids, in person-id
        #: order; None until a query after the walkers last moved.
        self._people_xy: Optional[np.ndarray] = None
        self._people_ids: Optional[np.ndarray] = None

    def _random_point(self) -> Point:
        return (float(self._rng.uniform(0, self.width_m)),
                float(self._rng.uniform(0, self.height_m)))

    def place_items(self, count: int) -> None:
        """Scatter ``count`` stationary items uniformly (Scenario A)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = len(self.items)
        for index in range(start, start + count):
            self.items[index] = self._random_point()
        self._item_grid = None

    def place_people(self, count: int) -> None:
        """Scatter ``count`` walkers uniformly (Scenario B)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = len(self.people)
        for index in range(start, start + count):
            self.people[index] = Person(
                person_id=index,
                position=self._random_point(),
                waypoint=self._random_point(),
            )
        if count:
            self._people_xy = None

    def advance(self, to_time: float) -> None:
        """Move every person forward to simulation time ``to_time``."""
        dt = to_time - self._clock
        if not math.isfinite(dt):
            raise ValueError(f"world time must be finite, got {to_time}")
        if dt < 0:
            raise ValueError("world time cannot run backwards")
        if dt == 0:
            return
        self._clock = to_time
        self._people_xy = None
        for person in self.people.values():
            remaining = dt * WALK_SPEED_MPS
            while remaining > 0:
                dx = person.waypoint[0] - person.position[0]
                dy = person.waypoint[1] - person.position[1]
                distance = math.hypot(dx, dy)
                if distance <= remaining:
                    person.position = person.waypoint
                    person.waypoint = self._random_point()
                    remaining -= distance
                    if distance == 0:
                        break
                else:
                    fraction = remaining / distance
                    person.position = (
                        person.position[0] + fraction * dx,
                        person.position[1] + fraction * dy)
                    remaining = 0.0

    def _build_item_grid(self) -> Dict[Tuple[int, int], List[int]]:
        """Bucket the stationary items into a uniform grid so footprint
        queries touch only nearby cells instead of scanning every item.

        Cell size tracks the field so the grid stays a few hundred cells
        regardless of scale. Ids within a cell are in insertion (== sorted)
        order, so a sorted merge of cell hits reproduces the exact output
        of the full scan.
        """
        self._cell_m = max(1.0, min(self.width_m, self.height_m) / 32.0)
        grid: Dict[Tuple[int, int], List[int]] = {}
        cell_m = self._cell_m
        for item_id, (x, y) in self.items.items():
            grid.setdefault((int(x / cell_m), int(y / cell_m)),
                            []).append(item_id)
        self._item_grid = grid
        return grid

    def visible_items(self, center: Point, width_m: float,
                      depth_m: float) -> List[int]:
        """Item ids inside an axis-aligned camera footprint."""
        grid = self._item_grid
        if grid is None:
            grid = self._build_item_grid()
        cell_m = self._cell_m
        half_w = width_m / 2
        half_d = depth_m / 2
        cx, cy = center
        x_lo = int(max(0.0, cx - half_w) / cell_m)
        x_hi = int(max(0.0, cx + half_w) / cell_m)
        y_lo = int(max(0.0, cy - half_d) / cell_m)
        y_hi = int(max(0.0, cy + half_d) / cell_m)
        items = self.items
        hits: List[int] = []
        for gx in range(x_lo, x_hi + 1):
            for gy in range(y_lo, y_hi + 1):
                for item_id in grid.get((gx, gy), ()):
                    x, y = items[item_id]
                    if abs(x - cx) <= half_w and abs(y - cy) <= half_d:
                        hits.append(item_id)
        hits.sort()
        return hits

    def visible_people(self, center: Point, width_m: float,
                       depth_m: float) -> List[int]:
        """Person ids inside an axis-aligned camera footprint, in id order.

        Two elementwise masks over the walkers' position array: each
        element is the same IEEE ``abs(x - c) <= w / 2`` a per-walker
        scan evaluates, so the ids are exactly the scan's.
        """
        if not self.people:
            return []
        xy = self._people_xy
        if xy is None:
            people = self.people.values()
            xy = self._people_xy = np.array(
                [p.position for p in people], dtype=np.float64)
            self._people_ids = np.array(
                [p.person_id for p in people], dtype=np.intp)
        inside = ((np.abs(xy[:, 0] - center[0]) <= width_m / 2) &
                  (np.abs(xy[:, 1] - center[1]) <= depth_m / 2))
        return self._people_ids[inside].tolist()

    @property
    def item_count(self) -> int:
        return len(self.items)

    @property
    def people_count(self) -> int:
        return len(self.people)
