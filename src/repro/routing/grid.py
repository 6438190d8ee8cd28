"""Occupancy-grid world for path planning.

A :class:`GridMap` discretizes space into unit cells that are either free or
blocked. It backs the A* planner (Scenario A route derivation) and the maze
environments (S6 and the robotic-car maze scenario).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Set, Tuple

__all__ = ["GridMap", "Cell"]

Cell = Tuple[int, int]


class GridMap:
    """A width x height grid with blocked cells."""

    #: 4-connected movement (the drones fly axis-aligned sweep legs; the
    #: cars drive on grid corridors).
    MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def __init__(self, width: int, height: int,
                 blocked: Iterable[Cell] = ()):
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        self.width = width
        self.height = height
        self._blocked: Set[Cell] = set()
        for cell in blocked:
            self.block(cell)

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def block(self, cell: Cell) -> None:
        if not self.in_bounds(cell):
            raise ValueError(f"cell {cell} outside {self.width}x{self.height}")
        self._blocked.add(cell)

    def unblock(self, cell: Cell) -> None:
        self._blocked.discard(cell)

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self._blocked

    def neighbors(self, cell: Cell) -> Iterator[Cell]:
        x, y = cell
        for dx, dy in self.MOVES:
            candidate = (x + dx, y + dy)
            if self.is_free(candidate):
                yield candidate

    def free_cells(self) -> Iterator[Cell]:
        for x in range(self.width):
            for y in range(self.height):
                if (x, y) not in self._blocked:
                    yield (x, y)

    def __contains__(self, cell: Cell) -> bool:
        return self.in_bounds(cell)
