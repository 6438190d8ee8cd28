"""Maze generation and wall-follower traversal (S6 and the car scenario).

The maze benchmark navigates a walled maze with the Wall Follower (left/right
hand rule) algorithm. :func:`generate_maze` builds a perfect maze with
recursive backtracking (every perfect maze is simply connected, so wall
following always terminates); :class:`WallFollower` walks it step by step so
the simulation can charge per-step compute and movement.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

__all__ = ["Maze", "generate_maze", "WallFollower"]

Cell = Tuple[int, int]

# Directions in clockwise order: N, E, S, W.
DIRECTIONS = ((0, -1), (1, 0), (0, 1), (-1, 0))


class Maze:
    """A perfect maze: passages between adjacent cells."""

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError("maze dimensions must be positive")
        self.width = width
        self.height = height
        self._passages: Set[frozenset] = set()

    def carve(self, a: Cell, b: Cell) -> None:
        if not (self.in_bounds(a) and self.in_bounds(b)):
            raise ValueError(f"cells {a}-{b} out of bounds")
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise ValueError(f"cells {a}-{b} are not adjacent")
        self._passages.add(frozenset((a, b)))

    def connected(self, a: Cell, b: Cell) -> bool:
        return frozenset((a, b)) in self._passages

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def open_directions(self, cell: Cell) -> List[int]:
        """Indices into DIRECTIONS with an open passage from ``cell``."""
        result = []
        for index, (dx, dy) in enumerate(DIRECTIONS):
            neighbor = (cell[0] + dx, cell[1] + dy)
            if self.in_bounds(neighbor) and self.connected(cell, neighbor):
                result.append(index)
        return result


def generate_maze(width: int, height: int,
                  rng: np.random.Generator) -> Maze:
    """Recursive-backtracker perfect maze."""
    maze = Maze(width, height)
    visited: Set[Cell] = {(0, 0)}
    stack: List[Cell] = [(0, 0)]
    while stack:
        current = stack[-1]
        candidates = []
        for dx, dy in DIRECTIONS:
            neighbor = (current[0] + dx, current[1] + dy)
            if maze.in_bounds(neighbor) and neighbor not in visited:
                candidates.append(neighbor)
        if not candidates:
            stack.pop()
            continue
        chosen = candidates[int(rng.integers(len(candidates)))]
        maze.carve(current, chosen)
        visited.add(chosen)
        stack.append(chosen)
    return maze


class WallFollower:
    """Left-hand-rule maze walker.

    Produces one movement decision per :meth:`step`; the simulation charges
    compute (the decision) and motion (the move) per step. Perfect mazes
    guarantee the goal is reached within 2x the passage count.
    """

    def __init__(self, maze: Maze, start: Cell, goal: Cell):
        if not maze.in_bounds(start) or not maze.in_bounds(goal):
            raise ValueError("start/goal out of bounds")
        self.maze = maze
        self.position = start
        self.goal = goal
        self.heading = 1  # facing east
        self.steps = 0
        self.trail: List[Cell] = [start]

    @property
    def done(self) -> bool:
        return self.position == self.goal

    def step(self) -> Cell:
        """Advance one cell using the left-hand rule; returns new position."""
        if self.done:
            return self.position
        open_dirs = self.maze.open_directions(self.position)
        if not open_dirs:
            raise RuntimeError(f"cell {self.position} is sealed")
        # Prefer: left of heading, straight, right, back.
        for turn in (-1, 0, 1, 2):
            direction = (self.heading + turn) % 4
            if direction in open_dirs:
                dx, dy = DIRECTIONS[direction]
                self.position = (self.position[0] + dx,
                                 self.position[1] + dy)
                self.heading = direction
                self.steps += 1
                self.trail.append(self.position)
                return self.position
        raise RuntimeError("unreachable: no direction chosen")
