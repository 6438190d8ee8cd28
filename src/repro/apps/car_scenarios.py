"""Robotic-car scenarios (paper section 5.5).

- **Treasure Hunt**: cars navigate a space with instruction panels; each
  panel is photographed and image-to-text converted (S9-style OCR) to learn
  the next move, until the final target.
- **Maze**: cars navigate an unknown maze (wall follower, S6-style
  decisions per step).

Cars are less power-constrained than drones, so obstacle avoidance and
sensor analytics almost always run on-board; the OCR stage is the piece
worth offloading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import AppSpec
from .suite import SUITE

__all__ = ["CarScenarioSpec", "TREASURE_HUNT", "CAR_MAZE"]


@dataclass(frozen=True)
class CarScenarioSpec:
    """One robotic-car scenario."""

    key: str
    name: str
    description: str
    #: The per-step perception app (OCR for treasure hunt; wall-follower
    #: decision compute for the maze).
    perception: AppSpec
    #: Panels to find (treasure hunt) or maze side length (maze).
    panels: int = 0
    maze_side: int = 0

    def __post_init__(self):
        if self.panels == 0 and self.maze_side == 0:
            raise ValueError("scenario needs panels or a maze")


TREASURE_HUNT = CarScenarioSpec(
    key="TreasureHunt",
    name="treasure_hunt",
    description="Follow instruction panels (OCR) to a final target",
    perception=SUITE["S9"],
    panels=10,
)

CAR_MAZE = CarScenarioSpec(
    key="Maze",
    name="maze",
    description="Navigate an unknown maze with the wall follower",
    perception=SUITE["S6"],
    maze_side=12,
)
