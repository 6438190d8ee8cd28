"""Route planning: coverage sweeps, partitioning, mazes."""

from .coverage import Region, coverage_route
from .maze import Maze, WallFollower, generate_maze
from .partition import neighbors_of, partition_field, repartition_on_failure

__all__ = [
    "Region",
    "coverage_route",
    "partition_field",
    "repartition_on_failure",
    "neighbors_of",
    "Maze",
    "generate_maze",
    "WallFollower",
]
