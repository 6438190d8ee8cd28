"""Tests for coverage planning, partitioning, and mazes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    Maze,
    Region,
    WallFollower,
    coverage_route,
    generate_maze,
    neighbors_of,
    partition_field,
    repartition_on_failure,
)


class TestCoverage:
    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(0, 0, 0, 5)

    def test_route_covers_all_legs(self):
        region = Region(0, 0, 100, 30)
        route = coverage_route(region, swath_m=10)
        # 30 m span / 10 m swath = 3 legs, two endpoints each.
        assert len(route) == 6
        assert all(region.contains(p) for p in route)

    def test_route_alternates_direction(self):
        region = Region(0, 0, 100, 20)
        route = coverage_route(region, swath_m=10)
        assert route[0][0] == 0 and route[1][0] == 100
        assert route[2][0] == 100 and route[3][0] == 0

    def test_swath_validation(self):
        with pytest.raises(ValueError):
            coverage_route(Region(0, 0, 1, 1), 0)

    @settings(max_examples=25)
    @given(st.floats(10, 200), st.floats(10, 200), st.floats(2, 20))
    def test_route_stays_inside_region(self, width, height, swath):
        region = Region(0, 0, width, height)
        route = coverage_route(region, swath)
        assert all(region.contains(p) for p in route)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            partition_field(100, 100, 0)
        with pytest.raises(ValueError):
            partition_field(0, 100, 4)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16, 33])
    def test_partition_area_conserved(self, n):
        regions = partition_field(110, 110, n)
        assert len(regions) == n
        total = sum(r.area for r in regions)
        assert total == pytest.approx(110 * 110)

    def test_partition_near_equal_areas(self):
        regions = partition_field(100, 100, 16)
        areas = [r.area for r in regions]
        assert max(areas) / min(areas) < 1.5

    def test_neighbors_of_grid(self):
        regions = dict(zip("abcd", partition_field(100, 100, 4)))
        # 2x2 grid: 'a' touches 'b' (right) and 'c' (above).
        assert set(neighbors_of("a", regions)) == {"b", "c"}

    def test_neighbors_unknown_device(self):
        with pytest.raises(KeyError):
            neighbors_of("ghost", {})

    def test_repartition_preserves_total_area(self):
        regions = dict(zip("abcdefghi", partition_field(90, 90, 9)))
        new_assignment = repartition_on_failure(regions, "e")
        assert "e" not in new_assignment
        total = sum(r.area for regions_list in new_assignment.values()
                    for r in regions_list)
        assert total == pytest.approx(90 * 90)

    def test_repartition_gives_failed_area_to_neighbors(self):
        regions = dict(zip("abcd", partition_field(100, 100, 4)))
        new_assignment = repartition_on_failure(regions, "a")
        gainers = [d for d, rs in new_assignment.items() if len(rs) > 1]
        assert set(gainers) <= {"b", "c"}
        assert gainers  # someone inherited

    def test_repartition_unknown_device(self):
        with pytest.raises(KeyError):
            repartition_on_failure({"a": Region(0, 0, 1, 1)}, "z")

    def test_repartition_no_survivors(self):
        with pytest.raises(ValueError):
            repartition_on_failure({"a": Region(0, 0, 1, 1)}, "a")


def walk(follower):
    """Step the follower to its goal, as the car runner does."""
    limit = 4 * follower.maze.width * follower.maze.height
    while not follower.done:
        assert follower.steps < limit
        follower.step()
    return follower.trail


class TestMaze:
    def test_maze_validation(self):
        with pytest.raises(ValueError):
            Maze(0, 3)

    def test_carve_validation(self):
        maze = Maze(3, 3)
        with pytest.raises(ValueError):
            maze.carve((0, 0), (2, 2))  # not adjacent
        with pytest.raises(ValueError):
            maze.carve((0, 0), (0, -1))  # out of bounds

    def test_generated_maze_is_fully_connected(self):
        rng = np.random.default_rng(7)
        maze = generate_maze(8, 8, rng)
        # BFS from (0,0) must reach every cell.
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            cell = frontier.pop()
            for direction in maze.open_directions(cell):
                dx, dy = [(0, -1), (1, 0), (0, 1), (-1, 0)][direction]
                neighbor = (cell[0] + dx, cell[1] + dy)
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == 64

    def test_generated_maze_is_perfect(self):
        """A perfect maze has exactly cells-1 passages (spanning tree)."""
        rng = np.random.default_rng(3)
        maze = generate_maze(6, 6, rng)
        assert len(maze._passages) == 35

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_wall_follower_always_reaches_goal(self, seed):
        rng = np.random.default_rng(seed)
        maze = generate_maze(10, 10, rng)
        follower = WallFollower(maze, (0, 0), (9, 9))
        trail = walk(follower)
        assert trail[-1] == (9, 9)
        assert follower.done

    def test_wall_follower_step_bound(self):
        rng = np.random.default_rng(11)
        maze = generate_maze(12, 12, rng)
        follower = WallFollower(maze, (0, 0), (11, 11))
        walk(follower)
        assert follower.steps <= 4 * 12 * 12

    def test_wall_follower_validation(self):
        maze = Maze(3, 3)
        with pytest.raises(ValueError):
            WallFollower(maze, (0, 0), (9, 9))

    def test_wall_follower_at_goal_is_noop(self):
        rng = np.random.default_rng(1)
        maze = generate_maze(4, 4, rng)
        follower = WallFollower(maze, (2, 2), (2, 2))
        assert follower.done
        assert follower.step() == (2, 2)
        assert follower.steps == 0
