"""Edge-case tests for paths the mainline suites do not reach."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants
from repro.routing import Maze, WallFollower, generate_maze
from repro.serverless import FunctionSpec, InvocationRequest, OpenWhiskPlatform
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


class TestWallFollowerLimits:
    def test_step_limit_enforced(self):
        # A 2x2 maze where the goal is intentionally unreachable within
        # the tiny step budget.
        import numpy as np
        maze = generate_maze(6, 6, np.random.default_rng(4))
        follower = WallFollower(maze, (0, 0), (5, 5))
        with pytest.raises(RuntimeError):
            follower.solve(max_steps=1)

    def test_sealed_cell_detected(self):
        maze = Maze(3, 3)  # no passages carved at all
        follower = WallFollower(maze, (0, 0), (2, 2))
        with pytest.raises(RuntimeError):
            follower.step()


class TestMemoryStarvation:
    def test_cold_start_waits_for_memory_without_warm_victims(self, env):
        """A server with no reclaimable memory delays (not deadlocks) a
        new container until a running one finishes."""
        constants = ClusterConstants(servers=1, cores_per_server=4,
                                     ram_gb_per_server=0.26)  # ~1 container
        cluster = Cluster(env, constants)
        platform = OpenWhiskPlatform(env, cluster, RandomStreams(3),
                                     keepalive_s=0.05)
        completions = []

        def task(name):
            invocation = yield env.process(platform.invoke(
                InvocationRequest(FunctionSpec(name, image=f"{name}-img"),
                                  service_s=0.4)))
            completions.append((name, env.now))

        env.process(task("first"))
        env.process(task("second"))
        env.run(until=30.0)
        assert len(completions) == 2
        # The second had to wait for the first container's memory.
        assert completions[1][1] > completions[0][1] + 0.3


class TestDistributionSummaryRoundTrip:
    def test_windowed_counts_horizon_padding(self):
        from repro.telemetry import MetricSeries
        series = MetricSeries()
        series.add(1.0, time=0.5)
        counts = series.windowed_counts(window_s=1.0, horizon_s=5.0)
        assert list(counts) == [1, 0, 0, 0, 0]
