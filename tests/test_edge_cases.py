"""Edge-case tests for paths the mainline suites do not reach."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants
from repro.routing import Maze, WallFollower
from repro.serverless import FunctionSpec, InvocationRequest, OpenWhiskPlatform
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


class TestWallFollowerLimits:
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
