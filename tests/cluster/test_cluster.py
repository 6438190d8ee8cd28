"""Tests for the server/cluster models and fixed IaaS pools."""

import pytest

from repro.cluster import Cluster, FixedPool, Server
from repro.config import ClusterConstants
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestServer:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            Server(env, "s0", cores=0)

    def test_acquire_and_release_cores(self, env):
        server = Server(env, "s0", cores=4)

        def run():
            grant = yield env.process(server.acquire_cores(2))
            assert server.busy_cores == 2
            assert server.utilization == 0.5
            grant.release()
            assert server.busy_cores == 0

        env.run(env.process(run()))

    def test_double_release_rejected(self, env):
        server = Server(env, "s0", cores=2)

        def run():
            grant = yield env.process(server.acquire_cores(1))
            grant.release()
            with pytest.raises(RuntimeError):
                grant.release()

        env.run(env.process(run()))

    def test_acquire_more_than_capacity_rejected(self, env):
        server = Server(env, "s0", cores=2)
        process = env.process(server.acquire_cores(3))
        with pytest.raises(ValueError):
            env.run(process)

    def test_acquire_zero_rejected(self, env):
        server = Server(env, "s0", cores=2)
        process = env.process(server.acquire_cores(0))
        with pytest.raises(ValueError):
            env.run(process)

    def test_cores_block_when_exhausted(self, env):
        server = Server(env, "s0", cores=1)
        order = []

        def user(name, hold):
            grant = yield env.process(server.acquire_cores(1))
            order.append((env.now, name))
            yield env.process(server.compute(hold))
            grant.release()

        env.process(user("first", 5))
        env.process(user("second", 1))
        env.run()
        assert order == [(0, "first"), (5, "second")]

    def test_memory_reservation(self, env):
        server = Server(env, "s0", cores=1, ram_gb=1)  # 1024 MB
        assert server.reserve_memory(1000)
        assert not server.reserve_memory(100)
        server.free_memory(1000)
        assert server.free_memory_mb == pytest.approx(1024)

    def test_free_memory_past_capacity_rejected(self, env):
        server = Server(env, "s0", cores=1, ram_gb=1)
        assert server.reserve_memory(100)
        with pytest.raises(ValueError):
            server.free_memory(200)
        with pytest.raises(ValueError):
            server.free_memory(-1)
        assert server.free_memory_mb == pytest.approx(924)
        server.free_memory(100)
        assert server.free_memory_mb == server.memory_capacity_mb

    def test_probation(self, env):
        server = Server(env, "s0")
        assert not server.on_probation
        server.put_on_probation(60)
        assert server.on_probation


class TestCluster:
    def test_default_shape(self, env):
        cluster = Cluster(env)
        constants = ClusterConstants()
        assert len(cluster) == constants.servers
        assert all(server.cores.capacity == constants.cores_per_server
                   for server in cluster.servers.values())


class TestFixedPool:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            FixedPool(env, cores=0)

    def test_execute_no_wait_under_capacity(self, env):
        pool = FixedPool(env, cores=2)

        def run():
            wait, service = yield env.process(pool.execute(1.0))
            return wait

        assert env.run(env.process(run())) == 0.0

    def test_saturation_queues_tasks(self, env):
        pool = FixedPool(env, cores=1)
        waits = []

        def task():
            wait, _ = yield env.process(pool.execute(2.0))
            waits.append(wait)

        for _ in range(3):
            env.process(task())
        env.run()
        assert waits == [0.0, 2.0, 4.0]

    def test_resize_growth_pays_delay(self, env):
        pool = FixedPool(env, cores=1)

        def run():
            yield env.process(pool.resize(4))
            return env.now

        assert env.run(env.process(run())) == \
            pytest.approx(FixedPool.PROVISION_DELAY_S)
        assert pool.cores == 4

    def test_resize_shrink_is_instant(self, env):
        pool = FixedPool(env, cores=4)

        def run():
            yield env.process(pool.resize(2))
            return env.now

        assert env.run(env.process(run())) == 0.0

    def test_utilization(self, env):
        pool = FixedPool(env, cores=2)

        def run():
            yield env.process(pool.execute(5.0))

        env.process(run())
        env.run()
        assert pool.utilization(5.0) == pytest.approx(0.5)
