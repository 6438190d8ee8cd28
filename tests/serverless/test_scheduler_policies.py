"""Focused tests for scheduling policies, memory pressure, and limits."""

import itertools

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants, ServerlessConstants
from repro.serverless import (
    FunctionSpec,
    HiveMindScheduler,
    InvocationRequest,
    Invoker,
    OpenWhiskPlatform,
    OpenWhiskScheduler,
)
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_invokers(env, servers=3, cores=4, ram_gb=1.0):
    cluster = Cluster(env, ClusterConstants(
        servers=servers, cores_per_server=cores,
        ram_gb_per_server=ram_gb))
    streams = RandomStreams(9)
    container_ids = itertools.count()
    return cluster, [
        Invoker(env, server, ServerlessConstants(),
                rng=streams.stream(server_id), container_ids=container_ids)
        for server_id, server in sorted(cluster.servers.items())
    ]


class TestSchedulerPolicies:
    def test_empty_invoker_list_rejected(self):
        with pytest.raises(ValueError):
            OpenWhiskScheduler([])

    def test_least_loaded_when_no_warm(self, env):
        cluster, invokers = make_invokers(env)
        scheduler = OpenWhiskScheduler(invokers)

        def occupy():
            server = cluster.servers["server0"]
            grant = yield env.process(server.acquire_cores(3))
            yield env.timeout(100)
            grant.release()

        env.process(occupy())
        env.run(until=1)
        placement = scheduler.place(InvocationRequest(
            FunctionSpec("f"), service_s=0.1))
        assert placement.invoker.server.server_id != "server0"

    def test_probation_skipped(self, env):
        _, invokers = make_invokers(env, servers=2)
        scheduler = OpenWhiskScheduler(invokers)
        invokers[0].server.put_on_probation(60)
        placement = scheduler.place(InvocationRequest(
            FunctionSpec("f"), service_s=0.1))
        assert placement.invoker is invokers[1]

    def test_all_on_probation_falls_back(self, env):
        _, invokers = make_invokers(env, servers=2)
        scheduler = OpenWhiskScheduler(invokers)
        for invoker in invokers:
            invoker.server.put_on_probation(60)
        assert scheduler.place(InvocationRequest(
            FunctionSpec("f"), service_s=0.1)) is not None

    def test_hivemind_ignores_dead_parent_container(self, env):
        """A parent whose container expired cannot be colocated with."""
        cluster, invokers = make_invokers(env)
        scheduler = HiveMindScheduler(invokers)
        platform_env = env

        # Fabricate a parent invocation pointing at a container that was
        # never registered warm.
        from repro.serverless import Invocation
        parent = Invocation(request=InvocationRequest(
            FunctionSpec("f"), service_s=0.1), invocation_id=0)
        parent.server_id = "server0"
        parent.container_id = "ghost"
        placement = scheduler.place(InvocationRequest(
            FunctionSpec("f"), service_s=0.1, parent=parent))
        assert placement.container is None


class TestMemoryPressure:
    def test_warm_eviction_frees_memory(self, env):
        """Cold starts under memory pressure evict stale warm pools."""
        cluster = Cluster(env, ClusterConstants(
            servers=1, cores_per_server=4, ram_gb_per_server=0.6))
        platform = OpenWhiskPlatform(env, cluster, RandomStreams(2),
                                     keepalive_s=300.0)

        def run():
            # Two 256 MB functions fill the 614 MB server.
            for name in ("a", "b"):
                yield env.process(platform.invoke(InvocationRequest(
                    FunctionSpec(name, image=f"{name}-img"),
                    service_s=0.05)))
            # A third image forces eviction of a warm container.
            final = yield env.process(platform.invoke(InvocationRequest(
                FunctionSpec("c", image="c-img"), service_s=0.05)))
            return final

        final = env.run(env.process(run()))
        assert final.t_complete > 0
        total_warm = sum(inv.warm_count for inv in platform.invokers)
        assert total_warm <= 2


class TestConcurrencyLimit:
    def test_limit_throttles_admission(self, env):
        cluster = Cluster(env, ClusterConstants(
            servers=2, cores_per_server=16))
        platform = OpenWhiskPlatform(
            env, cluster, RandomStreams(4),
            constants=ServerlessConstants(concurrency_limit=4))
        done = []

        def task():
            yield env.process(platform.invoke(InvocationRequest(
                FunctionSpec("f"), service_s=1.0)))
            done.append(env.now)

        for _ in range(8):
            env.process(task())
        env.run()
        # Two admission waves of 4: the second wave completes roughly one
        # service time after the first.
        assert len(done) == 8
        assert max(done) > min(done) + 0.8
        peak = max(count for _, count in platform.active_samples)
        assert peak <= 4
