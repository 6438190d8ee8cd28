"""Integration tests for the OpenWhisk platform pipeline."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants, ServerlessConstants
from repro.hardware import RemoteMemoryFabric
from repro.network import ClusterNetwork
from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    OpenWhiskPlatform,
)
from repro.sim import Environment, RandomStreams


def make_platform(env, servers=2, **kwargs):
    constants = ClusterConstants(servers=servers, cores_per_server=8)
    cluster = Cluster(env, constants)
    return OpenWhiskPlatform(env, cluster, RandomStreams(11), **kwargs)


@pytest.fixture
def env():
    return Environment()


class TestInvoke:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            make_platform(env, sharing="carrier_pigeon")
        with pytest.raises(ValueError):
            make_platform(env, n_controllers=0)

    @pytest.mark.parametrize("keepalive_s", [-1.0, float("nan")])
    def test_rejects_bad_keepalive(self, env, keepalive_s):
        with pytest.raises(ValueError, match="keep-alive"):
            make_platform(env, keepalive_s=keepalive_s)

    def test_zero_keepalive_is_allowed(self, env):
        assert make_platform(env, keepalive_s=0.0).invokers

    def test_single_invocation_completes(self, env):
        platform = make_platform(env)
        spec = FunctionSpec("face-rec")

        def run():
            invocation = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.2, input_mb=2.0)))
            return invocation

        invocation = env.run(env.process(run()))
        assert invocation.t_complete > invocation.t_arrive
        assert invocation.cold_start
        assert invocation.latency_s > 0.2  # service + overheads
        # Execution is the requested service time modulo bounded jitter.
        assert invocation.breakdown.execution == pytest.approx(0.2, rel=0.3)
        assert invocation.breakdown.management > 0
        assert platform.cold_starts == 1
        assert len(platform.invocations) == 1

    def test_warm_reuse_on_second_invocation(self, env):
        platform = make_platform(env)
        spec = FunctionSpec("face-rec")

        def run():
            first = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.1)))
            second = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.1)))
            return first, second

        first, second = env.run(env.process(run()))
        assert first.cold_start
        assert not second.cold_start
        assert second.instantiation_s < first.instantiation_s
        assert platform.warm_starts == 1

    def test_keepalive_expiry_forces_cold_start(self, env):
        platform = make_platform(env, keepalive_s=5.0)
        spec = FunctionSpec("f")

        def run():
            yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.1)))
            yield env.timeout(60.0)  # way past keep-alive
            second = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.1)))
            return second

        assert env.run(env.process(run())).cold_start

    def test_concurrent_tasks_use_parallel_cores(self, env):
        platform = make_platform(env, servers=2)
        spec = FunctionSpec("f")
        completions = []

        def task():
            invocation = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=1.0)))
            completions.append(env.now)

        for _ in range(8):
            env.process(task())
        env.run()
        # 8 tasks, 16 cores: all finish in ~1 service time + overheads,
        # far below the 8 s a serial execution would take.
        assert max(completions) < 4.0

    def test_faults_respawn_and_finish(self, env):
        platform = make_platform(env, fault_rate=0.3)
        spec = FunctionSpec("f")
        done = []

        def task():
            invocation = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.2)))
            done.append(invocation)

        for _ in range(40):
            env.process(task())
        env.run()
        assert len(done) == 40  # every task completed despite faults
        assert platform.respawns > 0
        assert sum(inv.failures for inv in done) == platform.respawns

    def test_active_task_accounting_returns_to_zero(self, env):
        platform = make_platform(env)
        spec = FunctionSpec("f")

        def task():
            yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.1)))

        for _ in range(5):
            env.process(task())
        env.run()
        assert platform.active_tasks == 0
        peak = max(count for _, count in platform.active_samples)
        assert peak == 5

    def test_parent_child_couchdb_sharing_charged(self, env):
        platform = make_platform(env, sharing="couchdb")
        parent_spec = FunctionSpec("parent")
        child_spec = FunctionSpec("child", image="other")  # no colocation

        def run():
            parent = yield env.process(platform.invoke(
                InvocationRequest(parent_spec, service_s=0.05,
                                  output_mb=4.0)))
            child = yield env.process(platform.invoke(
                InvocationRequest(child_spec, service_s=0.05,
                                  parent=parent,
                                  colocate_with_parent=False)))
            return child

        child = env.run(env.process(run()))
        assert child.data_share_s > 0
        assert child.breakdown.data_io == pytest.approx(child.data_share_s)

    def test_hivemind_scheduler_colocates_child(self, env):
        platform = make_platform(env, scheduler="hivemind")
        spec = FunctionSpec("stage")  # same image for parent and child

        def run():
            parent = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.05, output_mb=4.0)))
            child = yield env.process(platform.invoke(
                InvocationRequest(spec, service_s=0.05, parent=parent)))
            return parent, child

        parent, child = env.run(env.process(run()))
        assert child.colocated
        assert child.container_id == parent.container_id
        assert child.server_id == parent.server_id
        # In-memory sharing is far cheaper than CouchDB.
        assert child.data_share_s < 0.005

    def test_remote_memory_sharing(self, env):
        fabric = RemoteMemoryFabric(env)
        platform = make_platform(env, sharing="remote_memory",
                                 remote_memory=fabric,
                                 scheduler="openwhisk")
        parent_spec = FunctionSpec("parent")
        child_spec = FunctionSpec("child", image="other")

        def run():
            parent = yield env.process(platform.invoke(
                InvocationRequest(parent_spec, service_s=0.05,
                                  output_mb=4.0)))
            child = yield env.process(platform.invoke(
                InvocationRequest(child_spec, service_s=0.05,
                                  parent=parent,
                                  colocate_with_parent=False)))
            return child

        child = env.run(env.process(run()))
        assert 0 < child.data_share_s < 0.01  # microsecond-scale fabric
        assert fabric.writes == 1 and fabric.reads == 1

    def test_rpc_sharing_requires_network(self, env):
        platform = make_platform(env, sharing="rpc")
        parent_spec = FunctionSpec("parent")
        child_spec = FunctionSpec("child", image="other")

        def run():
            parent = yield env.process(platform.invoke(
                InvocationRequest(parent_spec, service_s=0.01,
                                  output_mb=1.0)))
            child = yield env.process(platform.invoke(
                InvocationRequest(child_spec, service_s=0.01,
                                  parent=parent,
                                  colocate_with_parent=False)))
            return child

        process = env.process(run())
        with pytest.raises(RuntimeError):
            env.run(process)

    def test_rpc_sharing_with_network(self, env):
        cluster_constants = ClusterConstants(servers=2, cores_per_server=8)
        cluster = Cluster(env, cluster_constants)
        network = ClusterNetwork(env, cluster_constants)
        for server_id in cluster.servers:
            network.register_server(server_id)
        platform = OpenWhiskPlatform(
            env, cluster, RandomStreams(5), sharing="rpc",
            cluster_network=network)
        parent_spec = FunctionSpec("parent")
        child_spec = FunctionSpec("child", image="other")

        def run():
            parent = yield env.process(platform.invoke(
                InvocationRequest(parent_spec, service_s=0.01,
                                  output_mb=1.0)))
            child = yield env.process(platform.invoke(
                InvocationRequest(child_spec, service_s=0.01,
                                  parent=parent,
                                  colocate_with_parent=False)))
            return child

        child = env.run(env.process(run()))
        assert child.data_share_s > 0


class TestIntraTaskParallelism:
    def test_parallel_speeds_up_task(self, env):
        platform = make_platform(env, servers=2)
        spec = FunctionSpec("slam")
        durations = {}

        def run(ways, key):
            start = env.now
            yield env.process(platform.invoke_parallel(
                InvocationRequest(spec, service_s=2.0, input_mb=8.0), ways))
            durations[key] = env.now - start

        env.run(env.process(run(1, "serial")))
        env.run(env.process(run(8, "parallel")))
        assert durations["parallel"] < durations["serial"]

    def test_parallel_validation(self, env):
        platform = make_platform(env)
        process = env.process(platform.invoke_parallel(
            InvocationRequest(FunctionSpec("f"), service_s=1.0), 0))
        with pytest.raises(ValueError):
            env.run(process)

    def test_parallel_returns_all_shards(self, env):
        platform = make_platform(env)
        spec = FunctionSpec("f")

        def run():
            shards = yield env.process(platform.invoke_parallel(
                InvocationRequest(spec, service_s=0.4), 4))
            return shards

        shards = env.run(env.process(run()))
        assert len(shards) == 4
        assert all(s.t_complete > 0 for s in shards)


class TestTracing:
    def test_tracer_records_invocations(self, env):
        platform = make_platform(env)
        spec = FunctionSpec("traced")

        def run():
            for _ in range(3):
                yield env.process(platform.invoke(
                    InvocationRequest(spec, service_s=0.05)))

        env.run(env.process(run()))
        records = platform.invocations
        assert len(records) == 3
        assert all(r.spec.name == "traced" for r in records)
        assert records[0].cold_start is True
        assert records[1].cold_start is False
        assert all(r.latency_s > 0 for r in records)
