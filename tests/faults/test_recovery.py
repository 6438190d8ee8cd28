"""Cloud-side recovery: crash-requeue, cancellation, outage windows,
and the RPC retry layer."""

import pytest

from repro.cluster import Cluster
from repro.config import DEFAULT, ClusterConstants
from repro.faults import InvariantChecker, RecoveryLog
from repro.network import (
    EdgeCloudRpc,
    NetworkPartitioned,
    ReliableEdgeRpc,
    RpcTimeout,
    build_fabric,
)
from repro.serverless import (
    ActivationCancelled,
    FunctionSpec,
    InvocationRequest,
    OpenWhiskPlatform,
)
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_platform(env, servers=3, **kwargs):
    cluster = Cluster(env, ClusterConstants(servers=servers,
                                            cores_per_server=8))
    return OpenWhiskPlatform(env, cluster, RandomStreams(11), **kwargs)


def _start_invocation(env, platform, service_s=3.0):
    spec = FunctionSpec("victim")
    request = InvocationRequest(spec, service_s=service_s, input_mb=1.0)
    process = env.process(platform.invoke(request))
    return request, process


def _executing_server(platform):
    """The server id of the (single) in-flight activation, once placed."""
    for invoker in platform.invokers:
        if invoker._active:
            return invoker.server.server_id
    return None


class TestInvokerCrashMidActivation:
    def test_requeued_activation_completes(self, env):
        platform = make_platform(env)
        checker = InvariantChecker(env)
        platform.add_completion_listener(checker.invocation_finished)
        request, process = _start_invocation(env, platform, service_s=3.0)
        # Let the activation get placed and start executing, then kill
        # its invoker daemon.
        env.run(until=2.0)
        victim_server = _executing_server(platform)
        assert victim_server is not None
        requeued = platform.crash_invoker(victim_server)
        assert requeued == 1
        invocation = env.run(process)
        assert invocation.t_complete > 0
        assert invocation.requeues == 1
        assert platform.requeues == 1
        # The retry ran on a surviving invoker, not the dead one.
        assert invocation.server_id != victim_server
        # Exactly one completion record despite the requeue.
        assert len(platform.invocations) == 1
        assert checker.ok

    def test_crash_between_delivery_and_start_is_requeued(self, env):
        platform = make_platform(env)
        request, process = _start_invocation(env, platform, service_s=1.0)
        # Crash at the first instant an invoker holds the message: the
        # handler may not have run yet (same-instant crash), which must
        # requeue rather than hang or double-run.
        def crasher():
            while _executing_server(platform) is None:
                yield env.timeout(0.01)
            platform.crash_invoker(_executing_server(platform))
        env.process(crasher())
        invocation = env.run(process)
        assert invocation.requeues == 1
        assert len(platform.invocations) == 1

    @pytest.mark.parametrize("stage", ["cold_start", "compute"])
    def test_crash_frees_the_core_and_memory(self, env, stage):
        """A crash mid cold start (memory held, no core) or mid compute
        (memory and a core) gives both back to the server."""
        platform = make_platform(env, servers=2)
        request, process = _start_invocation(env, platform, service_s=5.0)
        seen = {}

        def crasher():
            while True:
                server_id = _executing_server(platform)
                if server_id is not None:
                    server = platform.invoker_of(server_id).server
                    held = server.free_memory_mb < server.memory_capacity_mb
                    computing = server.utilization > 0
                    if held and computing == (stage == "compute"):
                        break
                yield env.timeout(0.001)
            seen["server"] = server
            platform.crash_invoker(server_id)

        env.process(crasher())
        invocation = env.run(process)
        server = seen["server"]
        assert invocation.requeues == 1
        assert invocation.server_id != server.server_id
        assert server.utilization == 0
        assert server.free_memory_mb == server.memory_capacity_mb

    def test_restore_reenables_invoker(self, env):
        platform = make_platform(env, servers=2)
        server_id = platform.invokers[0].server.server_id
        platform.crash_invoker(server_id)
        assert not platform.invokers[0].alive
        platform.restore_invoker(server_id)
        assert platform.invokers[0].alive

    def test_recovery_log_times_the_requeue(self, env):
        platform = make_platform(env)
        log = RecoveryLog(env)
        platform.recovery_log = log
        request, process = _start_invocation(env, platform, service_s=3.0)
        env.run(until=2.0)
        platform.crash_invoker(_executing_server(platform))
        env.run(process)
        assert log.counts_by_kind() == {"requeue": 1}
        (latency,) = log.latencies()
        assert latency > 0


class TestServerCrash:
    def test_crash_kills_server_and_requeues(self, env):
        platform = make_platform(env)
        request, process = _start_invocation(env, platform, service_s=3.0)
        env.run(until=2.0)
        victim = _executing_server(platform)
        platform.crash_server(victim)
        assert not platform.invoker_of(victim).server.alive
        invocation = env.run(process)
        assert invocation.server_id != victim
        assert invocation.requeues == 1

    def test_scheduler_avoids_dead_servers(self, env):
        platform = make_platform(env, servers=3)
        dead = platform.invokers[0].server.server_id
        platform.crash_server(dead)
        spec = FunctionSpec("f")
        for _ in range(6):
            placement = platform.scheduler.place(
                InvocationRequest(spec, service_s=0.1))
            assert placement.invoker.server.server_id != dead


class TestCancellation:
    def test_cancel_mid_execution_fails_done(self, env):
        platform = make_platform(env)
        request, process = _start_invocation(env, platform, service_s=3.0)
        env.run(until=2.0)
        assert platform.cancel_invocation(request.inflight)
        with pytest.raises(ActivationCancelled):
            env.run(process)
        assert platform.cancellations == 1
        # A reaped activation leaves no completion record.
        assert len(platform.invocations) == 0

    def test_cancel_unplaced_invocation_is_noop(self, env):
        from repro.serverless import Invocation
        platform = make_platform(env)
        spec = FunctionSpec("f")
        request = InvocationRequest(spec, service_s=0.1)
        assert not platform.cancel_invocation(
            Invocation(request=request, invocation_id=0, t_arrive=0.0))

    def test_cancel_frees_the_core_and_memory(self, env):
        platform = make_platform(env, servers=1)
        request, process = _start_invocation(env, platform, service_s=5.0)
        env.run(until=2.0)
        server = platform.invokers[0].server
        assert server.utilization > 0
        platform.cancel_invocation(request.inflight)
        with pytest.raises(ActivationCancelled):
            env.run(process)
        env.run()  # drain the interrupt's cleanup
        assert server.utilization == 0
        assert server.free_memory_mb == server.memory_capacity_mb


class TestOutageWindows:
    def test_couchdb_outage_stalls_service(self, env):
        platform = make_platform(env)
        platform.couchdb.set_outage(10.0)

        def op():
            took = yield from platform.couchdb.access(0.5)
            return took

        env.run(env.process(op()))
        assert env.now >= 10.0

    def test_kafka_outage_stalls_publish(self, env):
        platform = make_platform(env)
        platform.kafka.set_outage(8.0)
        delivered = []
        platform.kafka.subscribe("probe", delivered.append)

        def op():
            yield from platform.kafka.publish("probe", "m")

        env.run(env.process(op()))
        assert env.now >= 8.0
        assert delivered == ["m"]

    def test_outage_windows_merge(self, env):
        platform = make_platform(env)
        platform.couchdb.set_outage(10.0)
        platform.couchdb.set_outage(6.0)  # shorter request cannot shrink
        assert platform.couchdb._outage_until == 10.0


class _ShortRetryRpc(ReliableEdgeRpc):
    MAX_ATTEMPTS = 3
    BASE_BACKOFF_S = 0.1
    ATTEMPT_TIMEOUT_S = 0.2
    TOTAL_BUDGET_S = 2.0


class TestRpcRetry:
    def _rpc(self, env, rpc_class=ReliableEdgeRpc, log=None):
        fabric = build_fabric(env, DEFAULT, RandomStreams(5))
        inner = EdgeCloudRpc(env, fabric.wireless)
        return fabric.wireless, rpc_class(env, inner, recovery_log=log)

    def test_transparent_when_healthy(self, env):
        _, rpc = self._rpc(env)

        def op():
            seconds = yield from rpc.push("d0", 2.0)
            return seconds

        assert env.run(env.process(op())) > 0
        assert rpc.retries == 0

    def test_retry_succeeds_after_heal(self, env):
        log = RecoveryLog(env)
        wireless, rpc = self._rpc(env, log=log)
        wireless.set_partitioned(True)

        def healer():
            yield env.timeout(2.0)
            wireless.set_partitioned(False)

        def op():
            seconds = yield from rpc.push("d0", 2.0)
            return seconds

        env.process(healer())
        assert env.run(env.process(op())) > 0
        assert rpc.retries >= 1
        assert env.now > 2.0
        assert log.counts_by_kind() == {"rpc_retry": 1}
        assert log.latencies()[0] > 0

    def test_exhausted_budget_raises_timeout(self, env):
        wireless, rpc = self._rpc(
            env, rpc_class=_ShortRetryRpc)
        wireless.set_partitioned(True)  # never heals

        def op():
            yield from rpc.push("d0", 2.0)

        with pytest.raises(RpcTimeout) as info:
            env.run(env.process(op()))
        assert info.value.attempts == 3

    def test_partition_raises_synchronously(self, env):
        fabric = build_fabric(env, DEFAULT, RandomStreams(5))
        fabric.wireless.set_partitioned(True)

        def op():
            yield from fabric.wireless.upload("d0", 1.0)

        with pytest.raises(NetworkPartitioned):
            env.run(env.process(op()))

    def test_heal_listener_fires_on_close(self, env):
        fabric = build_fabric(env, DEFAULT, RandomStreams(5))
        fired = []
        fabric.wireless.add_heal_listener(lambda: fired.append(env.now))
        fabric.wireless.set_partitioned(True)
        fabric.wireless.set_partitioned(True)  # idempotent while open
        fabric.wireless.set_partitioned(False)
        assert fired == [0.0]
