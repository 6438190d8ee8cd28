"""Tests for the remote-memory and RPC-offload fabrics."""

import pytest

from repro.config import AccelerationConstants, WirelessConstants
from repro.hardware import (
    AcceleratedClusterRpc,
    AcceleratedEdgeRpc,
    RemoteMemoryFabric,
)
from repro.network import EdgeCloudRpc, WirelessNetwork
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestRemoteMemory:
    def test_write_then_read(self, env):
        fabric = RemoteMemoryFabric(env)

        def run():
            handle = yield env.process(fabric.write("server0", 4.0))
            assert fabric.exists(handle)
            assert fabric.home_of(handle) == "server0"
            size = yield env.process(fabric.read("server3", handle))
            return size

        assert env.run(env.process(run())) == 4.0
        assert fabric.reads == 1 and fabric.writes == 1

    def test_read_unknown_handle(self, env):
        fabric = RemoteMemoryFabric(env)
        process = env.process(fabric.read("server0", "nope"))
        with pytest.raises(KeyError):
            env.run(process)

    def test_transfer_time_far_below_couchdb(self, env):
        """The fabric must be orders of magnitude faster than CouchDB."""
        fabric = RemoteMemoryFabric(env)

        def run():
            handle = yield env.process(fabric.write("server0", 1.0))
            yield env.process(fabric.read("server1", handle))
            return env.now

        took = env.run(env.process(run()))
        # Two fabric ops on 1 MB: ~0.25 ms; CouchDB would be tens of ms.
        assert took < 0.002

    def test_eviction_and_accounting(self, env):
        fabric = RemoteMemoryFabric(env)

        def run():
            handle = yield env.process(fabric.write("server0", 2.0))
            return handle

        handle = env.run(env.process(run()))
        assert fabric.object_count == 1
        assert fabric.resident_mb == 2.0
        fabric.evict(handle)
        assert fabric.object_count == 0
        fabric.evict(handle)  # idempotent


class TestAcceleratedRpc:
    def test_paper_rtt_for_small_rpc(self, env):
        rpc = AcceleratedClusterRpc(env)

        def run():
            result = yield env.process(rpc.call("s0", "s1", 64e-6, 64e-6))
            return result

        result = env.run(env.process(run()))
        # 2.1 us RTT plus tiny payload time: stays within ~3 us.
        assert result.total_s < 3.5e-6
        assert rpc.calls == 1

    def test_loopback_has_no_wire_time(self, env):
        rpc = AcceleratedClusterRpc(env)

        def run():
            result = yield env.process(rpc.call("s0", "s0", 1.0, 1.0))
            return result

        assert env.run(env.process(run())).wire_s == 0.0

    def test_residual_cpu_far_below_software(self, env):
        rpc = AcceleratedClusterRpc(env)
        assert rpc.per_call_cpu_s < 0.1 * 2 * 45e-6

    def test_throughput_bound(self, env):
        """Back-to-back small RPCs cannot exceed the 12.4 Mrps engine."""
        rpc = AcceleratedClusterRpc(env)
        n_calls = 1000

        def caller():
            yield env.process(rpc.call("s0", "s1", 64e-6, 64e-6))

        for _ in range(n_calls):
            env.process(caller())
        env.run()
        min_time = n_calls / (AccelerationConstants().accel_mrps * 1e6)
        assert env.now >= min_time

    def test_accelerated_edge_rpc_cheaper_processing(self, env):
        wireless = WirelessNetwork(env, WirelessConstants(loss_rate=0.0))
        software = EdgeCloudRpc(env, wireless)
        accelerated = AcceleratedEdgeRpc(env, wireless)

        def run(rpc):
            result = yield env.process(rpc.call("d0", 2.0, 0.01))
            return result

        soft_result = env.run(env.process(run(software)))
        accel_result = env.run(env.process(run(accelerated)))
        assert accel_result.processing_s < soft_result.processing_s
