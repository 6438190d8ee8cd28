"""Tests for the remote-memory fabric and the edge RPC offload."""

import pytest

from repro.config import AccelerationConstants
from repro.hardware import RemoteMemoryFabric
from repro.network.rpc import push_processing_s
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestRemoteMemory:
    def test_write_then_read(self, env):
        fabric = RemoteMemoryFabric(env)

        def run():
            handle = yield env.process(fabric.write("server0", 4.0))
            assert fabric.object_count == 1
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
    def test_accelerated_edge_rpc_cheaper_processing(self):
        assert (push_processing_s(2.0, AccelerationConstants())
                < push_processing_s(2.0))
