"""Tests for serverless building blocks: functions, containers, CouchDB,
Kafka, data sharing."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants, ServerlessConstants
from repro.hardware import RemoteMemoryFabric
from repro.serverless import (
    ContainerState,
    CouchDB,
    CouchDBSharing,
    FunctionContainer,
    FunctionSpec,
    InMemorySharing,
    InvocationRequest,
    KafkaBus,
    OpenWhiskPlatform,
    RemoteMemorySharing,
)
from repro.sim import Environment, RandomStreams
from repro.sim.kernel import events_consumed


@pytest.fixture
def env():
    return Environment()


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="")
        with pytest.raises(ValueError):
            FunctionSpec(name="f", memory_mb=0)

    def test_request_validation(self):
        spec = FunctionSpec("f")
        with pytest.raises(ValueError):
            InvocationRequest(spec, service_s=-1)
        with pytest.raises(ValueError):
            InvocationRequest(spec, service_s=1, input_mb=-1)


class TestContainer:
    def test_lifecycle(self):
        container = FunctionContainer(0, "s0", "image-a", 256)
        assert container.state is ContainerState.COLD_STARTING
        container.mark_running()
        assert container.state is ContainerState.RUNNING
        container.mark_warm(now=10.0, keepalive_s=20.0)
        assert container.is_warm(now=15.0)
        assert not container.is_warm(now=31.0)
        assert container.is_expired(now=31.0)

    def test_warm_requires_running(self):
        container = FunctionContainer(0, "s0", "image-a", 256)
        with pytest.raises(RuntimeError):
            container.mark_warm(0, 10)

    def test_terminated_cannot_run(self):
        container = FunctionContainer(0, "s0", "image-a", 256)
        container.mark_terminated()
        with pytest.raises(RuntimeError):
            container.mark_running()

    def test_compatibility(self):
        container = FunctionContainer(0, "s0", "image-a", 256)
        assert container.compatible_with(FunctionSpec("f", image="image-a"))
        assert not container.compatible_with(
            FunctionSpec("f", image="image-b"))
        assert not container.compatible_with(
            FunctionSpec("f", memory_mb=512, image="image-a"))

    def test_unique_ids(self):
        """Containers one platform cold-starts on different invokers
        draw distinct ids from the platform's shared counter, and a
        second platform starts its own count."""

        def container_ids():
            env = Environment()
            cluster = Cluster(env, ClusterConstants(servers=3,
                                                    cores_per_server=2))
            platform = OpenWhiskPlatform(env, cluster, RandomStreams(4))
            for index in range(9):
                env.process(platform.invoke(InvocationRequest(
                    FunctionSpec(f"f{index}", image=f"i{index}"),
                    service_s=0.5)))
            env.run()
            return [inv.container_id for inv in platform.invocations]

        first = container_ids()
        assert sorted(first) == sorted(f"c{n}" for n in range(9))
        assert container_ids() == first


class TestCouchDB:
    def test_access_cost_scales_with_size(self, env):
        db = CouchDB(env, ServerlessConstants())
        durations = []

        def run(mb):
            took = yield env.process(db.access(mb))
            durations.append(took)

        env.run(env.process(run(0.1)))
        env.run(env.process(run(50.0)))
        assert durations[1] > durations[0]

    def test_negative_size_rejected(self, env):
        db = CouchDB(env)
        process = env.process(db.access(-1))
        with pytest.raises(ValueError):
            env.run(process)

    def test_authentication_cost(self, env):
        """The auth check is a claim on the store's virtual clocks: on
        an idle store it ends one auth pass from now, and the k+1-th
        concurrent claim waits for the earliest pass to end."""
        constants = ServerlessConstants()
        db = CouchDB(env, constants)
        auth = constants.auth_check_s
        before = events_consumed()
        ends = [db.claim(auth) for _ in range(CouchDB.CONCURRENCY + 1)]
        assert ends[:-1] == [auth] * CouchDB.CONCURRENCY
        assert ends[-1] == auth + auth
        assert events_consumed() == before and not env._queue

    def test_store(self, env):
        db = CouchDB(env)
        took = env.run(env.process(db.store("result", 4.0)))
        assert took > 0
        assert db.has_document("result")
        assert db.document_count == 1

    def test_pareto_tail_present(self, env):
        """With an RNG the latency distribution must be tail-heavy."""
        db = CouchDB(env, rng=RandomStreams(3).stream("couch"))
        samples = []

        def run():
            for _ in range(400):
                took = yield env.process(db.access(0.1))
                samples.append(took)

        env.run(env.process(run()))
        import numpy as np
        p99 = np.percentile(samples, 99)
        median = np.percentile(samples, 50)
        assert p99 > 2.0 * median


class TestKafka:
    def test_publish_consume(self, env):
        bus = KafkaBus(env)
        received = []
        bus.subscribe("activations",
                      lambda message: received.append((env.now, message)))

        def producer():
            yield env.process(bus.publish("activations", {"id": 1}))

        env.process(producer())
        env.run()
        assert received[0][1] == {"id": 1}
        assert received[0][0] == pytest.approx(
            ServerlessConstants().kafka_hop_s)
        assert bus.published == 1

    def test_publish_without_subscriber_rejected(self, env):
        bus = KafkaBus(env)
        with pytest.raises(KeyError):
            env.run(env.process(bus.publish("nowhere", "m")))
        assert bus.published == 0

    def test_second_subscriber_rejected(self, env):
        bus = KafkaBus(env)
        bus.subscribe("t", lambda message: None)
        with pytest.raises(ValueError):
            bus.subscribe("t", lambda message: None)


class TestDataSharing:
    def test_couchdb_slowest_inmem_fastest(self, env):
        """Fig 6c ordering: CouchDB > RPC > in-memory latency."""
        db = CouchDB(env, ServerlessConstants())
        couch = CouchDBSharing(env, db)
        inmem = InMemorySharing(env)
        remote = RemoteMemorySharing(env, RemoteMemoryFabric(env))
        durations = {}

        def run(name, protocol, src, dst):
            took = yield env.process(protocol.share(src, dst, 1.0))
            durations[name] = took

        env.run(env.process(run("couch", couch, "s0", "s1")))
        env.run(env.process(run("inmem", inmem, "s0", "s0")))
        env.run(env.process(run("remote", remote, "s0", "s1")))
        assert durations["couch"] > durations["remote"] > durations["inmem"]

    def test_inmem_requires_same_server(self, env):
        inmem = InMemorySharing(env)
        process = env.process(inmem.share("s0", "s1", 1.0))
        with pytest.raises(ValueError):
            env.run(process)
