"""Tests for links, wireless medium, cluster network, and RPC transports."""

import pytest

from repro.config import DEFAULT, ClusterConstants, WirelessConstants
from repro.network import (
    ClusterNetwork,
    EdgeCloudRpc,
    Link,
    SoftwareClusterRpc,
    WirelessNetwork,
    build_fabric,
)
from repro.sim import Environment, RandomStreams
from repro.telemetry import BandwidthMeter


@pytest.fixture
def env():
    return Environment()


class TestLink:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            Link(env, "l", bandwidth_mbs=0)
        with pytest.raises(ValueError):
            Link(env, "l", 10, latency_s=-1)
        with pytest.raises(ValueError):
            Link(env, "l", 10, loss_rate=1.0)

    def test_serialization_time(self, env):
        link = Link(env, "l", bandwidth_mbs=100)
        assert link.serialization_time(50) == pytest.approx(0.5)

    def test_loss_inflates_serialization(self, env):
        lossy = Link(env, "l", 100, loss_rate=0.5)
        assert lossy.serialization_time(50) == pytest.approx(1.0)

    def test_transfer_takes_serialization_plus_latency(self, env):
        link = Link(env, "l", bandwidth_mbs=10, latency_s=0.5)

        def sender():
            took = yield env.process(link.transfer(20))
            return took

        took = env.run(env.process(sender()))
        assert took == pytest.approx(2.5)

    def test_transfers_serialize_fifo(self, env):
        link = Link(env, "l", bandwidth_mbs=10)
        finish_times = []

        def sender():
            yield env.process(link.transfer(10))
            finish_times.append(env.now)

        env.process(sender())
        env.process(sender())
        env.run()
        assert finish_times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_meter_records(self, env):
        meter = BandwidthMeter()
        link = Link(env, "l", 10, meter=meter)
        env.run(env.process(link.transfer(5)))
        assert meter.total_mb == 5

    def test_busy_fraction(self, env):
        link = Link(env, "l", bandwidth_mbs=10)
        env.run(env.process(link.transfer(10)))  # busy 1s
        assert link.busy_fraction(2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            link.busy_fraction(0)

    def test_negative_size_rejected(self, env):
        link = Link(env, "l", 10)
        process = env.process(link.transfer(-1))
        with pytest.raises(ValueError):
            env.run(process)


class TestWireless:
    def test_round_robin_attachment(self, env):
        network = WirelessNetwork(env, WirelessConstants(access_points=2))
        ap_a = network.attach("d0")
        ap_b = network.attach("d1")
        ap_c = network.attach("d2")
        assert ap_a is not ap_b
        assert ap_a is ap_c  # wraps around
        assert network.attach("d0") is ap_a  # stable

    def test_upload_duration_scales_with_size(self, env):
        constants = WirelessConstants(access_points=1, loss_rate=0.0)
        durations = []

        def uploader(network, mb):
            took = yield network.env.process(network.upload("d0", mb))
            durations.append(took)

        for mb in (1, 100):
            fresh_env = Environment()
            network = WirelessNetwork(fresh_env, constants)
            fresh_env.process(uploader(network, mb))
            fresh_env.run()
        assert durations[1] > durations[0]

    def test_saturation_queues(self, env):
        """Offered load beyond AP capacity must produce queueing delay."""
        constants = WirelessConstants(access_points=1, loss_rate=0.0)
        network = WirelessNetwork(env, constants)
        per_transfer = 50.0  # MB; ~0.46s each at 108.375 MB/s
        durations = []

        def device(device_id):
            took = yield env.process(network.upload(device_id, per_transfer))
            durations.append(took)

        for i in range(10):
            env.process(device("d0"))  # same AP, concurrent
        env.run()
        base = per_transfer / constants.ap_mbs
        assert max(durations) > 5 * base  # the last one queued a while

    def test_total_capacity(self, env):
        constants = WirelessConstants(access_points=2, ap_mbps=800)
        expected = 2 * 100.0 * constants.mac_efficiency
        assert constants.total_mbs == pytest.approx(expected)

    def test_utilization(self, env):
        constants = WirelessConstants(access_points=1, loss_rate=0.0)
        network = WirelessNetwork(env, constants)
        env.run(env.process(network.upload("d0", constants.ap_mbs)))
        assert network.utilization(2.0) == pytest.approx(0.5)


class TestClusterNetwork:
    def test_register_and_duplicate(self, env):
        network = ClusterNetwork(env, ClusterConstants())
        network.register_server("s0")
        assert network.has_server("s0")
        with pytest.raises(ValueError):
            network.register_server("s0")

    def test_transfer_unknown_server(self, env):
        network = ClusterNetwork(env, ClusterConstants())
        network.register_server("s0")
        process = env.process(network.transfer("s0", "nope", 1))
        with pytest.raises(KeyError):
            env.run(process)

    def test_loopback_is_free(self, env):
        network = ClusterNetwork(env, ClusterConstants())
        network.register_server("s0")

        def run():
            took = yield env.process(network.transfer("s0", "s0", 100))
            return took

        assert env.run(env.process(run())) == 0.0

    def test_cross_server_transfer_timing(self, env):
        constants = ClusterConstants(nic_mbps=8000, tor_mbps=80000,
                                     tor_latency_s=0)
        network = ClusterNetwork(env, constants)
        network.register_server("s0")
        network.register_server("s1")

        def run():
            took = yield env.process(network.transfer("s0", "s1", 1000))
            return took

        # 1000 MB over 1000MB/s NIC twice + 10000MB/s ToR once.
        assert env.run(env.process(run())) == pytest.approx(2.1)


class TestRpc:
    def test_edge_cloud_rpc_result(self, env):
        network = WirelessNetwork(env, WirelessConstants(loss_rate=0.0))
        rpc = EdgeCloudRpc(env, network)

        def run():
            result = yield env.process(rpc.call("d0", 2.0, 0.01))
            return result

        result = env.run(env.process(run()))
        assert result.total_s == pytest.approx(
            result.wire_s + result.processing_s)
        assert result.request_mb == 2.0

    def test_edge_push_one_way(self, env):
        network = WirelessNetwork(env, WirelessConstants(loss_rate=0.0))
        rpc = EdgeCloudRpc(env, network)

        def run():
            result = yield env.process(rpc.push("d0", 2.0))
            return result

        result = env.run(env.process(run()))
        assert result.response_mb == 0.0

    def test_software_cluster_rpc(self, env):
        cluster = ClusterNetwork(env, ClusterConstants())
        cluster.register_server("s0")
        cluster.register_server("s1")
        rpc = SoftwareClusterRpc(env, cluster)
        assert rpc.per_call_cpu_s == pytest.approx(
            2 * ClusterConstants().sw_rpc_overhead_s)

        def run():
            result = yield env.process(rpc.call("s0", "s1", 0.001, 0.001))
            return result

        result = env.run(env.process(run()))
        assert result.total_s > 0
        assert result.processing_s == rpc.per_call_cpu_s


class TestFabric:
    def test_build_fabric_registers_servers(self, env):
        fabric = build_fabric(env, DEFAULT, RandomStreams(1))
        servers = DEFAULT.cluster.servers
        assert all(fabric.cluster.has_server(f"server{index}")
                   for index in range(servers))
        assert not fabric.cluster.has_server(f"server{servers}")

    def test_fabric_wireless_matches_constants(self, env):
        fabric = build_fabric(env, DEFAULT, RandomStreams(1))
        assert len(fabric.wireless.access_points) == \
            DEFAULT.wireless.access_points
