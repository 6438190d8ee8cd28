"""Tests for links, wireless medium, cluster network, and RPC transports."""

import pytest

from repro.apps import SUITE
from repro.config import DEFAULT, ClusterConstants, WirelessConstants
from repro.experiments import fig18_validation
from repro.network import (
    ClusterNetwork,
    EdgeCloudRpc,
    Link,
    SoftwareClusterRpc,
    WirelessNetwork,
    build_fabric,
)
from repro.network.rpc import push_processing_s
from repro.platforms import platform_config
from repro.platforms.stack import build_edge_rpc
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
        assert meter.megabytes.sum() == 5

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
        took = env.run(env.process(network.upload("d0", constants.ap_mbs)))
        (ap,) = network.access_points
        # One second of capacity serializes in one second, then propagates.
        assert took == pytest.approx(1.0 + ap.uplink.latency_s)


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
    def test_edge_push_one_way(self, env):
        network = WirelessNetwork(env, WirelessConstants(loss_rate=0.0))
        rpc = EdgeCloudRpc(env, network)
        seconds = env.run(env.process(rpc.push("d0", 2.0)))
        # Only the payload crosses the air; the push lasts until its ack.
        assert network.meter.megabytes.sum() == pytest.approx(2.0)
        assert seconds == pytest.approx(env.now)

    def test_software_cluster_rpc(self, env):
        cluster = ClusterNetwork(env, ClusterConstants())
        cluster.register_server("s0")
        cluster.register_server("s1")
        rpc = SoftwareClusterRpc(env, cluster)
        assert rpc.per_call_cpu_s == pytest.approx(
            2 * ClusterConstants().sw_rpc_overhead_s)
        elapsed = env.run(env.process(rpc.call("s0", "s1", 0.001, 0.001)))
        assert elapsed > rpc.per_call_cpu_s


class _Spans:
    """A trace context that keeps each span's duration by name."""

    def __init__(self):
        self.durations = {}

    def __bool__(self):
        return True

    def emit(self, name, layer, start, end, **_):
        self.durations[name] = end - start


class TestPushCost:
    """One definition prices an edge push: both transports and both fig18
    closed forms call :func:`push_processing_s`."""

    @pytest.mark.parametrize("megabytes", [0.0, 0.05, 8.0])
    def test_cost_is_the_old_inline_expressions(self, megabytes):
        software = 2.4e-3 + 0.12e-3 + 0.9e-3 * megabytes
        accelerated = 2.4e-3 + 0.12e-3 * 0.06 + 0.9e-3 * 0.25 * megabytes
        assert push_processing_s(megabytes) == software
        assert push_processing_s(megabytes, DEFAULT.accel) == accelerated

    @pytest.mark.parametrize("platform", ["hivemind", "centralized_faas"])
    def test_fig18_predicts_what_the_transport_charges(self, monkeypatch,
                                                       platform):
        config = platform_config(platform)
        priced = []

        def spy(megabytes, accel=None):
            priced.append((megabytes, accel))
            return push_processing_s(megabytes, accel)

        monkeypatch.setattr(fig18_validation, "push_processing_s", spy)
        app = SUITE["S1"]
        fig18_validation._predict(app, platform)
        fig18_validation._predict_edge(app, config)
        assert len(priced) == 2
        for megabytes, accel in priced:
            assert (accel is not None) == config.net_accel
            env = Environment()
            wireless = WirelessNetwork(env,
                                       WirelessConstants(loss_rate=0.0))
            rpc = build_edge_rpc(env, config, DEFAULT, wireless)
            spans = _Spans()
            env.run(env.process(rpc.push("d0", megabytes, trace=spans)))
            assert spans.durations["rpc_processing"] == push_processing_s(
                megabytes, accel)


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
