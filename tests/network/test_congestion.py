"""Tests for the wireless congestion-collapse model."""

import pytest

from repro.config import WirelessConstants
from repro.network import Link, WirelessNetwork
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestContentionCollapse:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            Link(env, "l", 10, contention_penalty=-1)
        with pytest.raises(ValueError):
            Link(env, "l", 10, max_collapse=0.5)

    def test_no_penalty_when_unqueued(self, env):
        link = Link(env, "l", bandwidth_mbs=10, contention_penalty=0.1)

        def run():
            took = yield env.process(link.transfer(10))
            return took

        assert env.run(env.process(run())) == pytest.approx(1.0)

    def test_backlog_inflates_service(self, env):
        fast = Link(env, "clean", 10, contention_penalty=0.0)
        slow = Link(env, "congested", 10, contention_penalty=0.1)
        finish = {}

        def burst(link, label):
            done = []

            def one():
                yield env.process(link.transfer(5))
                done.append(env.now)

            for _ in range(10):
                env.process(one())
            finish[label] = done

        burst(fast, "clean")
        burst(slow, "congested")
        env.run()
        assert max(finish["congested"]) > max(finish["clean"])

    def test_collapse_is_capped(self, env):
        link = Link(env, "l", 10, contention_penalty=1.0, max_collapse=1.5)
        durations = []

        def one():
            took = yield env.process(link.transfer(10))
            durations.append(took)

        for _ in range(20):
            env.process(one())
        env.run()
        # Even the most-backlogged transfer serializes at most 1.5x slower
        # (plus queueing ahead of it).
        longest_service = durations[-1] - durations[-2] \
            if len(durations) > 1 else durations[0]
        assert longest_service <= 1.5 * 1.0 + 1e-6

    def test_wireless_inherits_collapse_settings(self, env):
        constants = WirelessConstants(contention_penalty=0.05,
                                      max_collapse=2.0)
        network = WirelessNetwork(env, constants)
        ap = network.attach("d0")
        assert ap.uplink.contention_penalty == 0.05
        assert ap.uplink.max_collapse == 2.0

    def test_goodput_degrades_past_saturation(self, env):
        """Offered load beyond capacity delivers less than capacity."""
        constants = WirelessConstants(access_points=1, loss_rate=0.0)
        network = WirelessNetwork(env, constants)
        horizon = 20.0

        def device(device_id):
            while env.now < horizon:
                yield env.process(network.upload(device_id, 20.0))

        for index in range(16):  # heavy oversubscription
            env.process(device(f"d{index}"))
        env.run(until=horizon * 3)
        delivered = network.meter.megabytes.sum() / env.now
        assert delivered < constants.ap_mbs  # collapse, not just saturation


class TestConservation:
    def test_meter_records_exactly_what_was_sent(self, env):
        """Byte conservation: the meter total equals the sum of payloads."""
        constants = WirelessConstants(access_points=2, loss_rate=0.0)
        network = WirelessNetwork(env, constants)
        payloads = [1.5, 4.0, 0.25, 16.0, 8.0]

        def device(index, mb):
            yield env.process(network.upload(f"d{index}", mb))

        for index, mb in enumerate(payloads):
            env.process(device(index, mb))
        env.run()
        assert network.meter.megabytes.sum() == pytest.approx(sum(payloads))

    def test_round_trip_meters_both_directions(self, env):
        constants = WirelessConstants(access_points=1, loss_rate=0.0)
        network = WirelessNetwork(env, constants)

        def device():
            yield env.process(network.upload("d0", 4.0))
            yield env.process(network.download("d0", 1.0))

        env.process(device())
        env.run()
        assert network.meter.megabytes.sum() == pytest.approx(5.0)
