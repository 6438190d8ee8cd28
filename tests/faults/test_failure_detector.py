"""FailureDetector edge cases: simultaneous failures, exhausted heirs,
late joiners."""

import pytest

from repro.config import DEFAULT
from repro.core import FailureDetector
from repro.edge import SwarmEngine, build_drone_swarm
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_swarm(env, seed=1):
    swarm = build_drone_swarm(env, DEFAULT, RandomStreams(seed))
    swarm.assign_regions(110, 110)
    SwarmEngine(env).add_heartbeats(swarm)
    return swarm


def total_area(swarm):
    return sum(r.area for regions in swarm.regions.values()
               for r in regions)


class TestSimultaneousFailures:
    def test_multi_device_failure_all_detected(self, env):
        swarm = make_swarm(env)
        before = total_area(swarm)
        for device_id in ("drone0002", "drone0007", "drone0011"):
            swarm.fail_device_at(device_id, at_time=10.0)
        detector = FailureDetector(env, swarm)
        env.run(until=25.0)
        assert {"drone0002", "drone0007", "drone0011"} <= set(
            detector.failed)
        assert detector.alive_count == len(swarm.devices) - 3
        # Their regions were inherited, not dropped: area is conserved
        # and no dead device holds a region.
        assert total_area(swarm) == pytest.approx(before)
        for dead in detector.failed:
            assert dead not in swarm.regions

    def test_survivors_not_flagged(self, env):
        swarm = make_swarm(env)
        swarm.fail_device_at("drone0000", at_time=5.0)
        swarm.fail_device_at("drone0001", at_time=5.0)
        detector = FailureDetector(env, swarm)
        env.run(until=20.0)
        assert set(detector.failed) == {"drone0000", "drone0001"}


class TestHeirBatteryExhaustion:
    def test_region_inherited_when_all_heirs_below_floor(self, env):
        swarm = make_swarm(env)
        before = total_area(swarm)
        # Drain every *other* device below the heir-battery floor.
        for device_id, device in swarm.devices.items():
            if device_id == "drone0003":
                continue
            account = device.energy
            drain_wh = account.remaining_wh * (
                1.0 - 0.5 * FailureDetector.MIN_HEIR_BATTERY)
            account.draw_energy("idle", drain_wh * 3600.0)
            assert account.remaining_fraction < \
                FailureDetector.MIN_HEIR_BATTERY
        detector = FailureDetector(env, swarm)
        swarm.fail_device_at("drone0003", at_time=5.0)
        env.run(until=15.0)
        assert "drone0003" in detector.failed
        # Relaxed eligibility kicked in: the dead device's area went to
        # tired-but-alive heirs instead of silently vanishing.
        assert "drone0003" not in swarm.regions
        assert total_area(swarm) == pytest.approx(before)

    def test_battery_floor_still_respected_when_heirs_exist(self, env):
        swarm = make_swarm(env)
        # One healthy heir, everyone else drained: the healthy heir (and
        # only it) should absorb extra area.
        ids = sorted(swarm.devices)
        healthy = ids[1]
        for device_id in ids[2:]:
            account = swarm.devices[device_id].energy
            account.draw_energy(
                "idle", account.remaining_wh * 0.97 * 3600.0)
        area_before = {d: sum(r.area for r in regions)
                       for d, regions in swarm.regions.items()}
        detector = FailureDetector(env, swarm)
        swarm.fail_device_at(ids[0], at_time=5.0)
        env.run(until=15.0)
        assert ids[0] in detector.failed
        drained_grew = [
            d for d in ids[2:]
            if sum(r.area for r in swarm.regions.get(d, ())) >
            area_before[d] + 1e-9]
        assert drained_grew == []


class TestLateJoiners:
    def test_detector_built_mid_mission_grants_grace(self, env):
        swarm = build_drone_swarm(env, DEFAULT, RandomStreams(1))
        swarm.assign_regions(110, 110)
        holder = {}

        def boot():
            # Heartbeats and detector both start at t=50: with last_beat
            # seeded at subscribe time the first check sees fresh beats;
            # epoch-zero seeding would declare the whole swarm dead.
            yield env.timeout(50.0)
            SwarmEngine(env).add_heartbeats(swarm)
            holder["detector"] = FailureDetector(env, swarm)

        env.process(boot())
        env.run(until=60.0)
        assert holder["detector"].failed == []

    def test_watch_registers_new_device_with_grace(self, env):
        swarm = make_swarm(env)
        detector = FailureDetector(env, swarm)
        env.run(until=10.0)
        # A device joins late and never heartbeats: it gets the full
        # timeout window from watch() before being declared dead.
        from repro.edge import Drone
        newcomer = Drone(env, "late0001", DEFAULT.drone)
        swarm.devices["late0001"] = newcomer
        detector.watch("late0001")
        assert detector.last_beat["late0001"] == 10.0
        env.run(until=12.0)
        assert "late0001" not in detector.failed
        env.run(until=20.0)
        assert "late0001" in detector.failed
        # Idempotent: re-watching must not reset an existing clock.
        before = detector.last_beat["drone0000"]
        detector.watch("drone0000")
        assert detector.last_beat["drone0000"] == before
