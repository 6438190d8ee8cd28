"""FailureDetector edge cases: simultaneous failures, exhausted heirs,
late joiners, and the exact instants at which failures are declared."""

import pytest

from repro.config import DEFAULT, ControlConstants, DroneConstants
from repro.core import FailureDetector
from repro.edge import Drone, Swarm
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def drone_swarm(env, seed=1):
    """The default drone fleet, one ``edge.drone{i}`` stream each."""
    streams = RandomStreams(seed)
    drones = [Drone(env, f"drone{i:04d}", DEFAULT.drone,
                    rng=streams.stream(f"edge.drone{i}"))
              for i in range(DEFAULT.drone.count)]
    return Swarm(env, drones, control=DEFAULT.control)


def make_swarm(env, seed=1):
    swarm = drone_swarm(env, seed)
    swarm.assign_regions(110, 110)
    return swarm


def small_swarm(env, ids, period):
    drones = [Drone(env, device_id, DroneConstants()) for device_id in ids]
    swarm = Swarm(env, drones,
                  control=ControlConstants(heartbeat_period_s=period))
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
        swarm = make_swarm(env)
        holder = {}

        def boot():
            # The detector starts at t=50 on a healthy swarm: no check
            # may declare a device that is alive.
            yield env.timeout(50.0)
            holder["detector"] = FailureDetector(env, swarm)

        env.process(boot())
        env.run(until=60.0)
        assert holder["detector"].failed == []

    def test_device_silent_before_a_late_detector_gets_one_timeout(
            self, env):
        # last_beat is seeded at construction (t=50), not at 0.0, so a
        # drone that died at t=49 is declared at the first check more
        # than 3 s later (t=54), not at the first check (t=51).
        swarm = make_swarm(env)
        swarm.fail_device_at("drone0000", at_time=49.0)
        holder = {}

        def boot():
            yield env.timeout(50.0)
            holder["detector"] = FailureDetector(env, swarm)

        env.process(boot())
        env.run(until=53.5)
        assert holder["detector"].failed == []
        env.run(until=54.5)
        assert holder["detector"].failed == ["drone0000"]


class TestDetectionInstants:
    """Pins ``(device_id, env.now)`` of every declaration.

    A 0.1 s period makes the check grid (each instant the previous one
    plus the period) drift off ``k * 0.1``, so a detector that samples
    liveness at other instants, or rounds them, moves these doubles."""

    #: Creation order differs from sorted order, so declarations made in
    #: sorted (or reversed) order fail the comparison.
    IDS = ("d2", "d0", "d3", "d1")
    PERIOD = 0.1

    @staticmethod
    def grid(period, n):
        instants, t = [], 0.0
        for _ in range(n):
            instants.append(t)
            t += period
        return instants

    def _declared(self, monkeypatch, fail_at, until=6.0):
        declared = []
        original = FailureDetector._declare_failed

        def spy(detector, device_id):
            declared.append((device_id, detector.env.now))
            original(detector, device_id)

        monkeypatch.setattr(FailureDetector, "_declare_failed", spy)
        env = Environment()
        swarm = small_swarm(env, self.IDS, self.PERIOD)
        detector = FailureDetector(env, swarm)
        for device_id, at_time in fail_at.items():
            swarm.fail_device_at(device_id, at_time=at_time)
        env.run(until=until)
        assert detector.failed == [device_id for device_id, _ in declared]
        return declared

    def test_grid_drifts(self):
        instants = self.grid(self.PERIOD, 60)
        assert any(t != k * self.PERIOD for k, t in enumerate(instants))

    def test_failure_between_grid_instants(self, monkeypatch):
        declared = self._declared(monkeypatch, {"d0": 1.25})
        # Last beat at 1.2 (grid index 12); the silence first exceeds
        # 3 s at index 42, whose accumulated value is 4.200000000000001.
        assert declared == [("d0", 4.200000000000001)]
        assert declared[0][1] == self.grid(self.PERIOD, 43)[42]

    def test_failure_on_a_grid_instant(self, monkeypatch):
        # The crash at index 12 lands before that instant's beat, so the
        # last beat is index 11 (1.0999999999999999) and the declaration
        # comes one grid instant earlier than for a crash at 1.25.
        at = self.grid(self.PERIOD, 13)[12]
        declared = self._declared(monkeypatch, {"d3": at})
        assert declared == [("d3", 4.100000000000001)]
        assert declared[0][1] == self.grid(self.PERIOD, 42)[41]

    def test_simultaneous_failures_declare_in_creation_order(
            self, monkeypatch):
        declared = self._declared(monkeypatch, {"d1": 2.05, "d2": 2.05})
        # Last beat at index 20 (2.0000000000000004); at index 50 the
        # silence is 2.9999999999999976, so both go at index 51.
        assert declared == [("d2", 5.099999999999998),
                            ("d1", 5.099999999999998)]
