"""Tests for the edge layer: world, camera, devices, drones, cars, swarm."""

import math

import numpy as np
import pytest

from repro.config import DEFAULT, CarConstants, DroneConstants
from repro.edge import (
    Camera,
    Drone,
    EdgeDevice,
    FieldWorld,
    RoboticCar,
    Swarm,
    SwarmEngine,
)
from repro.sim import Environment, RandomStreams

from tests.faults.test_failure_detector import make_swarm

from .test_engine_parity import digest, flight_evidence

NAN = float("nan")


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_device(env, rng=None, **overrides):
    defaults = dict(
        cpu_cores=1, battery_wh=11.1, motion_power_w=42.0,
        compute_power_w=6.5, compute_idle_w=1.2, radio_tx_w=4.2,
        radio_rx_w=1.4, radio_idle_w=0.35, cloud_to_edge_slowdown=9.0)
    defaults.update(overrides)
    return EdgeDevice(env, "dev0", rng=rng, **defaults)


class TestFieldWorld:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            FieldWorld(0, 10, rng)

    @pytest.mark.parametrize("width,height", [(NAN, 10), (10, NAN)])
    def test_nan_dimensions_rejected(self, rng, width, height):
        with pytest.raises(ValueError):
            FieldWorld(width, height, rng)

    @pytest.mark.parametrize("to_time", [NAN, math.inf])
    def test_non_finite_advance_rejected(self, rng, to_time):
        """A NaN clock used to freeze every walker for good."""
        world = FieldWorld(10, 10, rng)
        with pytest.raises(ValueError):
            world.advance(to_time)

    def test_place_items_inside_field(self, rng):
        world = FieldWorld(100, 50, rng)
        world.place_items(15)
        assert world.item_count == 15
        for x, y in world.items.values():
            assert 0 <= x <= 100 and 0 <= y <= 50

    def test_place_negative_rejected(self, rng):
        world = FieldWorld(10, 10, rng)
        with pytest.raises(ValueError):
            world.place_items(-1)
        with pytest.raises(ValueError):
            world.place_people(-1)

    def test_people_move_when_advanced(self, rng):
        world = FieldWorld(100, 100, rng)
        world.place_people(5)
        before = {p: world.people[p].position for p in world.people}
        world.advance(10.0)
        moved = sum(1 for p in world.people
                    if world.people[p].position != before[p])
        assert moved == 5

    def test_people_stay_inside_field(self, rng):
        world = FieldWorld(50, 50, rng)
        world.place_people(10)
        for t in range(1, 200, 10):
            world.advance(float(t))
        for person in world.people.values():
            assert 0 <= person.position[0] <= 50
            assert 0 <= person.position[1] <= 50

    def test_time_cannot_go_backwards(self, rng):
        world = FieldWorld(10, 10, rng)
        world.advance(5.0)
        with pytest.raises(ValueError):
            world.advance(4.0)

    def test_visibility_window(self, rng):
        world = FieldWorld(100, 100, rng)
        world.items[0] = (50.0, 50.0)
        world.items[1] = (90.0, 90.0)
        visible = world.visible_items((50, 50), 10, 10)
        assert visible == [0]


class TestCamera:
    def test_validation(self):
        with pytest.raises(ValueError):
            Camera(0, 2, 6.7, 8.75)
        with pytest.raises(ValueError):
            Camera(8, 2, 0, 8.75)

    @pytest.mark.parametrize("args", [
        (NAN, 2, 6.7, 8.75), (8, NAN, 6.7, 8.75), (8, 2, NAN, 8.75),
        (8, 2, 6.7, NAN)], ids=["fps", "frame_mb", "fov_width",
                                "fov_depth"])
    def test_nan_settings_rejected(self, args):
        with pytest.raises(ValueError):
            Camera(*args)

    def test_batch_size_matches_paper_default(self, rng):
        world = FieldWorld(100, 100, rng)
        camera = Camera(8, 2.0, 6.7, 8.75)
        batch = camera.capture_batch("d0", world, (50, 50), 0.0)
        assert batch.total_mb == 8 * 2.0

    def test_batch_sees_items_in_footprint(self, rng):
        world = FieldWorld(100, 100, rng)
        world.items[7] = (50.0, 51.0)
        camera = Camera(8, 2.0, 6.7, 8.75)
        batch = camera.capture_batch("d0", world, (50, 50), 0.0)
        assert 7 in batch.item_sightings

    def test_duration_validation(self, rng):
        camera = Camera(8, 2.0, 6.7, 8.75)
        world = FieldWorld(10, 10, rng)
        with pytest.raises(ValueError):
            camera.capture_batch("d0", world, (5, 5), 0.0, duration_s=0)


class TestEdgeDevice:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            make_device(env, cpu_cores=0)
        with pytest.raises(ValueError):
            make_device(env, cloud_to_edge_slowdown=0)

    def test_execute_applies_slowdown(self, env):
        device = make_device(env)  # no rng -> deterministic

        def run():
            spent = yield device.reserve(1.0)
            return spent

        assert env.run(env.process(run())) == pytest.approx(9.0)
        assert device.busy_compute_s == pytest.approx(9.0)

    def test_execute_charges_compute_energy(self, env):
        device = make_device(env)
        env.run(device.reserve(1.0))
        assert device.energy.by_category()["compute"] > 0

    def test_single_core_serializes_tasks(self, env):
        device = make_device(env)
        completions = []

        def task():
            yield device.reserve(1.0)
            completions.append(env.now)

        env.process(task())
        env.process(task())
        env.run()
        assert completions[1] == pytest.approx(18.0)

    def test_radio_accounting(self, env):
        device = make_device(env)
        device.account_tx(10.0)
        device.account_rx(5.0)
        assert device.radio_active_s == 15.0
        assert device.energy.by_category()["radio_tx"] > \
            device.energy.by_category()["radio_rx"]
        with pytest.raises(ValueError):
            device.account_tx(-1)

    def test_finalize_mission_charges_idle(self, env):
        device = make_device(env)
        device.start_mission()
        env.run(until=100.0)
        span = device.finalize_mission()
        assert span == pytest.approx(100.0)
        assert device.energy.by_category()["idle"] > 0

    def test_finalize_without_start_rejected(self, env):
        device = make_device(env)
        with pytest.raises(RuntimeError):
            device.finalize_mission()

    def test_two_core_overlap_with_failure_pin(self, env):
        """Two cores, six overlapping tasks, a crash mid-service at 0.7 s.

        Finish instants, compute energy and ``busy_compute_s`` were
        recorded when a blocking ``execute`` process did its own core
        claim and charge; the reservation must reproduce them. Only the
        two tasks done before the crash are charged.
        """
        device = make_device(env, rng=np.random.default_rng(7),
                             cpu_cores=2, cloud_to_edge_slowdown=2.0)
        finishes = []

        def task(delay, service):
            yield env.timeout(delay)
            spent = yield device.reserve(service)
            finishes.append((env.now, spent))

        for delay, service in ((0.0, 0.3), (0.1, 0.2), (0.15, 0.25),
                               (0.2, 0.1), (0.45, 0.05), (1.0, 0.1)):
            env.process(task(delay, service))

        def crash():
            yield env.timeout(0.7)
            device.fail()

        env.process(crash())
        env.run()
        assert finishes == [
            (0.5220985188836903, 0.42209851888369027),
            (0.6001328712727491, 0.6001328712727491),
            (0.7705093953785044, 0.17037652410575532),
            (0.8626512644711284, 0.09214186909262402),
            (0.9980249493570219, 0.4759264304733316),
            (1.1673054170368289, 0.167305417036829),
        ]
        assert device.energy.by_category()["compute"] == \
            0.0015049517688414246
        assert device.busy_compute_s == 1.0222313901564393


def fly_drone(env, world, route, kill_at=None):
    """Fly ``route`` through the SwarmEngine; return (drone, evidence).

    The digests below were recorded from both the engine and the
    retired per-tick flight process, which agreed on every case.
    """
    drone = Drone(env, "drone0", DroneConstants())
    batches = []
    if kill_at is not None:
        def killer():
            yield env.timeout(kill_at)
            drone.fail()
        env.process(killer())

    def run():
        count = yield SwarmEngine(env).fly_route(
            drone, route, world, on_batch=batches.append)
        return count

    count = env.run(env.process(run()))
    return drone, flight_evidence(env, drone, count, batches, world)


class TestDrone:
    def test_fly_route_captures_batches(self, env, rng):
        world = FieldWorld(100, 100, rng)
        drone, evidence = fly_drone(env, world, [(0, 0), (40, 0)])
        # 40 m at 4 m/s = 10 s of flight = 10 one-second batches.
        assert evidence["count"] == 10
        assert evidence["batch_mb"] == (16.0,) * 10
        assert drone.motion_s >= 10.0
        assert digest(evidence) == "238c467fe9561bed79dd0003cdabb965"

    def test_fly_route_charges_motion_energy(self, env, rng):
        world = FieldWorld(100, 100, rng)
        drone, evidence = fly_drone(env, world, [(0, 0), (20, 0)])
        assert drone.energy.by_category()["motion"] > 0
        assert digest(evidence) == "1827532a968d3d58b81a32b01ea53a05"

    def test_failed_drone_stops_flying(self, env, rng):
        world = FieldWorld(1000, 1000, rng)
        _, evidence = fly_drone(env, world, [(0, 0), (400, 0)],
                                kill_at=5.0)
        # 400 m would take 100 s; failure at 5 s stops the mission.
        assert env.now < 10.0
        assert digest(evidence) == "cfaf532176cc0db6550013a4f3f15190"

    def test_custom_resolution(self, env, rng):
        drone = Drone(env, "d", DroneConstants(), frame_mb=8.0, fps=32)
        assert drone.camera.frame_mb == 8.0
        assert drone.camera.fps == 32


class TestRoboticCar:
    def test_drive_to_adjacent_cell(self, env):
        car = RoboticCar(env, "car0", CarConstants())

        def run():
            took = yield env.process(car.drive_to_cell((1, 0)))
            return took

        took = env.run(env.process(run()))
        assert took == pytest.approx(RoboticCar.CELL_M /
                                     CarConstants().speed_mps)
        assert car.cell == (1, 0)

    def test_drive_to_non_adjacent_rejected(self, env):
        car = RoboticCar(env, "car0", CarConstants())
        process = env.process(car.drive_to_cell((2, 2)))
        with pytest.raises(ValueError):
            env.run(process)

    def test_cars_less_power_constrained_than_drones(self):
        car, drone = CarConstants(), DroneConstants()
        assert car.battery_wh > drone.battery_wh
        assert car.motion_power_w < drone.motion_power_w


class TestSwarm:
    def test_empty_swarm_rejected(self, env):
        with pytest.raises(ValueError):
            Swarm(env, [])

    def test_duplicate_ids_rejected(self, env):
        drones = [Drone(env, "same", DroneConstants()) for _ in range(2)]
        with pytest.raises(ValueError):
            Swarm(env, drones)

    def test_assign_regions_covers_field(self, env):
        swarm = make_swarm(env)
        total = sum(r.area for regions in swarm.regions.values()
                    for r in regions)
        assert total == pytest.approx(110 * 110)

