"""SwarmEngine flight pins: the one flight path, held to recorded digests.

Flight used to have two implementations: the engine and a per-device
tick process per drone. The two agreed byte-for-byte at fixed seeds
(positions, timings, batch counts, heartbeat streams, per-device energy
ledgers, full scenario rows), and the md5 digests recorded from both
before the tick path was deleted are pinned here as the exactness
contract. A digest that moves means the engine's flight arithmetic or
dispatch order changed. Heartbeats are no longer messages: the failure
detector samples liveness on the beat grid, and its declaration instants
are pinned in ``tests/faults/test_failure_detector.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import SCENARIO_A
from repro.config import DroneConstants
from repro.edge import Drone, FieldWorld, SwarmEngine
from repro.platforms import platform_config
from repro.platforms.scenario_runner import ScenarioRunner
from repro.sim import Environment
from repro.sim.kernel import events_consumed


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


def fly(waypoints, kill_at=None, world_seed=7):
    """Fly one route through the SwarmEngine; return its evidence."""
    env = Environment()
    engine = SwarmEngine(env)
    world = FieldWorld(1000, 1000, np.random.default_rng(world_seed))
    drone = Drone(env, "d0", DroneConstants())
    batches = []
    if kill_at is not None:
        def killer():
            yield env.timeout(kill_at)
            drone.fail()
        env.process(killer())

    def run():
        count = yield engine.fly_route(
            drone, waypoints, world, on_batch=batches.append)
        return count

    count = env.run(env.process(run()))
    return flight_evidence(env, drone, count, batches)


def _plain(point):
    # The engine stores positions as numpy float64; digest the values.
    return (float(point[0]), float(point[1]))


def flight_evidence(env, drone, count, batches, world=None):
    """Everything a flight leaves behind, as a digestible dict; with
    ``world``, also the batch sizes and the world clock."""
    evidence = {
        "finish_time": env.now,
        "count": count,
        "batch_times": tuple(b.time for b in batches),
        "batch_positions": tuple(_plain(b.position) for b in batches),
        "position": _plain(drone.position),
        "motion_s": drone.motion_s,
        "energy": tuple(sorted(drone.energy.by_category().items())),
        "alive": drone.alive,
    }
    if world is not None:
        evidence["batch_mb"] = tuple(b.total_mb for b in batches)
        evidence["world_clock"] = world._clock
    return evidence


class TestRouteParity:
    def test_single_leg(self):
        evidence = fly([(0.0, 0.0), (40.0, 0.0)])
        assert digest(evidence) == "ef3083710fdab19999c542a5c8378965"

    def test_multi_leg_with_turns(self):
        evidence = fly(
            [(0.0, 0.0), (40.0, 0.0), (40.0, 30.0), (3.0, 30.0)])
        assert digest(evidence) == "d0fefc4226bd4f3e8a41b40a5c8eb552"

    def test_diagonal_fractional_legs(self):
        # Leg lengths that do not divide evenly into 1 s ticks.
        evidence = fly([(0.0, 0.0), (11.3, 7.9), (2.2, 19.47)])
        assert digest(evidence) == "2e6e8dec670ede1a6ad28325dded45c9"

    def test_zero_length_leg(self):
        evidence = fly(
            [(0.0, 0.0), (8.0, 0.0), (8.0, 0.0), (8.0, 12.0)])
        assert digest(evidence) == "e354fa4060962ada53c9280416249117"

    def test_failure_mid_route(self):
        evidence = fly([(0.0, 0.0), (400.0, 0.0)], kill_at=5.3)
        assert digest(evidence) == "05ce3cde16e5d54ada919f490fe69246"
        assert not evidence["alive"]
        # The in-flight tick still lands before the route ends.
        assert evidence["finish_time"] == 6.0

    def test_empty_route(self):
        env = Environment()
        engine = SwarmEngine(env)
        world = FieldWorld(10, 10, np.random.default_rng(0))
        drone = Drone(env, "d0", DroneConstants())

        def run():
            count = yield engine.fly_route(drone, [], world)
            return count

        assert env.run(env.process(run())) == 0

    def test_engine_uses_fewer_kernel_events(self):
        # 105 kernel events for this route; the per-tick path took 106.
        before = events_consumed()
        fly([(0.0, 0.0), (200.0, 0.0), (200.0, 200.0)])
        assert events_consumed() - before == 105


def _scenario_fingerprint(**kwargs):
    result = ScenarioRunner(**kwargs).run()
    return {
        "makespan": result.extras["makespan_s"],
        "found": result.extras.get("items_found",
                                   result.extras.get("unique_people")),
        "latencies": tuple(result.task_latencies.values),
        "failed": tuple(result.extras["failed_devices"]),
        "energy": tuple(tuple(sorted(account.by_category().items()))
                        for account in result.energy_accounts),
    }


class TestScenarioParity:
    """Full-scenario digests, including the energy-accounting suite:
    motion/radio/compute draws plus lazy idle settlement per device."""

    def test_hivemind_scenario_a(self):
        fingerprint = _scenario_fingerprint(
            config=platform_config("hivemind"), scenario=SCENARIO_A,
            seed=0, n_devices=16)
        assert digest(fingerprint) == "a0d5c3c8e02278f67d8445f67c9df271"
        for per_device in fingerprint["energy"]:
            categories = dict(per_device)
            assert categories["motion"] > 0
            assert categories["idle"] > 0

    def test_distributed_edge_scenario_a(self):
        fingerprint = _scenario_fingerprint(
            config=platform_config("distributed_edge"), scenario=SCENARIO_A,
            seed=1, n_devices=8)
        assert digest(fingerprint) == "ae09974d7746d2bc143a806981f4f7b1"

    def test_parity_with_injected_failure(self):
        fingerprint = _scenario_fingerprint(
            config=platform_config("hivemind"), scenario=SCENARIO_A,
            seed=2, n_devices=16, fail_devices_at=[(3, 12.0)])
        assert digest(fingerprint) == "d73e29949cfd430f81021793ae560350"
        assert fingerprint["failed"]  # the injected failure was detected


class TestSatelliteBugfixes:
    def test_execute_no_compute_charge_after_failure(self):
        env = Environment()
        device = Drone(env, "d0", DroneConstants())

        def killer():
            yield env.timeout(0.1)
            device.fail()

        env.process(killer())
        env.run(env.process(device.execute(1.0)))  # runs past the failure
        assert device.busy_compute_s == 0.0
        assert device.energy.by_category().get("compute", 0.0) == 0.0

    def test_execute_charges_when_alive(self):
        env = Environment()
        device = Drone(env, "d0", DroneConstants())
        env.run(env.process(device.execute(1.0)))
        assert device.busy_compute_s > 0.0
        assert device.energy.by_category()["compute"] > 0.0

    def test_turn_advances_world_clock(self, rng):
        env = Environment()
        world = FieldWorld(100, 100, rng)
        drone = Drone(env, "drone0", DroneConstants())
        assert drone.constants.turn_time_s > 0
        batches = []

        def run():
            count = yield SwarmEngine(env).fly_route(
                drone, [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0)], world,
                on_batch=batches.append)
            return count

        count = env.run(env.process(run()))
        # Without the fix the world clock lags env.now by the turn time
        # whenever a route ends on a turn boundary.
        assert world._clock == env.now
        evidence = flight_evidence(env, drone, count, batches, world)
        assert digest(evidence) == "9c7d539be2290c0905dfb3ee84a8c2dc"
