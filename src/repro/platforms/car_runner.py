"""Robotic-car scenario runner (paper section 5.5, Fig 16).

Fourteen cars run one of two missions concurrently, sharing the wireless
medium and the serverless backend:

- **Treasure Hunt** — drive to an instruction panel, photograph it, OCR the
  text (S9 profile) to learn the next move, repeat until the final target.
  The OCR result feeds a second *interpret* stage, so the mission exercises
  multi-phase data sharing (where HiveMind's remote-memory fabric shows).
- **Maze** — navigate an unknown perfect maze with the wall follower; each
  step needs a perception decision (front-camera still + S6-style compute)
  before the car moves.

Both missions are latency-critical: the car cannot move until the decision
returns, so perception latency translates directly into job latency.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional

from ..apps import CarScenarioSpec
from ..cluster import FixedPool
from ..config import DEFAULT
from ..edge import RoboticCar
from ..network import build_fabric
from ..routing import WallFollower, generate_maze
from ..serverless import InvocationRequest
from ..sim import Environment, RandomStreams
from ..telemetry import BreakdownAggregate, LatencyBreakdown, MetricSeries
from .base import PlatformConfig, RunResult
from .runner import TX_DUTY
from .stack import build_cloud, build_edge_rpc

__all__ = ["CarScenarioRunner"]

#: Cloud-core seconds for the interpret stage consuming the OCR output.
INTERPRET_SERVICE_S = 0.08
#: Cloud-core seconds per maze movement decision.
MAZE_DECISION_S = 0.30

#: Steps of driving between two instruction panels.
STEPS_BETWEEN_PANELS = 8


class CarScenarioRunner:
    """Executes one car scenario on one platform configuration."""

    def __init__(self, config: PlatformConfig, scenario: CarScenarioSpec,
                 seed: int = 0,
                 n_devices: Optional[int] = None):
        self.config = config
        self.scenario = scenario
        self.constants = DEFAULT
        self.seed = seed
        self.n_devices = (n_devices if n_devices is not None
                          else DEFAULT.car.count)
        if self.n_devices <= 0:
            raise ValueError("need at least one car")

    @property
    def _device_ratio(self) -> float:
        """Car slowdown relative to the drone-calibrated app profiles."""
        return (self.constants.car.cloud_to_edge_slowdown /
                self.constants.drone.cloud_to_edge_slowdown)

    def run(self) -> RunResult:
        env = Environment()
        streams = RandomStreams(self.seed)
        constants = self.constants
        config = self.config
        fabric = build_fabric(env, config.fabric_constants(constants),
                              streams)
        rng = streams.stream("cars.workload")
        app = self.scenario.perception

        cloud = None
        pool = None
        if config.cloud_backed:
            cloud = build_cloud(env, config, constants, streams,
                                fabric.cluster, self.n_devices)
        elif config.execution == "cloud_iaas":
            demand = self.n_devices * app.cloud_service_s * 0.5
            pool = FixedPool(env, cores=max(1, math.ceil(demand)))

        edge_rpc = build_edge_rpc(env, config, constants, fabric.wireless)
        perception_tier = config.tier_of(app, "process", constants,
                                         self.n_devices, device_kind="car")

        cars = [
            RoboticCar(env, f"car{i:02d}", constants.car,
                       rng=streams.stream(f"cars.car{i}"))
            for i in range(self.n_devices)
        ]
        phase_latencies = MetricSeries(
            f"{self.scenario.key}.{self.config.name}")
        breakdowns = BreakdownAggregate()
        job_latencies: List[float] = []

        def perceive(car: RoboticCar, service_s: float, photo_mb: float,
                     chain_interpret: bool) -> Generator:
            """One perception decision; returns when the car may move."""
            start = env.now
            breakdown = LatencyBreakdown()
            if perception_tier == "edge":
                spent = yield from car.execute(
                    service_s,
                    slowdown=app.edge_slowdown * self._device_ratio)
                breakdown.charge("execution", spent)
                if chain_interpret:
                    spent = yield from car.execute(
                        INTERPRET_SERVICE_S, slowdown=2.0)
                    breakdown.charge("execution", spent)
            else:
                push = yield from edge_rpc.push(car.device_id, photo_mb)
                car.account_tx(TX_DUTY * push.total_s)
                breakdown.charge("network", push.total_s)
                if cloud is not None:
                    request = InvocationRequest(
                        spec=app.function_spec(), service_s=service_s,
                        input_mb=photo_mb, output_mb=0.5)
                    invocation = yield from cloud.invoke(request, breakdown)
                    if chain_interpret:
                        child = InvocationRequest(
                            spec=app.function_spec(),
                            service_s=INTERPRET_SERVICE_S,
                            input_mb=0.5, output_mb=0.02,
                            parent=invocation)
                        yield from cloud.invoke(child, breakdown)
                else:
                    wait_s, spent = yield from pool.execute(service_s)
                    breakdown.charge("management", wait_s)
                    breakdown.charge("execution", spent)
                down = yield from fabric.wireless.download(
                    car.device_id, 0.02)
                car.account_rx(TX_DUTY * down)
                breakdown.charge("network", down)
            phase_latencies.add(env.now - start, time=start)
            breakdowns.add(breakdown)

        def treasure_hunt(car: RoboticCar) -> Generator:
            car.start_mission()
            start = env.now
            for _ in range(self.scenario.panels):
                for step in range(STEPS_BETWEEN_PANELS):
                    target = (car.cell[0] + 1, car.cell[1])
                    yield from car.drive_to_cell(target)
                service = app.sample_cloud_service(rng)
                yield from perceive(
                    car, service, car.photograph(), chain_interpret=True)
            job_latencies.append(env.now - start)

        def maze_run(car: RoboticCar, maze_index: int) -> Generator:
            car.start_mission()
            start = env.now
            side = self.scenario.maze_side
            maze = generate_maze(
                side, side, streams.stream(f"cars.maze{maze_index}"))
            follower = WallFollower(maze, (0, 0), (side - 1, side - 1))
            while not follower.done:
                yield from perceive(
                    car, MAZE_DECISION_S, 1.0, chain_interpret=False)
                previous = follower.position
                follower.step()
                # Map maze cells onto the car's grid odometry.
                car.cell = previous
                yield from car.drive_to_cell(follower.position)
            job_latencies.append(env.now - start)

        missions = []
        for index, car in enumerate(cars):
            if self.scenario.panels:
                missions.append(env.process(treasure_hunt(car)))
            else:
                missions.append(env.process(maze_run(car, index)))
        env.run(env.all_of(missions))
        end = env.now
        for car in cars:
            car.finalize_mission(end)

        job_series = MetricSeries(f"{self.scenario.key}.jobs")
        job_series.extend(job_latencies)
        return RunResult(
            platform=self.config.name,
            workload=self.scenario.key,
            task_latencies=phase_latencies,
            breakdowns=breakdowns,
            energy_accounts=[car.energy for car in cars],
            wireless_meter=fabric.wireless_meter,
            duration_s=end,
            extras={
                "job_latencies": job_series,
                "perception_tier": perception_tier,
            },
        )
