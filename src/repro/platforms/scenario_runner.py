"""End-to-end scenario runner (Scenario A / Scenario B, Figs 1, 11-15).

Runs a full mission: the field is partitioned among the drones, each flies a
boustrophedon coverage route photographing the ground, obstacle avoidance
always runs on-board (section 2.1), recognition runs wherever the platform
places it, and Scenario B's deduplication aggregates in the cloud behind
the synchronization barrier. Detection quality is *real*: camera sightings
of world entities feed the embedding recognizer, whose accuracy depends on
the continuous-learning mode.

Fault tolerance runs live: the detector samples each drone's liveness on
the 1 s heartbeat grid, a silent drone is declared failed after 3 s, and
its region is repartitioned to neighbours who then fly the extra coverage
(HiveMind / centralized platforms; the distributed platform has no global
view, so a failed drone's region simply goes unsearched).

This runner is the *exact* tier: every device is discrete-event
simulated in one kernel. ``repro.sim.shard.run_sharded`` decomposes the
same mission into per-cell kernels (and, with ``REPRO_CLOUD_SHARDS``,
per-region cloud workers); hybrid runs keep a small exact focus with
this runner's semantics while ``repro.edge.meanfield`` prices the
background fleet.
Results from this runner remain the ground truth the sharded and hybrid
tiers are validated against (see tests/sim/test_shard_determinism.py
and tests/edge/test_meanfield_parity.py).

A batch's stages are :class:`~repro.platforms.pipeline.TaskPipeline`'s
and persistence is :meth:`~repro.platforms.stack.CloudStack.persist`;
``handle_batch`` keeps the order of the batch's draws and core claims,
which every pinned Scenario row was recorded with.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..apps import ScenarioSpec
from ..cluster import FixedPool
from ..config import DEFAULT
from ..core import FailureDetector
from ..edge import Drone, FieldWorld, FrameBatch, Swarm, SwarmEngine
from ..learning import DeduplicationEngine, IdentitySpace, RetrainingMode
from ..learning.retraining import OnlineRecognizer
from ..network import build_fabric
from ..routing import Region, coverage_route
from ..serverless import InvocationRequest
from ..sim import Environment, RandomStreams
from ..telemetry import LatencyBreakdown
from .. import obs
from .base import CLOUD_BUDGET_CORES, PlatformConfig, RunResult
from .pipeline import EDGE_FILTER_SLOWDOWN, TaskPipeline
from .stack import build_cloud

__all__ = ["ScenarioRunner"]

#: On-board obstacle avoidance cost (cloud-core seconds; S4's profile).
OBSTACLE_SERVICE_S = 0.06
OBSTACLE_SLOWDOWN = 1.2

#: Fleet the static IaaS reservation is sized for: the real 16-drone
#: testbed, whatever the simulated swarm size.
IAAS_BASELINE_DEVICES = 16


class ScenarioRunner:
    """Executes one end-to-end scenario on one platform."""

    def __init__(self, config: PlatformConfig, scenario: ScenarioSpec,
                 seed: int = 0,
                 n_devices: Optional[int] = None,
                 retraining: Optional[str] = None,
                 frame_mb: Optional[float] = None,
                 fps: Optional[float] = None,
                 passes: int = 1,
                 cloud_boundary: Optional[object] = None,
                 device_id_base: int = 0,
                 cloud_budget_cores: Optional[float] = None,
                 placement_devices: Optional[int] = None,
                 fail_devices_at: Optional[Sequence[Tuple[int, float]]]
                 = None):
        self.config = config
        self.scenario = scenario
        self.constants = (DEFAULT if n_devices is None
                          else DEFAULT.scaled_for_swarm(n_devices))
        self.seed = seed
        self.retraining = retraining
        self.frame_mb = frame_mb
        self.fps = fps
        if passes <= 0:
            raise ValueError("passes must be positive")
        #: Coverage passes over the field (continuous-surveillance runs
        #: use several so online learning has material to learn from).
        self.passes = passes
        #: Sharded-mode cloud boundary (see :mod:`repro.sim.shard`): when
        #: set, this runner simulates one *edge cell* — cloud-bound work
        #: is recorded as timestamped messages on the boundary instead of
        #: being served by an in-process platform, and task latencies for
        #: those messages are resolved later by the cloud shard. None
        #: (the default) is the unsharded single-process path, untouched.
        self.cloud_boundary = cloud_boundary
        if cloud_boundary is not None and not config.cloud_backed:
            raise ValueError(
                "cloud_boundary mode requires a cloud-backed platform "
                f"(got execution={config.execution!r})")
        if device_id_base < 0:
            raise ValueError("device_id_base must be non-negative")
        #: First global device index in this runner's swarm (sharded mode
        #: gives each cell a disjoint id range so merged results keep
        #: globally unique device ids).
        self.device_id_base = device_id_base
        #: Cloud headroom admitted to this runner's swarm (sharded mode
        #: hands each cell its population-proportional share of
        #: :data:`CLOUD_BUDGET_CORES` so the hybrid runtime-remapping
        #: fraction matches the whole-swarm value).
        self.cloud_budget_cores = (
            CLOUD_BUDGET_CORES if cloud_budget_cores is None
            else cloud_budget_cores)
        #: Swarm size the DSL compiler sees when placing recognition
        #: (sharded mode passes the *global* device count so every cell
        #: compiles the same whole-swarm placement).
        self.placement_devices = placement_devices
        #: Scheduled device failures: (device index, absolute time)
        #: pairs.
        self.fail_devices_at = list(fail_devices_at or ())
        # Run state: start() builds it, finish() reads it.
        self._env: Optional[Environment] = None
        self._stages: Optional[TaskPipeline] = None
        self._finished = False
        self._completed = True
        self._makespan = 0.0

    # -- defaults -------------------------------------------------------------
    def _default_retraining(self) -> RetrainingMode:
        """Centralized backends learn swarm-wide; distributed cannot."""
        if self.retraining is not None:
            return RetrainingMode(self.retraining)
        if self.config.execution == "edge":
            return RetrainingMode.SELF
        return RetrainingMode.SWARM

    # -- run ------------------------------------------------------------
    def run(self) -> RunResult:
        """The whole mission in one call (the established interface).

        Equivalent to ``start()`` + ``advance_to(inf)`` + ``finish()``;
        the incremental phases exist so the sharded runtime can step many
        cells in conservative lookahead windows (:mod:`repro.sim.shard`).
        The event sequence is identical either way.
        """
        self.start()
        self.advance_to(float("inf"))
        return self.finish()

    def start(self) -> None:
        """Build the world and schedule the mission; dispatch no events."""
        env = Environment()
        boundary = self.cloud_boundary
        engine = SwarmEngine(env)
        streams = RandomStreams(self.seed)
        constants = self.constants
        config = self.config
        fabric = build_fabric(env, config.fabric_constants(constants),
                              streams)
        app = self.scenario.recognition
        rng = streams.stream("scenario.workload")

        # World + ground truth.
        world = FieldWorld(constants.field_width_m, constants.field_height_m,
                           streams.stream("scenario.world"))
        if self.scenario.moving_targets:
            n_targets = constants.scenario_b_people
            world.place_people(n_targets)
        else:
            n_targets = constants.scenario_a_items
            world.place_items(n_targets)
        space = IdentitySpace(n_targets, dim=16,
                              rng=streams.stream("scenario.identities"))

        # Swarm.
        drones = [
            Drone(env, f"drone{self.device_id_base + i:04d}",
                  constants.drone,
                  rng=streams.stream(f"scenario.drone{i}"),
                  frame_mb=self.frame_mb, fps=self.fps)
            for i in range(constants.drone.count)
        ]
        swarm = Swarm(env, drones, control=constants.control)
        swarm.assign_regions(constants.field_width_m,
                             constants.field_height_m)

        # Recognizer + dedup. Pretraining is deliberately thin (one noisy
        # example per identity) so Fig 15's never-retrained baseline shows
        # material error; sensor noise is calibrated against the accept
        # radius for the same reason.
        recognizer = OnlineRecognizer(
            space, [d.device_id for d in drones],
            self._default_retraining(),
            rng=streams.stream("scenario.recognizer"),
            sensor_noise=0.50, pretrain_noise=0.55,
            pretrain_samples=1, clutter_rate=0.08)
        dedup = DeduplicationEngine(merge_radius=0.75)

        # Cloud side.
        cloud = None
        pool = None
        execution = config.execution
        # A sharded cell's cloud tier lives in the cloud shard; the cell
        # only records cloud-bound messages on the boundary.
        if config.cloud_backed and boundary is None:
            cloud = build_cloud(env, config, constants, streams,
                                fabric.cluster, constants.drone.count)
        elif execution == "cloud_iaas":
            # Statically provisioned resources of equal cost: sized for the
            # real 16-drone testbed's long-run average demand (missions are
            # intermittent; reserving for the peak would idle the fleet at
            # several times the cost). Being *static*, the reservation does
            # not grow with simulated swarm size — the scalability wall of
            # Fig 1 — and the fleet boots at mission start, paying the
            # instance spin-up lag (Fig 5b's inelasticity).
            demand = (IAAS_BASELINE_DEVICES * app.cloud_service_s *
                      min(1.0, app.rate_hz))
            pool = FixedPool(env, cores=1)
            env.process(pool.resize(max(1, math.ceil(demand * 0.5))))

        stages = TaskPipeline(env, config, constants, fabric, cloud, pool,
                              f"{self.scenario.key}.{self.config.name}")
        recognition_tier = config.tier_of(
            self.scenario, "recognition", constants,
            self.placement_devices or len(drones))
        # Runtime remapping: fraction of batches the cloud budget admits.
        cloud_fraction = (
            config.cloud_fraction(app, len(drones), self.cloud_budget_cores)
            if recognition_tier == "cloud" else 1.0)

        # Fault tolerance (global-view platforms only).
        detector = None
        if execution != "edge":
            detector = FailureDetector(env, swarm, constants.control)
        for index, at_time in self.fail_devices_at:
            swarm.fail_device_at(drones[index].device_id, at_time)

        # Scenario state.
        found_items: Set[int] = set()
        pending = {"count": 0}
        recognition_spec = app.function_spec()
        dedup_app = self.scenario.dedup
        dedup_spec = (dedup_app.function_spec() if dedup_app is not None
                      else None)
        input_mb = (self.frame_mb * (self.fps or
                                     constants.drone.frames_per_second)
                    if self.frame_mb is not None
                    else app.input_mb)
        filtering = config.filters(app)
        upload_mb = config.upload_mb(app, input_mb)
        # Persist directives (Listing 2): outputs of the marked tasks go
        # to persistent storage (CouchDB on the cloud platforms).
        _, scenario_directives = self.scenario.dsl_graph()
        persisted = set(scenario_directives.persisted)

        def record_sightings(device: Drone, batch: FrameBatch) -> None:
            sightings = (batch.people_sightings
                         if self.scenario.moving_targets
                         else batch.item_sightings)
            for identity in sightings:
                predicted = recognizer.sight(device.device_id, identity)
                if predicted is None:
                    continue
                if self.scenario.moving_targets:
                    dedup.add(space.observe(identity, 0.25))
                else:
                    found_items.add(predicted)

        def handle_batch(device: Drone, batch: FrameBatch) -> Generator:
            start = env.now
            breakdown = LatencyBreakdown()
            ticket = None
            parent = None
            trace = obs.root_span("task", "task", env.now,
                                  scenario=self.scenario.key,
                                  device=device.device_id,
                                  platform=self.config.name)
            try:
                to_cloud = (recognition_tier == "cloud" and device.alive and
                            (cloud_fraction >= 1.0 or
                             float(rng.random()) < cloud_fraction))
                # Recognition's first on-board stage (the cloud path's
                # filter, or the whole edge execution) claims its core
                # here, so the obstacle branch below can claim the next.
                if not to_cloud:
                    first = device.reserve(
                        app.sample_cloud_service(rng) +
                        self.scenario.edge_extra_service_s,
                        slowdown=app.edge_slowdown)
                elif filtering:
                    first = device.reserve(app.edge_filter_service_s,
                                           slowdown=EDGE_FILTER_SLOWDOWN)
                else:
                    first = None
                # Obstacle avoidance always on-board (section 2.1), and
                # declared Parallel(obstacleAvoidance, recognition) in the
                # Listing-3 graph: it runs concurrently with the
                # recognition pipeline, contending only for the device CPU.
                # Its core claim comes right after recognition's first
                # one and before recognition first waits: the claim order
                # every pinned Scenario row was recorded with.
                obstacle = device.reserve(OBSTACLE_SERVICE_S,
                                          slowdown=OBSTACLE_SLOWDOWN)
                if to_cloud:
                    if first is not None:
                        yield from stages.edge_stage(
                            first, breakdown, trace, span="edge_filter")
                    yield from stages.upload(device, upload_mb, breakdown,
                                             trace)
                    intrinsic = app.sample_cloud_service(rng)
                    if boundary is not None:
                        # Sharded cell: the upload has crossed the
                        # boundary; hand the cloud shard a timestamped
                        # message carrying every service-time draw it
                        # needs (drawn *here*, from this cell's streams,
                        # so the cloud side stays deterministic at any
                        # shard count). The ticket is settled once the
                        # edge side of the task is done.
                        ticket = boundary.submit(
                            arrival_s=env.now, recognition_s=intrinsic,
                            dedup_s=(dedup_app.sample_cloud_service(rng)
                                     if dedup_spec is not None else None),
                            input_mb=upload_mb, output_mb=app.output_mb)
                    else:
                        parent = yield from stages.execute(
                            recognition_spec, intrinsic, upload_mb,
                            app.output_mb, breakdown, trace)
                        if parent is not None:
                            yield from cloud.persist(
                                persisted, "recognition",
                                f"rec-{parent.invocation_id}",
                                app.output_mb, trace=trace)
                else:
                    yield from stages.edge_stage(first, breakdown, trace)
                    yield from stages.upload(device, app.output_mb,
                                             breakdown, trace)
                    if boundary is not None and dedup_spec is not None:
                        # The aggregate stage still runs at the cloud tier
                        # for edge-executed recognition: ship a dedup-only
                        # message (no recognition stage) across the
                        # boundary, mirroring the no-parent aggregate
                        # invocation below.
                        ticket = boundary.submit(
                            arrival_s=env.now, recognition_s=None,
                            dedup_s=dedup_app.sample_cloud_service(rng),
                            input_mb=0.1, output_mb=0.05)
                record_sightings(device, batch)
                if cloud is not None and dedup_spec is not None:
                    # Scenario B deduplication / Scenario A location merge.
                    request = InvocationRequest(
                        spec=dedup_spec,
                        service_s=dedup_app.sample_cloud_service(rng),
                        input_mb=(parent.request.output_mb if parent
                                  else 0.1),
                        output_mb=0.05, parent=parent, trace=trace)
                    invocation = yield from cloud.invoke(request, breakdown)
                    yield from cloud.persist(
                        persisted, "aggregate",
                        f"agg-{invocation.invocation_id}", 0.05,
                        trace=trace)
                yield obstacle  # join the Parallel branch
                if ticket is not None:
                    # Deferred task: the cloud half runs in the cloud
                    # shard; the merge layer joins both halves into the
                    # final latency/breakdown row (canonical order).
                    boundary.settle(ticket, start, env.now, breakdown)
                else:
                    stages.record(start, breakdown)
            finally:
                trace.close(env.now)
                pending["count"] -= 1

        def on_batch(device: Drone):
            def callback(batch: FrameBatch) -> None:
                if not device.alive:
                    return
                pending["count"] += 1
                env.start(handle_batch(device, batch))
            return callback

        def mission(device: Drone) -> Generator:
            device.start_mission()
            swath = constants.drone.fov_width_m
            for _ in range(self.passes):
                covered: Set[Tuple[float, float, float, float]] = set()
                while device.alive:
                    region = self._next_region(swarm, device, covered)
                    if region is None:
                        break
                    covered.add((region.x0, region.y0,
                                 region.x1, region.y1))
                    route = coverage_route(region, swath)
                    yield engine.fly_route(
                        device, route, world, on_batch=on_batch(device))
                    if device.energy.depleted:
                        device.fail()
                        self._completed = False
                if not device.alive:
                    break

        missions = [env.process(mission(d)) for d in drones]

        def orchestrate() -> Generator:
            yield env.all_of(missions)
            # Drain the processing pipeline.
            while pending["count"] > 0:
                yield env.timeout(0.5)

        done = env.process(orchestrate())

        def mark_done(event) -> None:
            self._makespan = env.now
            self._finished = True

        # mark_done must precede the stop callback: StopSimulation
        # propagates out of the dispatch loop immediately, so callbacks
        # appended after the raising one would never run.
        done.callbacks.append(mark_done)
        done.callbacks.append(env._stop_callback)

        self._env, self._stages, self._fabric = env, stages, fabric
        self._drones, self._swarm, self._detector = drones, swarm, detector
        self._recognizer, self._dedup = recognizer, dedup
        self._found_items, self._n_targets = found_items, n_targets
        self._recognition_tier = recognition_tier
        self._cloud_fraction = cloud_fraction

    @property
    def _st(self) -> Dict[str, object]:
        """The mission's serverless platform (``None`` without one), keyed
        as ``bench/workloads.py`` reads its warm starts."""
        cloud = self._stages.cloud if self._stages is not None else None
        return {"platform": cloud.platform if cloud is not None else None}

    @property
    def finished(self) -> bool:
        """True once the mission has completed and drained."""
        return self._finished

    @property
    def makespan(self) -> float:
        """Mission completion time (valid once :attr:`finished`)."""
        return self._makespan

    def advance_to(self, until: float) -> None:
        """Dispatch events up to simulated time ``until``.

        ``float('inf')`` runs to mission completion (the whole-run path);
        the sharded driver instead calls this with successive barrier
        times. No-op once the mission has drained.
        """
        if self._env is None:
            raise RuntimeError("start() has not been called")
        if self._finished:
            return
        env = self._env
        if until == float("inf"):
            env.run()
            if not self._finished:
                raise RuntimeError(
                    "event queue drained before the mission completed")
        elif until > env.now:
            env.run(until=until)

    def finish(self,
               duration_override: Optional[float] = None) -> RunResult:
        """Finalize mission accounting and build the :class:`RunResult`.

        ``duration_override`` lets the sharded driver stretch the
        accounting horizon to the *global* makespan (the last cloud-side
        completion across every cell), so hover/idle energy is charged
        over the same window in every cell regardless of which one
        finished flying first.
        """
        if self._env is None or not self._finished:
            raise RuntimeError("finish() before the mission completed")
        makespan = self._makespan
        duration = (makespan if duration_override is None
                    else max(makespan, float(duration_override)))
        drones = self._drones
        for device in drones:
            device.finalize_mission(duration)

        if self._uncovered_regions(self._swarm, drones):
            self._completed = False

        detector = self._detector
        stages = self._stages
        cloud = stages.cloud
        extras: Dict[str, object] = {
            "makespan_s": makespan,
            "targets": self._n_targets,
            "recognition_tier": self._recognition_tier,
            "cloud_fraction": self._cloud_fraction,
            "persisted_documents": (cloud.persisted_documents
                                    if cloud is not None else 0),
            "tally": self._recognizer.tally,
            "failed_devices": (detector.failed if detector is not None
                               else [d.device_id for d in drones
                                     if not d.alive]),
        }
        if self.scenario.moving_targets:
            extras["unique_people"] = self._dedup.unique_count
        else:
            extras["items_found"] = len(self._found_items)
        if cloud is not None:
            extras["cold_starts"] = cloud.platform.cold_starts
        return RunResult(
            platform=self.config.name,
            workload=self.scenario.key,
            task_latencies=stages.latencies,
            breakdowns=stages.breakdowns,
            energy_accounts=[d.energy for d in drones],
            wireless_meter=self._fabric.wireless_meter,
            duration_s=duration,
            completed=self._completed,
            extras=extras,
        )

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _next_region(swarm: Swarm, device: Drone,
                     covered: Set) -> Optional[Region]:
        regions = swarm.regions.get(device.device_id, [])
        for region in regions:
            key = (region.x0, region.y0, region.x1, region.y1)
            if key not in covered:
                return region
        return None

    @staticmethod
    def _uncovered_regions(swarm: Swarm, drones: List[Drone]) -> List[Region]:
        """Regions belonging to dead devices with no heir."""
        dead = {d.device_id for d in drones if not d.alive}
        return [region for device_id, regions in swarm.regions.items()
                if device_id in dead for region in regions]
