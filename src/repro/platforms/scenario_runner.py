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
from ..serverless import Invocation, InvocationRequest
from ..sim import Environment, RandomStreams, Timeout
from ..telemetry import BreakdownAggregate, LatencyBreakdown, MetricSeries
from .. import obs
from .base import CLOUD_BUDGET_CORES, PlatformConfig, RunResult
from .runner import EDGE_FILTER_SLOWDOWN, TX_DUTY
from .stack import build_cloud, build_edge_rpc

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
        self._st: Optional[Dict[str, object]] = None
        self._finished = False
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
        platform = None
        pool = None
        execution = config.execution
        if boundary is not None:
            # Sharded cell: the cloud tier lives in the cloud shard; this
            # runner only records cloud-bound messages on the boundary.
            pass
        elif config.cloud_backed:
            cloud = build_cloud(env, config, constants, streams,
                                fabric.cluster, constants.drone.count)
            platform = cloud.platform
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

        edge_rpc = build_edge_rpc(env, config, constants, fabric.wireless)
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

        # Metrics + scenario state.
        latencies = MetricSeries(f"{self.scenario.key}.{self.config.name}")
        breakdowns = BreakdownAggregate()
        found_items: Set[int] = set()
        pending = {"count": 0}
        recognition_spec = app.function_spec()
        dedup_spec = (self.scenario.dedup.function_spec()
                      if self.scenario.dedup is not None else None)
        input_mb = (self.frame_mb * (self.fps or
                                     constants.drone.frames_per_second)
                    if self.frame_mb is not None
                    else app.input_mb)

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

        filtering = config.filters(app)
        upload_mb = config.upload_mb(app, input_mb)

        def recognition_cloud(device: Drone, filtered: Optional[Timeout],
                              breakdown: LatencyBreakdown,
                              trace=obs.NULL_CONTEXT) -> Generator:
            if filtered is not None:
                filter_start = env.now
                filter_s = yield filtered
                breakdown.charge("execution", filter_s)
                if trace:
                    trace.emit("edge_filter", "edge", filter_start, env.now)
            push_ctx = trace.span("upload", "network", env.now)
            push = yield from edge_rpc.push(device.device_id, upload_mb,
                                            trace=push_ctx)
            push_ctx.close(env.now, mb=upload_mb)
            device.account_tx(TX_DUTY * push.total_s)
            breakdown.charge("network", push.total_s)
            intrinsic = app.sample_cloud_service(rng)
            if boundary is not None:
                # Sharded cell: the upload has crossed the boundary; hand
                # the cloud shard a timestamped message carrying every
                # service-time draw it needs (drawn *here*, from this
                # cell's streams, so the cloud side stays deterministic
                # at any shard count). handle_batch settles the returned
                # sequence number once the edge side of the task is done.
                dedup_s = (self.scenario.dedup.sample_cloud_service(rng)
                           if dedup_spec is not None else None)
                return boundary.submit(
                    arrival_s=env.now, recognition_s=intrinsic,
                    dedup_s=dedup_s, input_mb=upload_mb,
                    output_mb=app.output_mb)
            if cloud is not None:
                request = InvocationRequest(
                    spec=recognition_spec, service_s=intrinsic,
                    input_mb=upload_mb, output_mb=app.output_mb,
                    trace=trace)
                invocation = yield from cloud.invoke(request, breakdown)
                return invocation
            pool_start = env.now
            wait_s, service_s = yield from pool.execute(intrinsic)
            breakdown.charge("management", wait_s)
            breakdown.charge("execution", service_s)
            if trace:
                trace.emit("pool_queue", "serverless", pool_start,
                           pool_start + wait_s)
                trace.emit("execute", "execution", pool_start + wait_s,
                           env.now)
            return None

        def recognition_edge(device: Drone, executed: Timeout,
                             breakdown: LatencyBreakdown,
                             trace=obs.NULL_CONTEXT) -> Generator:
            exec_start = env.now
            service = yield executed
            breakdown.charge("execution", service)
            if trace:
                trace.emit("edge_execute", "edge", exec_start, env.now)
            push_ctx = trace.span("upload", "network", env.now)
            push = yield from edge_rpc.push(device.device_id, app.output_mb,
                                            trace=push_ctx)
            push_ctx.close(env.now, mb=app.output_mb)
            device.account_tx(TX_DUTY * push.total_s)
            breakdown.charge("network", push.total_s)
            return None

        # Persist directives (Listing 2): outputs of the marked tasks go
        # to persistent storage (CouchDB on the cloud platforms).
        _, scenario_directives = self.scenario.dsl_graph()
        persisted_tasks = set(scenario_directives.persisted)
        persist_counter = {"count": 0}

        def persist_output(task_name: str, key: str, megabytes: float,
                           trace=obs.NULL_CONTEXT) -> Generator:
            if platform is None or task_name not in persisted_tasks:
                return
            store_start = env.now
            yield from platform.couchdb.store(key, megabytes)
            if trace:
                trace.emit("persist", "data_io", store_start, env.now,
                           key=key)
            persist_counter["count"] += 1

        def aggregate_stage(parent: Optional[Invocation],
                            breakdown: LatencyBreakdown,
                            trace=obs.NULL_CONTEXT) -> Generator:
            """Scenario B deduplication / Scenario A location merge."""
            if platform is None or dedup_spec is None:
                return
            intrinsic = self.scenario.dedup.sample_cloud_service(rng)
            request = InvocationRequest(
                spec=dedup_spec, service_s=intrinsic,
                input_mb=(parent.request.output_mb if parent else 0.1),
                output_mb=0.05, parent=parent, trace=trace)
            invocation = yield from cloud.invoke(request, breakdown)
            yield from persist_output(
                "aggregate", f"agg-{invocation.invocation_id}", 0.05,
                trace=trace)

        def handle_batch(device: Drone, batch: FrameBatch) -> Generator:
            start = env.now
            breakdown = LatencyBreakdown()
            ticket = None
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
                    parent = yield from recognition_cloud(
                        device, first, breakdown, trace=trace)
                    if boundary is not None:
                        ticket, parent = parent, None
                    if parent is not None:
                        yield from persist_output(
                            "recognition",
                            f"rec-{parent.invocation_id}",
                            app.output_mb, trace=trace)
                else:
                    parent = yield from recognition_edge(
                        device, first, breakdown, trace=trace)
                    if boundary is not None and dedup_spec is not None:
                        # The aggregate stage still runs at the cloud tier
                        # for edge-executed recognition: ship a dedup-only
                        # message (no recognition stage) across the
                        # boundary, mirroring aggregate_stage's no-parent
                        # invocation shape.
                        ticket = boundary.submit(
                            arrival_s=env.now, recognition_s=None,
                            dedup_s=self.scenario.dedup.sample_cloud_service(
                                rng),
                            input_mb=0.1, output_mb=0.05)
                record_sightings(device, batch)
                yield from aggregate_stage(parent, breakdown, trace=trace)
                yield obstacle  # join the Parallel branch
                if ticket is not None:
                    # Deferred task: the cloud half runs in the cloud
                    # shard; the merge layer joins both halves into the
                    # final latency/breakdown row (canonical order).
                    boundary.settle(ticket, start, env.now, breakdown)
                else:
                    latencies.add(env.now - start, time=start)
                    breakdowns.add(breakdown)
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

        completed = {"all": True}

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
                        completed["all"] = False
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

        self._st = {
            "env": env, "drones": drones, "swarm": swarm,
            "detector": detector, "platform": platform, "fabric": fabric,
            "latencies": latencies, "breakdowns": breakdowns,
            "persist_counter": persist_counter, "recognizer": recognizer,
            "dedup": dedup, "found_items": found_items,
            "n_targets": n_targets, "recognition_tier": recognition_tier,
            "cloud_fraction": cloud_fraction, "completed": completed,
        }

    @property
    def now(self) -> float:
        """Current simulated time of the cell's kernel."""
        if self._st is None:
            raise RuntimeError("start() has not been called")
        return self._st["env"].now

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
        if self._st is None:
            raise RuntimeError("start() has not been called")
        if self._finished:
            return
        env = self._st["env"]
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
        st = self._st
        if st is None or not self._finished:
            raise RuntimeError("finish() before the mission completed")
        makespan = self._makespan
        duration = (makespan if duration_override is None
                    else max(makespan, float(duration_override)))
        drones = st["drones"]
        for device in drones:
            device.finalize_mission(duration)

        completed = st["completed"]
        uncovered = self._uncovered_regions(st["swarm"], drones)
        if uncovered:
            completed["all"] = False

        detector = st["detector"]
        platform = st["platform"]
        extras: Dict[str, object] = {
            "makespan_s": makespan,
            "targets": st["n_targets"],
            "recognition_tier": st["recognition_tier"],
            "cloud_fraction": st["cloud_fraction"],
            "persisted_documents": st["persist_counter"]["count"],
            "tally": st["recognizer"].tally,
            "failed_devices": (detector.failed if detector is not None
                               else [d.device_id for d in drones
                                     if not d.alive]),
        }
        if self.scenario.moving_targets:
            extras["unique_people"] = st["dedup"].unique_count
        else:
            extras["items_found"] = len(st["found_items"])
        if platform is not None:
            extras["cold_starts"] = platform.cold_starts
        return RunResult(
            platform=self.config.name,
            workload=self.scenario.key,
            task_latencies=st["latencies"],
            breakdowns=st["breakdowns"],
            energy_accounts=[d.energy for d in drones],
            wireless_meter=st["fabric"].wireless_meter,
            duration_s=duration,
            completed=completed["all"],
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
