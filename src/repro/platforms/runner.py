"""Single-tier job runner: executes one application on one platform.

Reproduces the methodology of section 2.3: each job runs for a fixed window
(default 120 s) on the full swarm, and every task's end-to-end latency is
decomposed into network / management / data-I/O / execution.

Load model: devices emit one task per ``1/rate`` seconds with small jitter.
The default rate is chosen so the heaviest job offers roughly
``load_fraction`` of the wireless capacity ("services are not running at
max load here", section 2.2); saturation experiments pass
``load_fraction`` near or above 1. A device keeps at most
``MAX_OUTSTANDING`` tasks in flight (sensor data is perishable; fresh
batches supersede a hopeless backlog), which keeps saturated systems at a
finite operating point instead of an unbounded queue.

A task's stages are :class:`~repro.platforms.pipeline.TaskPipeline`'s;
this module keeps the load model, the per-task handler ``handle`` with
its chaos accounting, and every workload draw and core claim.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Generator, Optional

from ..apps import AppSpec
from ..cluster import FixedPool
from ..config import DEFAULT, PaperConstants
from ..edge import Drone
from ..faults import FaultInjector, FaultPlan, InvariantChecker, RecoveryLog
from ..faults.plan import CLOUD_KINDS, DEVICE_KINDS
from ..network import RpcTimeout, build_fabric
from .. import obs
from ..sim import Environment, RandomStreams
from ..sim.accounting import tally
from ..telemetry import LatencyBreakdown
from .base import PlatformConfig, RunResult
from .pipeline import EDGE_FILTER_SLOWDOWN, TaskPipeline
from .stack import build_cloud

__all__ = ["SingleTierRunner"]

#: Per-device in-flight task cap (perishable sensor data).
MAX_OUTSTANDING = 8
#: Bounded on-board compute backlog for the distributed platform.
EDGE_OUTSTANDING = 3

LoadProfile = Callable[[float], float]


def _device_id(index: int) -> str:
    return f"drone{index:04d}"


class SingleTierRunner:
    """Runs one app on one platform configuration and collects metrics."""

    def __init__(self, config: PlatformConfig, app: AppSpec,
                 constants: PaperConstants = DEFAULT,
                 seed: int = 0,
                 duration_s: Optional[float] = None,
                 n_devices: Optional[int] = None,
                 load_fraction: float = 0.5,
                 fault_rate: float = 0.0,
                 keepalive_s: Optional[float] = None,
                 intra_task_parallelism: bool = False,
                 load_profile: Optional[LoadProfile] = None,
                 frame_mb: Optional[float] = None,
                 fps: Optional[float] = None,
                 iaas_headroom: float = 1.25,
                 bursty: bool = True,
                 rate_override: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config
        self.app = app
        self.constants = constants
        self.seed = seed
        self.duration_s = (duration_s if duration_s is not None
                           else constants.job_duration_s)
        if not self.duration_s > 0:
            raise ValueError("duration must be positive")
        self.n_devices = (n_devices if n_devices is not None
                          else constants.drone.count)
        if self.n_devices <= 0:
            raise ValueError("need at least one device")
        if not 0 < load_fraction:
            raise ValueError("load fraction must be positive")
        self.load_fraction = load_fraction
        self.fault_rate = fault_rate
        self.keepalive_s = keepalive_s
        self.intra_task_parallelism = intra_task_parallelism
        self.load_profile = load_profile
        if any(value is not None and not value > 0
               for value in (frame_mb, fps)):
            raise ValueError("fps and frame size must be positive")
        self.frame_mb = frame_mb
        self.fps = fps
        if not iaas_headroom > 0:
            raise ValueError("IaaS headroom must be positive")
        #: Reserved-pool sizing relative to mean demand. 1.0 models the
        #: paper's "equal cost" fixed deployment (Fig 5a); the default
        #: leaves modest provisioning headroom.
        self.iaas_headroom = iaas_headroom
        #: Variable tasks-per-batch (Poisson, mean 1). Disable for
        #: strictly periodic workloads.
        self.bursty = bursty
        if rate_override is not None and rate_override <= 0:
            raise ValueError("rate override must be positive")
        #: Exact per-device task rate (validation runs pin this so the
        #: analytical model shares the operating point).
        self.rate_override = rate_override
        #: Chaos mode: a :class:`~repro.faults.FaultPlan` to inject during
        #: the run. ``None`` (or an empty plan) keeps every chaos hook
        #: unarmed — the run is then byte-identical to one without this
        #: parameter.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            self._check_fault_plan(fault_plan)

    def _check_fault_plan(self, plan: FaultPlan) -> None:
        """Refuse, before anything runs, a plan this run cannot apply."""
        cloud_kinds = sorted({e.kind for e in plan.events} & CLOUD_KINDS)
        if cloud_kinds and not self.config.cloud_backed:
            raise ValueError(
                f"fault plan {plan.name!r} injects {', '.join(cloud_kinds)}"
                f" but platform {self.config.name!r} has no serverless "
                "cloud")
        # A device target is an id or an index into the id order.
        devices = ({_device_id(i) for i in range(self.n_devices)} |
                   {str(i) for i in range(self.n_devices)})
        for event in plan.events:
            if event.kind in DEVICE_KINDS and event.target not in devices:
                raise ValueError(
                    f"{event.kind} target {event.target!r} names no device "
                    f"of {self.n_devices} (an id or an index)")

    # -- derived workload parameters ------------------------------------------
    @property
    def input_mb(self) -> float:
        if self.frame_mb is None and self.fps is None:
            return self.app.input_mb
        frame = (self.frame_mb if self.frame_mb is not None
                 else self.constants.drone.frame_mb)
        fps = self.fps if self.fps is not None else \
            self.constants.drone.frames_per_second
        return frame * fps  # one-second batch at the chosen resolution

    def task_rate_hz(self) -> float:
        """Per-device task rate under the modest-load rule."""
        if self.rate_override is not None:
            return self.rate_override
        if self.input_mb <= 0:
            return self.app.rate_hz
        network_bound = (self.load_fraction *
                         self.constants.wireless.total_mbs /
                         (self.n_devices * self.input_mb))
        return min(self.app.rate_hz, network_bound)

    # -- run ------------------------------------------------------------
    def run(self) -> RunResult:
        env = Environment()
        streams = RandomStreams(self.seed)
        fabric = build_fabric(env, self.config.fabric_constants(
            self.constants), streams)
        rng = streams.stream("runner.workload")
        app = self.app

        # Chaos machinery (armed plans only; fault-free runs construct
        # nothing and take the exact pre-chaos code paths).
        chaos = self.fault_plan is not None and self.fault_plan.armed
        checker: Optional[InvariantChecker] = None
        recovery_log: Optional[RecoveryLog] = None
        if chaos:
            checker = InvariantChecker(env)
            checker.attach_kernel()
            recovery_log = RecoveryLog(env)

        # Cloud side.
        cloud = None
        platform = None
        pool = None
        rate = self.task_rate_hz()
        if self.config.cloud_backed:
            cloud = build_cloud(
                env, self.config, self.constants, streams, fabric.cluster,
                self.n_devices, fault_rate=self.fault_rate,
                keepalive_s=self.keepalive_s, harden_races=chaos)
            platform = cloud.platform
            if chaos:
                platform.recovery_log = recovery_log
                platform.add_completion_listener(
                    checker.invocation_finished)
        elif self.config.execution == "cloud_iaas":
            demand = self.n_devices * rate * app.cloud_service_s
            pool = FixedPool(
                env, cores=max(1, math.ceil(demand * self.iaas_headroom)),
                name=f"iaas.{app.key}")

        # Chaos runs retry across partitions, so tasks can shed to
        # on-device compute once the budget is spent.
        stages = TaskPipeline(env, self.config, self.constants, fabric,
                              cloud, pool, f"{app.key}.{self.config.name}",
                              recovery_log)
        process_tier = self.config.tier_of(app, "process",
                                           self.constants, self.n_devices)

        # Devices.
        devices = [
            Drone(env, _device_id(i), self.constants.drone,
                  rng=streams.stream(f"runner.drone{i}"))
            for i in range(self.n_devices)
        ]
        outstanding: Dict[str, int] = {d.device_id: 0 for d in devices}
        skipped = {"count": 0}
        function_spec = app.function_spec()
        filtering = self.config.filters(app)
        upload_mb = self.config.upload_mb(app, self.input_mb)
        parallelism = (app.parallelism if self.intra_task_parallelism
                       else 1)
        task_seq = {"n": 0}

        def handle(device: Drone, intrinsic: float) -> Generator:
            task_id = None
            if checker is not None:
                task_seq["n"] += 1
                task_id = task_seq["n"]
                checker.task_submitted(task_id)
                checker.observe_clock(device.device_id, env.now)
            trace = obs.root_span("task", "task", env.now,
                                  app=app.key,
                                  device=device.device_id,
                                  platform=self.config.name)
            start = env.now
            breakdown = LatencyBreakdown()
            try:
                if process_tier == "edge":
                    yield from stages.edge_stage(
                        device.reserve(intrinsic, slowdown=app.edge_slowdown),
                        breakdown, trace)
                    # Chaos only: the result is already computed on-board;
                    # hold it until the partition heals.
                    yield from stages.upload(device, app.output_mb,
                                             breakdown, trace, hold=True)
                else:
                    if filtering:
                        yield from stages.edge_stage(
                            device.reserve(app.edge_filter_service_s,
                                           slowdown=EDGE_FILTER_SLOWDOWN),
                            breakdown, trace, span="edge_filter")
                    try:
                        yield from stages.upload(device, upload_mb,
                                                 breakdown, trace)
                    except RpcTimeout:
                        # Chaos only: the bare transport never raises this.
                        yield from stages.shed(
                            device, device.reserve(
                                intrinsic, slowdown=app.edge_slowdown),
                            app.output_mb, breakdown, trace)
                    else:
                        yield from stages.execute(
                            function_spec, intrinsic, upload_mb,
                            app.output_mb, breakdown, trace,
                            parallelism=parallelism)
                        if app.response_to_device:
                            yield from stages.download(
                                device, app.output_mb, breakdown, trace)
                stages.record(start, breakdown)
                if checker is not None:
                    checker.task_completed(task_id)
            except RpcTimeout:
                if checker is None:
                    raise
                # A shed/retry path still gave up (partition outlasted
                # every fallback): account the loss explicitly.
                checker.task_lost(task_id, "network_partition")
                trace.annotate(lost=True)
            finally:
                trace.close(env.now)
                outstanding[device.device_id] -= 1

        def generator(index: int, device: Drone) -> Generator:
            device.start_mission()
            interval = 1.0 / rate
            cap = (EDGE_OUTSTANDING if process_tier == "edge"
                   else MAX_OUTSTANDING)
            # Frame batches tick on near-synchronized wall-clock intervals
            # across the swarm (every drone samples at the same fps), which
            # is what makes fixed pools queue under bursts while serverless
            # absorbs them (Fig 5a). Periodic (non-bursty) mode instead
            # spreads phases across the full interval — the validation
            # operating point where closed-form models apply.
            phase = float(rng.uniform(0, 0.15 * interval if self.bursty
                                      else interval))
            tick = 0
            while True:
                next_t = phase + tick * interval
                tick += 1
                if next_t >= self.duration_s:
                    break
                tally("edge", 1)  # the drone's sampling clock
                yield env.timeout(next_t - env.now)
                if chaos and not device.alive:
                    break  # crashed devices stop emitting sensor batches
                if self.load_profile is not None:
                    active_fraction = self.load_profile(env.now)
                    if index >= active_fraction * self.n_devices:
                        continue
                # A batch spawns a variable number of tasks (e.g. one
                # recognition function per detected face) with mean 1.
                spawn = (int(rng.poisson(1.0)) if self.bursty else 1)
                for _ in range(spawn):
                    if outstanding[device.device_id] >= cap:
                        skipped["count"] += 1
                        continue
                    outstanding[device.device_id] += 1
                    intrinsic = app.sample_cloud_service(rng)
                    env.start(handle(device, intrinsic))

        injector = None
        if chaos:
            injector = FaultInjector(
                env, self.fault_plan,
                wireless=fabric.wireless, platform=platform,
                devices={d.device_id: d for d in devices})
            injector.start()

        for index, device in enumerate(devices):
            env.process(generator(index, device))
        env.run()

        end = env.now
        for device in devices:
            device.account_motion(end)
            device.finalize_mission(end)

        extras: Dict[str, object] = {
            "skipped": skipped["count"],
            "rate_hz": rate,
            "process_tier": process_tier,
        }
        if platform is not None:
            extras.update(
                cold_starts=platform.cold_starts,
                warm_starts=platform.warm_starts,
                respawns=platform.respawns,
                active_samples=platform.active_samples,
                invocations=len(platform.invocations),
            )
        if pool is not None:
            extras["pool_cores"] = pool.cores
            extras["pool_utilization"] = pool.utilization(end)
        if cloud is not None and cloud.mitigator is not None:
            extras["stragglers"] = cloud.mitigator.stragglers_detected
        if checker is not None:
            checker.finalize([d.energy for d in devices])
            extras["chaos"] = {
                "invariants": checker.summary(),
                "recoveries": recovery_log.counts_by_kind(),
                "recovery_latencies_s": recovery_log.latencies(),
                "injected": list(injector.applied),
                "rpc_retries": stages.edge_rpc.retries,
                "requeues": platform.requeues if platform else 0,
                "cancellations": platform.cancellations if platform else 0,
                "makespan_s": end,
            }
            extras["violations"] = len(checker.violations)
        return RunResult(
            platform=self.config.name,
            workload=app.key,
            task_latencies=stages.latencies,
            breakdowns=stages.breakdowns,
            energy_accounts=[d.energy for d in devices],
            wireless_meter=fabric.wireless_meter,
            duration_s=end,
            extras=extras,
        )
