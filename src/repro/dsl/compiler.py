"""The HiveMind compiler: validation -> synthesis -> estimation -> choice.

The compiler takes a validated task graph, enumerates the meaningful
execution models (:mod:`repro.dsl.synthesis`), predicts each model's
latency, power, bandwidth and cloud cost with the analytical queueing
models, generates the cross-tier APIs for the surviving models, and ranks
them against the user's constraints. The profiling results are "presented
to the user" in the paper; here :class:`CompilationResult` carries the full
ranking so callers (and the HiveMind controller's runtime remapping) can
move down the list when goals are missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analytical import fork_join_response, mm1_inflation
from ..config import PaperConstants
from .ast import Placement, TaskGraph, TaskProfile
from .codegen import ApiBundle, generate_apis
from .constraints import PlanEstimate
from .directives import DirectiveSet
from .synthesis import enumerate_placements
from .validation import ValidationError, validate_graph

__all__ = ["CompiledPlan", "CompilationResult", "HiveMindCompiler"]

#: Serverless management overhead per activation on the warm path
#: (front end + auth + scheduling + Kafka + warm start), seconds.
WARM_PATH_OVERHEAD_S = 0.025


@dataclass(frozen=True)
class CompiledPlan:
    """One execution model with its predicted behaviour and APIs."""

    placement: Placement
    estimate: PlanEstimate
    apis: ApiBundle


@dataclass
class CompilationResult:
    """Everything the compiler produced for one application."""

    plans: List[CompiledPlan]          # ranked, best first
    chosen: CompiledPlan

    @property
    def placement(self) -> Placement:
        return self.chosen.placement


class HiveMindCompiler:
    """Compiles a task graph into a ranked set of execution models."""

    def __init__(self, constants: Optional[PaperConstants] = None,
                 n_devices: Optional[int] = None,
                 device_kind: str = "drone",
                 accelerated: bool = True):
        self.constants = constants or PaperConstants()
        if device_kind == "drone":
            self.device = self.constants.drone
        elif device_kind == "car":
            self.device = self.constants.car
        else:
            raise ValueError(f"unknown device kind {device_kind!r}")
        self.n_devices = (n_devices if n_devices is not None
                          else self.device.count)
        if self.n_devices <= 0:
            raise ValueError("need at least one device")
        #: Whether the FPGA fabrics are present (affects crossing and
        #: cloud-to-cloud data costs — section 4.7 discusses running
        #: without them).
        self.accelerated = accelerated

    # -- cost model -----------------------------------------------------------
    def _profile(self, graph: TaskGraph, name: str) -> TaskProfile:
        profile = graph.task(name).profile
        if profile is None:
            raise ValueError(
                f"task {name!r} has no profile; the compiler cannot "
                f"estimate placements without one")
        return profile

    def _utilizations(self, graph: TaskGraph,
                      placement: Placement) -> Dict[str, float]:
        cores_edge = self.device.cpu_cores
        cores_cloud = (self.constants.cluster.servers *
                       self.constants.cluster.cores_per_server)
        edge_demand = cloud_demand = net_demand = 0.0
        for name in graph.task_names:
            profile = self._profile(graph, name)
            if placement.tier_of(name) == "edge":
                edge_demand += (profile.cloud_service_s *
                                self.device.cloud_to_edge_slowdown *
                                profile.rate_hz)
            else:
                cloud_demand += (profile.cloud_service_s * profile.rate_hz *
                                 self.n_devices)
        for parent, child in graph.edges():
            if placement.tier_of(parent) != placement.tier_of(child):
                parent_task = graph.task(parent)
                if parent_task.output_stream is not None:
                    # Continuous stream: budget its full flow.
                    net_demand += (parent_task.output_stream.mbs *
                                   self.n_devices)
                    continue
                parent_profile = self._profile(graph, parent)
                net_demand += (parent_profile.output_mb *
                               parent_profile.rate_hz * self.n_devices)
        # Roots placed in the cloud pull their raw input over the radio.
        for root in graph.roots():
            if placement.tier_of(root.name) == "cloud":
                profile = self._profile(graph, root.name)
                net_demand += (profile.input_mb * profile.rate_hz *
                               self.n_devices)
        wireless_mbs = self.constants.wireless.total_mbs
        return {
            "edge": edge_demand / cores_edge,
            "cloud": cloud_demand / cores_cloud,
            "network": net_demand / wireless_mbs,
            "net_demand_mbs": net_demand,
        }

    def _crossing_latency(self, megabytes: float,
                          network_rho: float) -> float:
        """Edge<->cloud transfer time for one payload."""
        wireless = self.constants.wireless
        transfer = megabytes / wireless.ap_mbs  # serialization on one AP
        rtt = wireless.base_rtt_s
        processing = 0.0025 if not self.accelerated else 0.0008
        return (transfer * mm1_inflation(network_rho) + rtt + processing)

    def _cloud_share_latency(self, megabytes: float) -> float:
        """Cloud-to-cloud data exchange between dependent functions."""
        serverless = self.constants.serverless
        if self.accelerated:
            accel = self.constants.accel
            return 2 * (accel.remote_mem_latency_s +
                        megabytes / accel.remote_mem_mbs)
        return (2 * serverless.couchdb_handle_s +
                2 * (serverless.couchdb_latency_s +
                     megabytes / serverless.couchdb_mbs))

    def _task_latency(self, profile: TaskProfile, tier: str,
                      rho: Dict[str, float]) -> float:
        if tier == "edge":
            service = (profile.cloud_service_s *
                       self.device.cloud_to_edge_slowdown)
            return service * mm1_inflation(rho["edge"])
        service = fork_join_response(
            profile.cloud_service_s, profile.parallelism,
            profile.service_sigma)
        overhead = WARM_PATH_OVERHEAD_S
        if not self.accelerated:
            # Without HiveMind's scheduler optimizations a fraction of
            # activations cold-start.
            overhead += 0.15 * self.constants.serverless.cold_start_median_s
        return overhead + service * mm1_inflation(rho["cloud"])

    def estimate(self, graph: TaskGraph,
                 placement: Placement) -> PlanEstimate:
        """Analytical prediction for one execution model."""
        rho = self._utilizations(graph, placement)
        finish: Dict[str, float] = {}
        for name in graph.topological_order():
            profile = self._profile(graph, name)
            tier = placement.tier_of(name)
            ready = 0.0
            for parent in graph.parents_of(name):
                parent_profile = self._profile(graph, parent)
                parent_tier = placement.tier_of(parent)
                if parent_tier != tier:
                    crossing = self._crossing_latency(
                        parent_profile.output_mb, rho["network"])
                elif tier == "cloud":
                    crossing = self._cloud_share_latency(
                        parent_profile.output_mb)
                else:
                    crossing = 0.0
                ready = max(ready, finish[parent] + crossing)
            if not graph.parents_of(name) and tier == "cloud":
                # Raw sensor input must first reach the cloud.
                ready += self._crossing_latency(profile.input_mb,
                                                rho["network"])
            finish[name] = ready + self._task_latency(profile, tier, rho)
        latency = max(finish.values())
        feasible = (rho["edge"] < 1.0 and rho["cloud"] < 1.0 and
                    rho["network"] < 1.0)
        return PlanEstimate(
            latency_s=latency,
            network_mbs=rho["net_demand_mbs"],
            feasible=feasible,
        )

    # -- compilation ------------------------------------------------------------
    def compile(self, graph: TaskGraph,
                directives: Optional[DirectiveSet] = None
                ) -> CompilationResult:
        """Validate, synthesize, estimate, rank, and pick a plan.

        A graph :func:`~repro.dsl.validation.validate_graph` warns about
        is refused with :class:`~repro.dsl.validation.ValidationError`
        listing the warnings."""
        warnings = validate_graph(graph, directives)
        if warnings:
            raise ValidationError(
                f"graph {graph.name!r} has warnings: {'; '.join(warnings)}")
        placements = enumerate_placements(graph, directives)
        plans = []
        for placement in placements:
            estimate = self.estimate(graph, placement)
            plans.append(CompiledPlan(
                placement=placement,
                estimate=estimate,
                apis=generate_apis(graph, placement)))
        constraints = graph.constraints

        def rank_key(plan: CompiledPlan):
            satisfies = all(c.satisfied_by(plan.estimate)
                            for c in constraints)
            return (not plan.estimate.feasible, not satisfies,
                    plan.estimate.latency_s)

        plans.sort(key=rank_key)
        return CompilationResult(plans=plans, chosen=plans[0])
