"""Platform configurations and run results.

The evaluation compares these systems (Figs 1, 11, 13):

- **Centralized IaaS** — all computation in the cloud on statically
  provisioned resources of equal cost.
- **Centralized FaaS** — all computation in the cloud on OpenWhisk.
- **Distributed Edge** — all computation on the devices; only final
  outputs go upstream.
- **HiveMind** — hybrid placement by the compiler, HiveMind's serverless
  scheduler, FPGA network + remote-memory acceleration, straggler
  mitigation, fault tolerance.

Ablation configs (Fig 13) toggle individual mechanisms: "Centr-Net Accel",
"+Remote Mem", "Distr-Net Accel", "HiveMind-No Accel".

Each mechanism rule has one definition, a method of
:class:`PlatformConfig`; the runners, the cloud gateways and the
closed-form models (mean-field, fig18, sweep) all ask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..config import PaperConstants
from ..dsl import HiveMindCompiler
from ..telemetry import (
    BandwidthMeter,
    BreakdownAggregate,
    EnergyAccount,
    MetricSeries,
    fleet_consumed_percent,
)

__all__ = ["PlatformConfig", "RunResult", "PLATFORMS", "platform_config",
           "CLOUD_BUDGET_CORES", "DEVICES_PER_CONTROLLER",
           "FILTER_CEILING_MB"]

EXECUTION_MODES = ("cloud_faas", "cloud_iaas", "edge", "hybrid")

#: Devices per shared-state scheduler as HiveMind scales out (section 4.3).
DEVICES_PER_CONTROLLER = 64
#: Content bound on HiveMind's filtered upload: the useful content of a
#: frame batch (detected regions of interest) does not grow with raw
#: resolution, so the on-board filter ships at most this much per batch.
FILTER_CEILING_MB = 8.0
#: HiveMind reserves cloud headroom for performance predictability (cores
#: are pinned, never shared, and other tenants coexist): when the swarm's
#: aggregate recognition demand would exceed this many dedicated cores,
#: the runtime remaps the excess batches to on-board execution — the
#: task-granularity runtime remapping of section 4.2, and the reason
#: Fig 17b's bandwidth grows sublinearly ("accommodates more computation
#: on-board" at scale).
CLOUD_BUDGET_CORES = 96.0


@dataclass(frozen=True)
class PlatformConfig:
    """Everything that distinguishes one system under test."""

    name: str
    execution: str
    #: FPGA RPC offload for edge<->cloud traffic (section 4.5).
    net_accel: bool = False
    #: FPGA remote-memory fabric for function data exchange (section 4.4).
    remote_mem: bool = False
    #: Serverless placement policy.
    scheduler: str = "openwhisk"
    #: Straggler watchdog + duplicate launches (section 4.6).
    straggler_mitigation: bool = False
    #: Shared-state scheduler instances (HiveMind scales these out).
    n_controllers: int = 1
    #: Hybrid on-board filtering before upload (partial edge execution).
    edge_filtering: bool = False
    #: Idle-container lifetime. Stock OpenWhisk reclaims aggressively
    #: (which is what makes instantiation ~22% of median latency, Fig 6b);
    #: HiveMind deliberately keeps idling containers 10-30 s (section 4.3).
    container_keepalive_s: float = 1.5

    def __post_init__(self):
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.n_controllers <= 0:
            raise ValueError("need at least one controller")
        if not self.container_keepalive_s >= 0:
            raise ValueError("container keep-alive must be non-negative")

    @property
    def sharing(self) -> str:
        return "remote_memory" if self.remote_mem else "couchdb"

    @property
    def cloud_backed(self) -> bool:
        """True when the platform runs an OpenWhisk cloud."""
        return self.execution in ("cloud_faas", "hybrid")

    def controllers_for(self, n_devices: int) -> int:
        """HiveMind spawns shared-state schedulers as the swarm grows
        (section 4.3); stock OpenWhisk keeps its single controller."""
        if self.scheduler != "hivemind":
            return self.n_controllers
        return max(self.n_controllers,
                   math.ceil(n_devices / DEVICES_PER_CONTROLLER))

    def fabric_constants(self, constants: PaperConstants) -> PaperConstants:
        """Wireless goodput improves when the cloud endpoint is offloaded
        (section 4.5). Workload rates are always derived from the base
        constants, so every platform sees the identical offered load."""
        if not self.net_accel:
            return constants
        return replace(constants, wireless=replace(
            constants.wireless,
            mac_efficiency=constants.accel.mac_efficiency_accel))

    def tier_of(self, workload, stage: str, constants: PaperConstants,
                n_devices: int, device_kind: str = "drone") -> str:
        """Where ``stage`` of ``workload`` (anything with ``dsl_graph()``)
        runs: hybrid platforms ask the HiveMind compiler (section 4.2),
        the distributed platforms run on the edge, the rest in the
        cloud."""
        if self.execution == "hybrid":
            graph, directives = workload.dsl_graph()
            compiler = HiveMindCompiler(constants, n_devices=n_devices,
                                        device_kind=device_kind,
                                        accelerated=self.net_accel)
            return compiler.compile(graph, directives).placement.tier_of(
                stage)
        return "edge" if self.execution == "edge" else "cloud"

    def filters(self, app) -> bool:
        """Hybrid platforms filter on board before upload whenever the
        app's filter discards anything."""
        return (self.execution == "hybrid" and self.edge_filtering and
                app.edge_filter_keep < 1.0)

    def upload_mb(self, app, megabytes: float) -> float:
        """What crosses the air for a ``megabytes`` batch of ``app``."""
        if not self.filters(app):
            return megabytes
        return min(megabytes * app.edge_filter_keep, FILTER_CEILING_MB)

    def cloud_fraction(self, app, n_devices: int,
                       budget_cores: float = CLOUD_BUDGET_CORES) -> float:
        """Share of a cloud-placed stage's batches the cloud admits:
        hybrid platforms remap demand past ``budget_cores`` to on-board
        execution (section 4.2); the others admit every batch."""
        if self.execution != "hybrid":
            return 1.0
        return min(1.0, budget_cores / (n_devices * app.cloud_service_s))


PLATFORMS: Dict[str, PlatformConfig] = {
    "centralized_iaas": PlatformConfig(
        name="centralized_iaas", execution="cloud_iaas"),
    "centralized_faas": PlatformConfig(
        name="centralized_faas", execution="cloud_faas"),
    "distributed_edge": PlatformConfig(
        name="distributed_edge", execution="edge"),
    "hivemind": PlatformConfig(
        name="hivemind", execution="hybrid", net_accel=True,
        remote_mem=True, scheduler="hivemind",
        straggler_mitigation=True, n_controllers=4, edge_filtering=True,
        container_keepalive_s=20.0),
    # -- Fig 13 ablations -------------------------------------------------
    "centralized_net_accel": PlatformConfig(
        name="centralized_net_accel", execution="cloud_faas",
        net_accel=True),
    "centralized_net_remote": PlatformConfig(
        name="centralized_net_remote", execution="cloud_faas",
        net_accel=True, remote_mem=True),
    "distributed_net_accel": PlatformConfig(
        name="distributed_net_accel", execution="edge", net_accel=True),
    "hivemind_no_accel": PlatformConfig(
        name="hivemind_no_accel", execution="hybrid", net_accel=False,
        remote_mem=False, scheduler="hivemind",
        straggler_mitigation=True, n_controllers=4, edge_filtering=True,
        container_keepalive_s=20.0),
    # -- Section 4.7: deploying on a public cloud -------------------------
    # Without full system control HiveMind keeps the programmability and
    # task-placement benefits (DSL + hybrid execution + filtering) but
    # loses physical placement (stock scheduler, no colocation) and, when
    # the provider has no network-attached FPGAs, both fabrics.
    "hivemind_public_cloud": PlatformConfig(
        name="hivemind_public_cloud", execution="hybrid",
        net_accel=False, remote_mem=False, scheduler="openwhisk",
        straggler_mitigation=True, n_controllers=1, edge_filtering=True,
        container_keepalive_s=20.0),
}


def platform_config(name: str) -> PlatformConfig:
    found = PLATFORMS.get(name)
    if found is None:
        raise ValueError(
            f"unknown platform {name!r}; valid: {sorted(PLATFORMS)}")
    return found


@dataclass
class RunResult:
    """Everything one run of (platform, workload) produced."""

    platform: str
    workload: str
    task_latencies: MetricSeries
    breakdowns: BreakdownAggregate
    energy_accounts: List[EnergyAccount]
    wireless_meter: BandwidthMeter
    duration_s: float
    completed: bool = True
    #: Workload-specific outputs (detection counts, unique people, ...).
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def median_latency_s(self) -> float:
        return self.task_latencies.median

    @property
    def tail_latency_s(self) -> float:
        return self.task_latencies.p99

    def battery_summary(self) -> "tuple[float, float]":
        """(mean %, worst %) consumed battery across the fleet."""
        return fleet_consumed_percent(self.energy_accounts)

    def bandwidth_summary(self) -> "tuple[float, float]":
        """(mean MB/s, p99 MB/s) on the wireless medium."""
        return (self.wireless_meter.mean_mbs(self.duration_s),
                self.wireless_meter.percentile_mbs(99, self.duration_s))
