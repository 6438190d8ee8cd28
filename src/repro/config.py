"""Calibration constants for the HiveMind reproduction.

Single source of truth for every physical and system constant used by the
models. Values fall in two classes:

- **Paper-stated** — taken directly from the ISCA'22 paper (section noted in
  the field comment). Examples: drone speed 4 m/s, camera 8 fps x 2 MB
  frames, two 867 Mbps access points, heartbeat period 1 s / timeout 3 s,
  straggler threshold p90.
- **Calibrated** — the paper gives only chart shapes (per-application service
  times, CouchDB latency, container cold-start); these are set to
  representative magnitudes for the named technologies so the reproduced
  figures match the paper's *shape* (who wins, by what factor, where
  crossovers fall). EXPERIMENTS.md records paper-vs-measured for each figure.

All times are seconds, data sizes megabytes (MB = 1e6 bytes), bandwidths
MB/s, powers watts, energies watt-hours, distances meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "DroneConstants",
    "CarConstants",
    "ClusterConstants",
    "WirelessConstants",
    "ServerlessConstants",
    "AccelerationConstants",
    "ControlConstants",
    "PaperConstants",
    "DEFAULT",
]

MBPS_PER_MBITPS = 1.0 / 8.0


@dataclass(frozen=True)
class DroneConstants:
    """Parrot AR. Drone 2.0 swarm parameters (paper section 2.1)."""

    count: int = 16                      # paper: 16 drones
    cpu_cores: int = 1                   # ARM Cortex A8, single core
    frames_per_second: float = 8.0       # paper: 8 fps default
    frame_mb: float = 2.0                # paper: 2 MB per frame default
    speed_mps: float = 4.0               # paper: 4 m/s
    fov_width_m: float = 6.7             # paper: 6.7 m x 8.75 m coverage
    fov_depth_m: float = 8.75
    # Battery (calibrated: AR Drone 2.0 packs are 11.1 Wh new; the fleet's
    # field-aged packs hold well under half that, which is what makes the
    # paper's consumed-battery percentages move visibly within ~2-minute
    # jobs).
    battery_wh: float = 4.0
    motion_power_w: float = 42.0         # hover+cruise draw
    # Sustained full-load board draw: A8 + RAM + camera ISP + USB flash
    # I/O. On-board execution visibly drains the pack (section 2.3).
    compute_power_w: float = 12.0
    compute_idle_w: float = 1.2
    radio_tx_w: float = 7.0              # WiFi TX incl. amplifier + CSMA
    radio_rx_w: float = 2.0              # contention/retry overhead
    radio_idle_w: float = 0.35
    turn_time_s: float = 1.8             # time lost per 180-degree lawnmower turn
    # Edge CPU slowdown factor relative to one cloud core, for a
    # compute-bound task (Cortex A8 vs. Xeon; calibrated).
    cloud_to_edge_slowdown: float = 9.0


@dataclass(frozen=True)
class CarConstants:
    """Robotic car swarm parameters (paper section 5.5)."""

    count: int = 14                      # paper: 14 robotic cars
    cpu_cores: int = 4                   # Raspberry Pi
    speed_mps: float = 1.2
    battery_wh: float = 37.0             # cars are less power-constrained
    motion_power_w: float = 9.0
    compute_power_w: float = 4.5
    compute_idle_w: float = 1.6
    radio_tx_w: float = 2.1
    radio_rx_w: float = 0.9
    radio_idle_w: float = 0.25
    cloud_to_edge_slowdown: float = 4.0  # Pi is ~2x the A8 per core, 4 cores


@dataclass(frozen=True)
class ClusterConstants:
    """Backend server cluster (paper section 2.1)."""

    servers: int = 12                    # paper: 12 two-socket servers
    cores_per_server: int = 40           # paper: 40 cores
    ram_gb_per_server: float = 192.0     # paper: 128-256 GB
    nic_mbps: float = 10_000.0           # paper: 10 GbE NICs
    tor_mbps: float = 40_000.0           # paper: 40 Gbps ToR
    # Calibrated software-stack costs.
    sw_rpc_overhead_s: float = 45e-6     # kernel TCP/IP per-RPC CPU cost
    tor_latency_s: float = 4e-6          # store-and-forward + propagation
    nic_bandwidth_mbs: float = 10_000.0 * MBPS_PER_MBITPS


@dataclass(frozen=True)
class WirelessConstants:
    """Edge-to-cloud wireless network (paper section 2.1)."""

    access_points: int = 2               # paper: two LinkSys AC2200 routers
    ap_mbps: float = 867.0               # paper: 867 Mbps each
    # Field-distance WiFi round trip incl. TCP ack (calibrated: tens of
    # ms at 50-100 m with contention — not LAN-grade).
    base_rtt_s: float = 18e-3
    per_hop_latency_s: float = 4e-3
    loss_rate: float = 0.002             # light random loss; retransmit cost
    # CSMA congestion collapse: per-queued-transfer goodput degradation
    # and its cap (calibrated so oversubscribed uplinks lose up to ~60%
    # goodput, the WiFi collision-collapse regime).
    contention_penalty: float = 0.01
    max_collapse: float = 1.5
    # 867 Mbps is the PHY rate; with many contending stations the MAC
    # delivers roughly this fraction as goodput (calibrated).
    mac_efficiency: float = 0.80

    @property
    def ap_mbs(self) -> float:
        """Per-access-point goodput in MB/s (MAC-efficiency adjusted)."""
        return self.ap_mbps * MBPS_PER_MBITPS * self.mac_efficiency

    @property
    def total_mbs(self) -> float:
        return self.access_points * self.ap_mbs


@dataclass(frozen=True)
class ServerlessConstants:
    """OpenWhisk-style control-plane latencies (calibrated, section 3)."""

    # Front-end (NGINX) + auth check against CouchDB.
    frontend_latency_s: float = 0.8e-3
    auth_check_s: float = 2.5e-3
    # Controller decision + Kafka publish-subscribe hop to the invoker.
    controller_decision_s: float = 1.5e-3
    kafka_hop_s: float = 2.0e-3
    # Docker container lifecycle (paper: "millisecond-level overheads",
    # Fig 6b instantiation ~22% of median latency).
    cold_start_median_s: float = 0.42
    cold_start_sigma: float = 0.35       # lognormal sigma for cold starts
    warm_start_s: float = 0.009
    # Paper section 4.3: idle containers linger 10-30 s.
    default_keepalive_s: float = 20.0
    # CouchDB data sharing (Fig 6c): controller round-trip for the handle
    # plus store/load at limited effective throughput.
    couchdb_handle_s: float = 9e-3
    couchdb_latency_s: float = 6e-3
    couchdb_mbs: float = 95.0
    couchdb_tail_alpha: float = 2.6      # pareto tail for compactions
    # Direct RPC data sharing between functions (Fig 6c).
    rpc_share_latency_s: float = 1.1e-3
    rpc_share_mbs: float = 950.0
    # In-memory handoff when child shares the parent's container (Fig 6c).
    inmem_latency_s: float = 40e-6
    inmem_mbs: float = 9_000.0
    # Function interference: latency inflation per colocated function on the
    # same server beyond half occupancy (serverless variability, Fig 6a).
    interference_slope: float = 0.35
    # Default per-user concurrency limit (AWS Lambda default cited: 1000).
    concurrency_limit: int = 1000
    # Scheduler/controller activation service time: the shared-state
    # bottleneck that caps a single OpenWhisk controller near ~450
    # activations/s (calibrated to production OpenWhisk deployments).
    controller_service_s: float = 2.2e-3


@dataclass(frozen=True)
class AccelerationConstants:
    """FPGA fabrics (paper sections 4.4, 4.5)."""

    # Remote memory access between functions over the UPI fabric.
    remote_mem_latency_s: float = 3.6e-6
    remote_mem_mbs: float = 8_200.0
    # Network acceleration freeing host CPU: fraction of the software
    # per-RPC CPU cost that remains with offload.
    residual_cpu_fraction: float = 0.06
    # With the cloud-side RPC stack offloaded, the endpoint keeps up with
    # line rate: fewer drops, less backpressure, better effective MAC
    # goodput on the shared medium (vs the software stack's 0.80).
    mac_efficiency_accel: float = 0.92


@dataclass(frozen=True)
class ControlConstants:
    """HiveMind controller policies (paper sections 4.2-4.6)."""

    heartbeat_period_s: float = 1.0      # paper: once per second
    heartbeat_timeout_s: float = 3.0     # paper: >3 s means failed
    straggler_percentile: float = 90.0   # paper: p90 respawn threshold
    probation_s: float = 180.0           # paper: "a few minutes"


@dataclass(frozen=True)
class PaperConstants:
    """Bundle of every constant group, with scenario-level knobs."""

    drone: DroneConstants = field(default_factory=DroneConstants)
    car: CarConstants = field(default_factory=CarConstants)
    cluster: ClusterConstants = field(default_factory=ClusterConstants)
    wireless: WirelessConstants = field(default_factory=WirelessConstants)
    serverless: ServerlessConstants = field(default_factory=ServerlessConstants)
    accel: AccelerationConstants = field(default_factory=AccelerationConstants)
    control: ControlConstants = field(default_factory=ControlConstants)
    # Scenario A: 15 tennis balls on a baseball field (section 2.1).
    scenario_a_items: int = 15
    # Scenario B: 25 people moving on the field (section 2.1).
    scenario_b_people: int = 25
    field_width_m: float = 110.0
    field_height_m: float = 110.0
    # Single-tier job duration (section 2.3).
    job_duration_s: float = 120.0

    def scaled_for_swarm(self, n_devices: int) -> "PaperConstants":
        """Scale world and radio for a simulated swarm of ``n_devices``.

        Field area grows linearly with the swarm (constant work per device)
        and access points are added proportionally (the paper scales network
        links "proportionately to the real experiments" in section 5.6);
        the backend cluster stays fixed, which is what exposes centralized
        scalability bottlenecks.
        """
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        ratio = n_devices / self.drone.count
        side = (self.field_width_m * self.field_height_m * ratio) ** 0.5
        return replace(
            self,
            drone=replace(self.drone, count=n_devices),
            wireless=replace(
                self.wireless,
                access_points=max(2, round(self.wireless.access_points * ratio)),
            ),
            field_width_m=side,
            field_height_m=side,
            scenario_a_items=max(1, round(self.scenario_a_items * ratio)),
            scenario_b_people=max(1, round(self.scenario_b_people * ratio)),
        )


#: Default constants used throughout unless an experiment overrides them.
DEFAULT = PaperConstants()
