"""Declarative fault schedules.

A :class:`FaultPlan` is a seed-stamped, time-ordered list of
:class:`FaultEvent` records. Plans are pure data: building one touches no
simulation state, so the same plan can be replayed against any scenario
(and serialized through ``to_dict``/``from_dict`` for harness configs).

Determinism/RNG-stream rule: events fire at the exact times written in
the plan. Any randomness used to *compose* a plan (e.g. picking which
server crashes) happens here, at build time, from the plan's own seed —
never at injection time — so arming a plan perturbs no workload stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultEvent", "FaultPlan", "PartitionedPlan", "named_plan",
           "plan_names", "region_count", "server_index"]

#: Every fault kind the injector understands, with the layer it targets.
KINDS = {
    "device_crash": "edge",        # target: device index (int) or id
    "battery_brownout": "edge",    # magnitude: battery fraction drained
    "link_degrade": "network",     # magnitude: capacity factor in (0, 1]
    "cloud_partition": "network",  # duration_s: unreachable window
    "server_crash": "cluster",     # target: server id; duration_s: reboot
    "invoker_crash": "serverless",  # target: server id; duration_s: reboot
    "couchdb_outage": "serverless",  # duration_s: store stalls
    "kafka_outage": "serverless",  # duration_s: bus stalls
    "function_faults": "serverless",  # magnitude: per-execution fault rate
}


#: A backend server id as the cluster names it (``server0``, ``server1``,
#: ...): no sign, no leading zero, nothing after the index.
_SERVER_ID = re.compile(r"server(0|[1-9][0-9]*)")


def server_index(target: Optional[str], n_servers: int) -> int:
    """The index of the backend server a crash event targets.

    Only an id the cluster has is accepted, ``server<N>`` with
    ``N < n_servers``, as the monolithic platform's ``invoker_of``
    accepts; anything else raises ``ValueError``.
    """
    match = _SERVER_ID.fullmatch(str(target))
    if match is None or int(match.group(1)) >= n_servers:
        raise ValueError(f"crash target {target!r} is not a server id "
                         f"server0..server{n_servers - 1}")
    return int(match.group(1))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    kind: str
    target: Optional[str] = None
    #: Length of windowed faults (outages, partitions, reboot delay of a
    #: crash). Zero means permanent (crashes) or instantaneous (brownout).
    duration_s: float = 0.0
    #: Kind-specific intensity: capacity factor for ``link_degrade``,
    #: drained battery fraction for ``battery_brownout``, per-execution
    #: failure probability for ``function_faults``.
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid: {sorted(KINDS)}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration_s < 0:
            raise ValueError("fault duration must be non-negative")
        if self.kind == "link_degrade" and not 0 < self.magnitude <= 1:
            raise ValueError("link_degrade magnitude is a capacity factor "
                             "in (0, 1]")
        if self.kind == "battery_brownout" and not 0 < self.magnitude <= 1:
            raise ValueError("brownout magnitude is a battery fraction "
                             "in (0, 1]")
        if self.kind == "function_faults" and not 0 <= self.magnitude < 1:
            raise ValueError("function fault rate must be in [0, 1)")

    @property
    def layer(self) -> str:
        return KINDS[self.kind]

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "target": self.target,
                "duration_s": self.duration_s, "magnitude": self.magnitude}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(time=float(data["time"]), kind=data["kind"],
                   target=data.get("target"),
                   duration_s=float(data.get("duration_s", 0.0)),
                   magnitude=float(data.get("magnitude", 0.0)))


@dataclass
class FaultPlan:
    """A named, deterministic schedule of fault events."""

    name: str = "adhoc"
    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    # -- composition ------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def device_crash(self, time: float, target: str) -> "FaultPlan":
        return self.add(FaultEvent(time, "device_crash", target=target))

    def battery_brownout(self, time: float, target: str,
                         fraction: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "battery_brownout", target=target,
                                   magnitude=fraction))

    def link_degrade(self, time: float, duration_s: float,
                     factor: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "link_degrade",
                                   duration_s=duration_s, magnitude=factor))

    def cloud_partition(self, time: float,
                        duration_s: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "cloud_partition",
                                   duration_s=duration_s))

    def server_crash(self, time: float, target: str,
                     reboot_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(time, "server_crash", target=target,
                                   duration_s=reboot_s))

    def invoker_crash(self, time: float, target: str,
                      reboot_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(time, "invoker_crash", target=target,
                                   duration_s=reboot_s))

    def couchdb_outage(self, time: float,
                       duration_s: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "couchdb_outage",
                                   duration_s=duration_s))

    def kafka_outage(self, time: float, duration_s: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "kafka_outage",
                                   duration_s=duration_s))

    def function_faults(self, time: float, rate: float) -> "FaultPlan":
        return self.add(FaultEvent(time, "function_faults",
                                   magnitude=rate))

    # -- views ------------------------------------------------------------
    @property
    def armed(self) -> bool:
        return bool(self.events)

    def sorted_events(self) -> List[FaultEvent]:
        """Events in firing order (time, then insertion order)."""
        return [event for _, event in
                sorted(enumerate(self.events),
                       key=lambda pair: (pair[1].time, pair[0]))]

    def horizon(self) -> float:
        """Last instant the plan touches (event end times included)."""
        if not self.events:
            return 0.0
        return max(e.time + e.duration_s for e in self.events)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({e.kind for e in self.events}))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(name=data.get("name", "adhoc"),
                   seed=int(data.get("seed", 0)),
                   events=[FaultEvent.from_dict(e)
                           for e in data.get("events", ())])

    def __len__(self) -> int:
        return len(self.events)

    # -- sharded decomposition --------------------------------------------
    def partition(self, n_devices: int,
                  cell_devices: int = 64,
                  region_devices: Optional[int] = None,
                  n_servers: Optional[int] = None) -> "PartitionedPlan":
        """Split this plan along the sharded runtime's cell decomposition.

        Device-layer events route to the cell that owns their target
        (target rewritten to the *local* index inside that cell, matching
        :func:`repro.sim.shard.plan_cells`). Network-layer events are
        replicated into every cell — each cell simulates its own slice of
        the access network, so a link degradation or cloud partition hits
        all of them. Cluster/serverless events land in the shared
        ``cloud`` plan, which the coordinating process owns.

        ``region_devices`` additionally builds per-region plans for the
        cloud-sharded runtime (``REPRO_CLOUD_SHARDS``) as a *parallel
        view* of the same backend events (the legacy ``cloud`` plan is
        unchanged): server/invoker crashes route to the region owning
        that server under the contiguous
        :func:`repro.serverless.region.region_server_count` split;
        CouchDB/Kafka outage windows replicate to every region (each
        region owns a proportional shard of the store/bus, so the
        outage stalls all of them — parity with the monolithic
        gateway); cloud-partition windows and function-fault rates
        replicate to every region. Regions count as in
        :func:`region_count`, which rejects regions of partial cells.
        ``n_servers`` defaults to the swarm-scaled cluster size — pass
        it when partitioning for a custom cluster.

        Pure data in, pure data out: the method never touches simulation
        state, so a plan can be partitioned for any swarm size and the
        pieces serialized alongside the cells.
        """
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if cell_devices <= 0:
            raise ValueError("cell_devices must be positive")
        cell_devices = min(cell_devices, n_devices)
        cells: Dict[int, FaultPlan] = {}
        cloud = FaultPlan(name=f"{self.name}:cloud", seed=self.seed)
        regions: Dict[int, FaultPlan] = {}
        n_regions = None
        if region_devices is not None:
            n_regions = region_count(n_devices, cell_devices,
                                     region_devices)
        if n_servers is None:
            from ..config import DEFAULT
            n_servers = DEFAULT.scaled_for_swarm(n_devices).cluster.servers

        def cell_plan(index: int) -> FaultPlan:
            if index not in cells:
                cells[index] = FaultPlan(
                    name=f"{self.name}:cell{index}", seed=self.seed)
            return cells[index]

        def region_plan(index: int) -> FaultPlan:
            if index not in regions:
                regions[index] = FaultPlan(
                    name=f"{self.name}:region{index}", seed=self.seed)
            return regions[index]

        for event in self.sorted_events():
            layer = event.layer
            if layer == "edge":
                index = int(event.target)
                if not 0 <= index < n_devices:
                    raise ValueError(
                        f"device index {index} outside the swarm "
                        f"of {n_devices}")
                local = FaultEvent(
                    time=event.time, kind=event.kind,
                    target=str(index % cell_devices),
                    duration_s=event.duration_s,
                    magnitude=event.magnitude)
                cell_plan(index // cell_devices).add(local)
            elif layer == "network":
                n_cells = -(-n_devices // cell_devices)
                for cell in range(n_cells):
                    cell_plan(cell).add(event)
                if n_regions is not None and event.kind == "cloud_partition":
                    for region in range(n_regions):
                        region_plan(region).add(event)
            else:  # cluster / serverless — shared backend state.
                crash = event.kind in ("server_crash", "invoker_crash")
                if crash:
                    server = server_index(event.target, n_servers)
                cloud.add(event)
                if n_regions is None:
                    continue
                if crash:
                    region_plan(_owning_region(
                        server, n_regions, n_servers)).add(event)
                elif event.kind in ("couchdb_outage", "kafka_outage"):
                    # Every region owns a proportional shard of the
                    # store/bus, so an outage window stalls all of them
                    # — routing to region 0 only (the pre-supervision
                    # behaviour) under-injected cloud-sharded chaos runs
                    # versus the monolithic gateway.
                    for region in range(n_regions):
                        region_plan(region).add(event)
                else:  # function_faults — a platform-wide rate.
                    for region in range(n_regions):
                        region_plan(region).add(event)
        return PartitionedPlan(source=self, n_devices=n_devices,
                               cell_devices=cell_devices, cells=cells,
                               cloud=cloud, region_devices=region_devices,
                               regions=regions)


def region_count(n_devices: int, cell_devices: int,
                 region_devices: int) -> int:
    """Cloud regions of a swarm: ``ceil(n_devices / region_devices)``.

    A cell (``cell_devices`` clamped to the swarm) belongs to the region
    of its base device, so several regions must be whole cells each.
    """
    if region_devices <= 0:
        raise ValueError("region_devices must be positive")
    if n_devices > region_devices and region_devices % cell_devices:
        raise ValueError(
            f"region_devices={region_devices} is not a multiple of "
            f"cell_devices={cell_devices}")
    return -(-n_devices // region_devices)


def _owning_region(server: int, n_regions: int, n_servers: int) -> int:
    """Region owning backend ``server`` under the contiguous split of
    :func:`repro.serverless.region.region_server_count` (when regions
    outnumber servers each region maps to one logical server, so the
    owner is the same-index region)."""
    if n_regions >= n_servers:
        return min(server, n_regions - 1)
    base, extra = divmod(n_servers, n_regions)
    cumulative = 0
    for region in range(n_regions):
        cumulative += base + (1 if region < extra else 0)
        if server < cumulative:
            return region
    return n_regions - 1


@dataclass(frozen=True)
class PartitionedPlan:
    """A :class:`FaultPlan` split along shard-cell ownership lines."""

    source: FaultPlan
    n_devices: int
    cell_devices: int
    #: Cell index -> that cell's local plan (device targets re-indexed;
    #: network events replicated). Cells with no events are absent.
    cells: Dict[int, FaultPlan]
    #: Cluster + serverless events; owned by the coordinating process.
    cloud: FaultPlan
    #: Region decomposition used for ``regions`` (None when the plan was
    #: partitioned without one; the legacy ``cloud`` plan is always
    #: built either way).
    region_devices: Optional[int] = None
    #: Region index -> that region's backend plan — a parallel view of
    #: the ``cloud`` events for the cloud-sharded runtime. Regions with
    #: no events are absent.
    regions: Dict[int, FaultPlan] = field(default_factory=dict)

    def cell(self, index: int) -> FaultPlan:
        """The plan for one cell (an empty plan when nothing targets it)."""
        return self.cells.get(
            index, FaultPlan(name=f"{self.source.name}:cell{index}",
                             seed=self.source.seed))

    def region(self, index: int) -> FaultPlan:
        """One region's backend plan (empty when nothing targets it)."""
        return self.regions.get(
            index, FaultPlan(name=f"{self.source.name}:region{index}",
                             seed=self.source.seed))

    def device_crash_schedule(self) -> List[Tuple[int, float]]:
        """(global device index, time) crash pairs, which
        :func:`repro.sim.shard.plan_run` hands to
        :func:`~repro.sim.shard.plan_cells` to place on their cells."""
        schedule = []
        for event in self.source.sorted_events():
            if event.kind == "device_crash":
                schedule.append((int(event.target), event.time))
        return schedule

    def __len__(self) -> int:
        return (len(self.cloud)
                + sum(len(plan) for plan in self.cells.values()))


# -- named plans ----------------------------------------------------------
def _mixed(duration_s: float) -> FaultPlan:
    """The acceptance plan: 20% function faults + one server crash + one
    cloud-partition window (ISSUE 4)."""
    plan = FaultPlan(name="mixed")
    plan.function_faults(0.0, 0.20)
    plan.server_crash(0.30 * duration_s, "server0")
    plan.cloud_partition(0.55 * duration_s, 0.10 * duration_s)
    return plan


def _partition(duration_s: float) -> FaultPlan:
    plan = FaultPlan(name="partition")
    plan.cloud_partition(0.40 * duration_s, 0.20 * duration_s)
    return plan


def _cluster_storm(duration_s: float) -> FaultPlan:
    """Cloud-side pile-up: invoker crash with reboot, CouchDB and Kafka
    outage windows, and a degraded wireless link."""
    plan = FaultPlan(name="cluster_storm")
    plan.invoker_crash(0.25 * duration_s, "server1",
                       reboot_s=0.10 * duration_s)
    plan.couchdb_outage(0.40 * duration_s, 0.05 * duration_s)
    plan.kafka_outage(0.50 * duration_s, 0.05 * duration_s)
    plan.link_degrade(0.60 * duration_s, 0.20 * duration_s, 0.5)
    return plan


def _edge_attrition(duration_s: float) -> FaultPlan:
    """Edge-side decay: a crash plus a brownout on two distinct devices."""
    plan = FaultPlan(name="edge_attrition")
    plan.device_crash(0.30 * duration_s, "0")
    plan.battery_brownout(0.50 * duration_s, "1", 0.95)
    return plan


_NAMED = {
    "mixed": _mixed,
    "partition": _partition,
    "cluster_storm": _cluster_storm,
    "edge_attrition": _edge_attrition,
}


def plan_names() -> List[str]:
    return sorted(_NAMED)


def named_plan(name: str, duration_s: float) -> FaultPlan:
    """Build one of the canonical plans, scaled to ``duration_s``."""
    builder = _NAMED.get(name)
    if builder is None:
        raise ValueError(
            f"unknown fault plan {name!r}; valid: {plan_names()}")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return builder(duration_s)
