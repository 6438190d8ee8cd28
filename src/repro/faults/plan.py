"""Declarative fault schedules.

A :class:`FaultPlan` is a time-ordered list of :class:`FaultEvent`
records. Plans are pure data: building one touches no simulation state,
so the same plan can be replayed against any scenario.

Determinism/RNG-stream rule: events fire at the exact times written in
the plan, and composing a plan draws no randomness, so arming a plan
perturbs no workload stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["FaultEvent", "FaultPlan", "named_plan", "plan_names"]

#: Every fault kind the injector understands.
KINDS = frozenset({
    "device_crash",      # target: device index (int) or id
    "battery_brownout",  # magnitude: battery fraction drained
    "link_degrade",      # magnitude: capacity factor in (0, 1]
    "cloud_partition",   # duration_s: unreachable window
    "server_crash",      # target: server id
    "invoker_crash",     # target: server id; duration_s: reboot
    "couchdb_outage",    # duration_s: store stalls
    "kafka_outage",      # duration_s: bus stalls
    "function_faults",   # magnitude: per-execution fault rate
})
#: Kinds that act on the serverless cloud: a platform without one cannot
#: apply them.
CLOUD_KINDS = frozenset({"server_crash", "invoker_crash", "couchdb_outage",
                         "kafka_outage", "function_faults"})
#: Kinds whose target is one edge device.
DEVICE_KINDS = frozenset({"device_crash", "battery_brownout"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    kind: str
    target: Optional[str] = None
    #: Length of windowed faults (outages, partitions, reboot delay of an
    #: invoker crash). Zero means permanent (crashes) or instantaneous
    #: (brownout).
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


@dataclass
class FaultPlan:
    """A named, deterministic schedule of fault events."""

    name: str = "adhoc"
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

    def server_crash(self, time: float, target: str) -> "FaultPlan":
        return self.add(FaultEvent(time, "server_crash", target=target))

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
