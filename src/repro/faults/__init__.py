"""Unified fault injection, recovery accounting, and invariant checking.

The paper's robustness story (section 4.6, Figs 5c/10) is that HiveMind
survives device failures, function failures, and stragglers without losing
tasks. This package makes that claim testable end to end:

- :class:`FaultPlan` — a declarative, deterministic schedule of fault
  events (device crash, battery brownout, link degradation, cloud
  partition, server/invoker crash, CouchDB/Kafka outage, function-fault
  rate changes).
- :class:`FaultInjector` — arms a plan against a live simulation: it owns
  one process that walks the schedule and drives the per-layer hooks.
  It is the only place a plan runs: the monolithic
  :class:`~repro.platforms.runner.SingleTierRunner` (``--chaos``).
  Sharded runs take no simulated plan; their chaos is
  :class:`WorkerFaultPlan`, which kills and hangs real shard workers
  (``--chaos-workers``).
- :class:`InvariantChecker` — conservation-of-work observer: every
  submitted task completes or is accounted exactly once, no invocation
  finishes twice, device batteries never go negative, and the kernel
  clock never runs backwards.
- :class:`ResilienceReport` — per-run recovery accounting (requeues,
  sheds, respawns, recovery-latency percentiles, makespan inflation).

Determinism contract: with no plan armed nothing in this package touches a
simulation — no events, no RNG draws, no extra callbacks — so fault-free
runs stay byte-identical to a build without it. An armed plan draws only
from its own dedicated RNG stream (``faults.injector``), never from the
streams the workload models own.
"""

from .invariants import InvariantChecker, Violation
from .injector import FaultInjector
from .plan import FaultEvent, FaultPlan, named_plan, plan_names
from .report import RecoveryLog, ResilienceReport
from .worker import WorkerFault, WorkerFaultPlan

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "InvariantChecker",
    "RecoveryLog",
    "ResilienceReport",
    "Violation",
    "WorkerFault",
    "WorkerFaultPlan",
    "named_plan",
    "plan_names",
]
