"""Worker-level chaos: fault plans for the *execution harness itself*.

The fault plans in :mod:`repro.faults.plan` perturb the simulated world;
a :class:`WorkerFaultPlan` perturbs the real worker processes that run
it. Each :class:`WorkerFault` names one shard (`scope="shard"`) or
cloud-region (`scope="cloud"`) worker and one protocol operation — the
n-th command the driver sends over that worker's pipe — and an action:

- ``kill`` — the driver SIGKILLs the worker right after sending the
  operation, so the worker dies mid-work (injected parent-side: a
  SIGKILL cannot be cooperative).
- ``hang`` — the worker stops answering at that operation (injected
  worker-side: it sleeps far past any deadline until the supervisor
  terminates it).
- ``slow`` — the worker delays its reply by ``delay_s`` (worker-side;
  exercises deadline headroom without tripping recovery).

Plans are pure data with a flat string spec, as taken by
``python -m repro.experiments --chaos-workers SPEC``::

    kill:shard:0:2,hang:shard:1:3,slow:cloud:0:1:0.2

i.e. comma-separated ``action:scope:worker:op[:delay_s]`` entries with
1-based operation indices. Faults are one-shot: recovery finishes a
disturbed worker's work in the driver, where no process is left to kill
or hang, so a plan cannot wedge a run into an infinite kill loop.

Determinism contract: because every cell and region replays to
byte-identical state from its spec (see
:mod:`repro.sim.supervisor`), an armed worker-fault plan changes
wall-clock and incident accounting but never the merged result rows —
the chaos-workers harness lane pins exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["WorkerFault", "WorkerFaultPlan", "ACTIONS", "SCOPES"]

ACTIONS = ("kill", "hang", "slow")
SCOPES = ("shard", "cloud")

#: Default reply delay for ``slow`` faults when the spec omits one.
DEFAULT_SLOW_S = 0.1


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled harness fault (pure data, picklable)."""

    action: str
    scope: str
    worker: int
    #: 1-based index of the pipe operation the fault fires at.
    op: int
    delay_s: float = DEFAULT_SLOW_S

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown worker-fault action "
                             f"{self.action!r}; valid: {ACTIONS}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown worker scope {self.scope!r}; "
                             f"valid: {SCOPES}")
        if self.worker < 0:
            raise ValueError("worker index must be non-negative")
        if self.op < 1:
            raise ValueError("operation index is 1-based")
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise ValueError(f"slow-fault delay must be finite and "
                             f"non-negative, got {self.delay_s!r}")

    def spec(self) -> str:
        base = f"{self.action}:{self.scope}:{self.worker}:{self.op}"
        if self.action == "slow":
            # repr: the shortest text that parses back to the same float.
            return f"{base}:{self.delay_s!r}"
        return base


@dataclass(frozen=True)
class WorkerFaultPlan:
    """An immutable set of worker faults plus spec round-tripping."""

    faults: Tuple[WorkerFault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "WorkerFaultPlan":
        """Parse a ``--chaos-workers`` spec string (empty = unarmed)."""
        faults = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) not in (4, 5):
                raise ValueError(
                    f"bad worker-fault entry {entry!r}; expected "
                    "action:scope:worker:op[:delay_s]")
            action, scope = parts[0], parts[1]
            try:
                worker, op = int(parts[2]), int(parts[3])
                delay_s = float(parts[4]) if len(parts) == 5 \
                    else DEFAULT_SLOW_S
            except ValueError:
                raise ValueError(
                    f"bad worker-fault entry {entry!r}: worker/op must "
                    "be integers, delay a float") from None
            if len(parts) == 5 and action != "slow":
                raise ValueError(
                    f"bad worker-fault entry {entry!r}: only 'slow' "
                    "faults take a delay")
            faults.append(WorkerFault(action=action, scope=scope,
                                      worker=worker, op=op,
                                      delay_s=delay_s))
        return cls(faults=tuple(faults))

    @property
    def armed(self) -> bool:
        return bool(self.faults)

    def spec(self) -> str:
        return ",".join(fault.spec() for fault in self.faults)

    # -- routing --------------------------------------------------------
    def kill_ops(self, scope: str, worker: int) -> FrozenSet[int]:
        """Driver-side kill schedule for one worker."""
        return frozenset(f.op for f in self.faults
                         if f.action == "kill" and f.scope == scope
                         and f.worker == worker)

    def worker_side(self, scope: str, worker: int
                    ) -> Tuple[Tuple[str, int, float], ...]:
        """The (action, op, delay_s) triples a worker injects itself
        (hang/slow — shipped as plain tuples so the worker process needs
        no imports beyond the supervision helpers)."""
        return tuple((f.action, f.op, f.delay_s) for f in self.faults
                     if f.action in ("hang", "slow") and f.scope == scope
                     and f.worker == worker)

    def __len__(self) -> int:
        return len(self.faults)
