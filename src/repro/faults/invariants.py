"""End-to-end invariant checking for chaos runs.

The :class:`InvariantChecker` is the conservation-of-work referee the
paper's robustness claims imply: injecting faults is only meaningful if
you can show recovery neither *lost* work nor *duplicated* it.

Checked invariants:

1. **Exactly-once completion** — every submitted task either completes or
   is explicitly accounted as lost (with a reason), and never both, and
   never twice (the straggler/respawn race the issue calls out).
2. **No double-finished invocations** — a single platform activation may
   be requeued after a crash but must produce exactly one completion
   record, with ordered timestamps.
3. **Energy sanity** — no device battery reports negative remaining
   charge (accounting bugs show up as drains past capacity + epsilon).
4. **Kernel clock monotonicity** — observed at the kernel's heap pop,
   the only place the clock moves: the environment's clock never moves
   backwards across dispatched events. Per-entity clocks (task
   submission times per device) must be monotone too.

The checker is armed explicitly (chaos mode); an unarmed simulation never
constructs one, preserving the byte-identical fault-free contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["InvariantChecker", "Violation"]

#: Slack for float battery accounting (Wh).
ENERGY_EPSILON_WH = 1e-9


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    invariant: str
    subject: str
    detail: str
    time: float

    def __str__(self) -> str:
        return (f"[{self.invariant}] {self.subject} at t={self.time:.3f}: "
                f"{self.detail}")


class InvariantChecker:
    """Work-conservation and sanity observer for one simulation."""

    def __init__(self, env):
        self.env = env
        self.violations: List[Violation] = []
        self._submitted: Dict[Any, float] = {}
        self._completed: Dict[Any, float] = {}
        self._lost: Dict[Any, str] = {}
        self._finished_invocations: Dict[int, float] = {}
        self._entity_clocks: Dict[str, float] = {}
        self._kernel_last_now = float("-inf")
        self._kernel_attached = False
        self._finalized = False

    # -- reporting helpers -------------------------------------------------
    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        self.violations.append(Violation(
            invariant=invariant, subject=str(subject), detail=detail,
            time=self.env.now))

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- task conservation -------------------------------------------------
    def task_submitted(self, task_id: Any) -> None:
        if task_id in self._submitted:
            self._flag("exactly_once", task_id, "submitted twice")
            return
        self._submitted[task_id] = self.env.now

    def task_completed(self, task_id: Any) -> None:
        if task_id not in self._submitted:
            self._flag("exactly_once", task_id,
                       "completed but never submitted")
            return
        if task_id in self._completed:
            self._flag("exactly_once", task_id,
                       "completed twice (straggler/respawn race)")
            return
        if task_id in self._lost:
            self._flag("exactly_once", task_id,
                       "completed after being accounted lost")
            return
        self._completed[task_id] = self.env.now

    def task_lost(self, task_id: Any, reason: str) -> None:
        """Account a task that will never complete (with its reason)."""
        if task_id not in self._submitted:
            self._flag("exactly_once", task_id,
                       f"lost ({reason}) but never submitted")
            return
        if task_id in self._completed:
            self._flag("exactly_once", task_id,
                       f"accounted lost ({reason}) after completing")
            return
        if task_id in self._lost:
            self._flag("exactly_once", task_id, "accounted lost twice")
            return
        self._lost[task_id] = reason

    @property
    def submitted_count(self) -> int:
        return len(self._submitted)

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    @property
    def lost_count(self) -> int:
        return len(self._lost)

    # -- invocation records --------------------------------------------------
    def invocation_finished(self, invocation) -> None:
        """Check one completed platform activation's record."""
        iid = invocation.invocation_id
        if iid in self._finished_invocations:
            self._flag("single_completion", f"invocation {iid}",
                       "finished twice")
            return
        self._finished_invocations[iid] = self.env.now
        if invocation.t_complete < invocation.t_arrive:
            self._flag("timestamps", f"invocation {iid}",
                       f"t_complete {invocation.t_complete:.6f} < "
                       f"t_arrive {invocation.t_arrive:.6f}")
        if invocation.t_scheduled and \
                invocation.t_scheduled < invocation.t_arrive:
            self._flag("timestamps", f"invocation {iid}",
                       "scheduled before arrival")

    # -- per-entity clocks -----------------------------------------------------
    def observe_clock(self, entity: str, time: float) -> None:
        """Assert ``entity``'s event stream carries monotone times."""
        last = self._entity_clocks.get(entity)
        if last is not None and time < last:
            self._flag("entity_clock", entity,
                       f"clock moved backwards {last:.6f} -> {time:.6f}")
        self._entity_clocks[entity] = time

    # -- energy ------------------------------------------------------------
    def check_energy(self, accounts) -> None:
        """Flag negative category draws (accounting corruption). An
        overdrawn battery is not one: the ledger runs past capacity (the
        battery-swap abstraction)."""
        for account in accounts:
            drawn = account.by_category()
            for category, wh in drawn.items():
                if wh < -ENERGY_EPSILON_WH:
                    self._flag("energy", account.device,
                               f"negative draw in {category}: {wh} Wh")

    # -- kernel observer ------------------------------------------------------
    def attach_kernel(self) -> None:
        """Watch clock monotonicity at every heap pop of the kernel loop.

        This is the only invasive hook, and it is chaos-only: it replaces
        the environment's ``_heappop`` (bound once per ``run()``) with a
        wrapper that just compares floats, scheduling nothing, so
        dispatch order and event times are untouched.
        """
        if self._kernel_attached:
            return
        self._kernel_attached = True
        env = self.env
        inner = env._heappop

        def observed_heappop(queue):
            entry = inner(queue)
            now = entry[0]
            last = max(self._kernel_last_now, env._now)
            if now < last:
                self._flag("kernel_clock", "environment",
                           f"clock moved backwards "
                           f"{last:.9f} -> {now:.9f}")
            self._kernel_last_now = now
            return entry

        env._heappop = observed_heappop

    # -- finalization ------------------------------------------------------
    def finalize(self, energy_accounts=None) -> List[Violation]:
        """Close the books: unaccounted tasks become violations."""
        if self._finalized:
            return self.violations
        self._finalized = True
        if energy_accounts is not None:
            self.check_energy(energy_accounts)
        for task_id, submitted_at in self._submitted.items():
            if task_id not in self._completed and task_id not in self._lost:
                self._flag("exactly_once", task_id,
                           f"submitted at t={submitted_at:.3f} but never "
                           f"completed nor accounted lost")
        return self.violations

    def summary(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted_count,
            "completed": self.completed_count,
            "lost": self.lost_count,
            "violations": len(self.violations),
            "violation_details": [str(v) for v in self.violations],
        }
