"""Invoker-pool autoscaling for the regional serverless tier.

The fixed backend cluster of the figure harnesses is the paper's
configuration, but a serverless service under open-loop load reacts to
demand: this module scales the *active* invoker-server pool of one
region up and down between ``min_servers`` and the region's full
slice. Placement (:meth:`~repro.serverless.region.RegionGateway.
_healthy`) only considers active servers, so a scaled-in pool
concentrates load — and a scale-out pays real cold-start costs through
the existing invoker model, because a newly activated server's warm
pool is empty until its first containers return.

Policy (deliberately the simple reactive controller the serving
literature baselines against):

- **Scale out** when the in-flight backlog exceeds
  ``scale_out_backlog`` calls per active server: activate enough
  servers to bring the ratio back under the threshold (bounded by the
  pool), each becoming *ready* only after ``provision_s`` — the
  provisioning lead time users perceive as reaction lag.
- **Scale in** one server after the backlog has stayed under a quarter
  of the scale-out threshold for ``scale_in_idle_s`` continuously.
- A ``cooldown_s`` guard after every decision damps oscillation.

Every decision appends a :class:`ScaleEvent`; the flash-crowd
experiment measures reaction time as ``ready_s - burst_start`` of the
first scale-out after the burst onset. Decisions depend only on the
observed ``(t, backlog)`` sequence, so armed runs stay
byte-deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["AutoscaleConfig", "ScaleEvent", "InvokerAutoscaler",
           "reaction_s"]

#: Scale-event retention shipped across worker pipes (a run makes a
#: handful; the cap is a backstop, and hitting it is counted).
MAX_SCALE_EVENTS = 256


@dataclass(frozen=True)
class AutoscaleConfig:
    """Controller knobs (pure data, picklable). ``scale_out_backlog``
    of ``None`` derives "every active core busy" at build time."""

    min_servers: int = 1
    scale_out_backlog: Optional[int] = None
    scale_in_idle_s: float = 30.0
    cooldown_s: float = 10.0
    #: Provisioning lead time before an activated server can take
    #: placements (boot + runtime pull; its container cold starts are
    #: then priced by the invoker model on first use).
    provision_s: float = 8.0


@dataclass(frozen=True)
class ScaleEvent:
    decided_s: float
    ready_s: float
    direction: str  # "out" | "in"
    active_before: int
    active_after: int

    def to_dict(self) -> Dict[str, object]:
        return {"decided_s": self.decided_s, "ready_s": self.ready_s,
                "direction": self.direction,
                "active_before": self.active_before,
                "active_after": self.active_after}


class InvokerAutoscaler:
    """One region's reactive pool controller."""

    def __init__(self, config: AutoscaleConfig, n_servers: int,
                 cores_per_server: int):
        if n_servers < 1:
            raise ValueError("need at least one server to scale")
        self.max_servers = n_servers
        self.min_servers = max(1, min(config.min_servers, n_servers))
        self.threshold = (config.scale_out_backlog
                          if config.scale_out_backlog is not None
                          else max(1, cores_per_server))
        self.scale_in_idle_s = config.scale_in_idle_s
        self.cooldown_s = config.cooldown_s
        self.provision_s = config.provision_s
        #: Activation instants of servers beyond the always-on base,
        #: sorted: scale-outs append ``t + provision_s`` at
        #: non-decreasing ``t`` (:meth:`observe` enforces the order) and
        #: scale-ins pop the last, so :meth:`active` can bisect.
        self._ready_at: List[float] = []
        self._last_t = -math.inf
        self._target = self.min_servers
        self._cooldown_until = -math.inf
        self._low_since: Optional[float] = None
        self.events: List[ScaleEvent] = []
        self.dropped_events = 0

    def active(self, t: float) -> int:
        """Servers able to take placements at ``t`` (provisioned and
        past their readiness instant)."""
        ready = bisect_right(self._ready_at, t)
        return min(self.max_servers, self.min_servers + ready)

    def active_span(self, t: float) -> Tuple[int, float, float]:
        """``(active(t), lo, hi)``: the count holds for every instant
        in ``[lo, hi)``, the readiness instants around ``t``, until the
        next scale decision."""
        ready_at = self._ready_at
        ready = bisect_right(ready_at, t)
        lo = ready_at[ready - 1] if ready else -math.inf
        hi = ready_at[ready] if ready < len(ready_at) else math.inf
        return min(self.max_servers, self.min_servers + ready), lo, hi

    def _record(self, event: ScaleEvent) -> None:
        if len(self.events) < MAX_SCALE_EVENTS:
            self.events.append(event)
        else:
            self.dropped_events += 1

    def observe(self, t: float, backlog: int) -> bool:
        """Feed one ``(t, backlog)`` observation (non-decreasing t);
        True when it scaled the pool out or in."""
        if t < self._last_t:
            raise ValueError(
                f"autoscaler observations must not go back in time "
                f"({t!r} < {self._last_t!r})")
        self._last_t = t
        active = self.active(t)
        if (backlog > self.threshold * active
                and self._target < self.max_servers
                and t >= self._cooldown_until):
            want = min(self.max_servers,
                       max(self._target + 1,
                           math.ceil(backlog / self.threshold)))
            added = want - self._target
            self._ready_at.extend([t + self.provision_s] * added)
            self._record(ScaleEvent(
                decided_s=t, ready_s=t + self.provision_s,
                direction="out", active_before=self._target,
                active_after=want))
            self._target = want
            self._cooldown_until = t + self.cooldown_s
            self._low_since = None
            return True
        if backlog * 4 < self.threshold * active:
            if self._low_since is None:
                self._low_since = t
            elif (t - self._low_since >= self.scale_in_idle_s
                    and self._target > self.min_servers
                    and t >= self._cooldown_until):
                self._ready_at.pop()
                self._record(ScaleEvent(
                    decided_s=t, ready_s=t, direction="in",
                    active_before=self._target,
                    active_after=self._target - 1))
                self._target -= 1
                self._cooldown_until = t + self.cooldown_s
                self._low_since = t
                return True
        else:
            self._low_since = None
        return False

    def stats(self) -> Dict[str, object]:
        outs = [e for e in self.events if e.direction == "out"]
        ins = [e for e in self.events if e.direction == "in"]
        return {
            "min_servers": self.min_servers,
            "max_servers": self.max_servers,
            "threshold": self.threshold,
            "target": self._target,
            "scale_outs": len(outs),
            "scale_ins": len(ins),
            "dropped_events": self.dropped_events,
            "events": [e.to_dict() for e in self.events],
        }


def reaction_s(events: Sequence[Dict[str, object]],
               burst_start_s: float) -> Optional[float]:
    """Time from a burst onset to the first post-onset scale-out capacity
    coming online, or ``None`` if none fired. ``events`` are the
    ``stats()["events"]`` records of an :class:`InvokerAutoscaler`."""
    for event in events:
        if (event["direction"] == "out"
                and event["decided_s"] >= burst_start_s):
            return event["ready_s"] - burst_start_s
    return None
