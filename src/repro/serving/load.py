"""Deterministic open-loop load generation for the serverless tier.

Every swarm scenario is closed-loop: a device submits its next batch
only after the previous one lands. The HiveMind paper, though, frames
the cloud tier as a *shared serverless service* — independent user
traffic arrives whether or not earlier queries completed. This module
produces that traffic: per-tenant arrival streams (Poisson, bursty
on/off flash crowds, diurnal envelopes), priced as tenant-tagged
cloud calls (:class:`~repro.serverless.wire.Calls`) and injected into
the cloud tier alongside swarm calls.

Determinism contract (the same one every other stream in the repo
honours):

- Each tenant draws from its own named stream in the seeded
  :class:`~repro.sim.rng.RandomStreams` registry
  (``serving.<tenant>`` under ``seed + SERVING_SEED_OFFSET``), so the
  arrival sequence is a pure function of ``(seed, tenant spec,
  duration)`` — identical across process restarts and across any
  ``(shards, cloud_shards)`` worker grouping.
- Phase boundaries of the on/off flash crowd and the diurnal envelope
  are *deterministic* (only arrivals within a phase are stochastic), so
  reaction-time measurements against the burst onset are well-defined.
- Region assignment is front-door round-robin over the per-tenant
  sequence number — a pure function of the call, never of worker
  scheduling.

All three processes are piecewise-homogeneous Poisson: a tenant's kind
expands to ``(start, end, rate)`` segments and one inverse-CDF sampler
walks them. Generation is bounded by ``max_calls`` per tenant; hitting
the cap is reported, never silent (see :func:`generate_serving_calls`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..sim.rng import RandomStreams

__all__ = ["TenantSpec", "parse_serving_spec",
           "arrival_times", "generate_serving_calls",
           "SERVING_SEED_OFFSET", "SERVING_CELL_BASE",
           "DEFAULT_DURATION_S", "MAX_CALLS_PER_TENANT"]

#: Stream-namespace offset for serving tenants (cells use ``seed +
#: 1000*k``, the gateway ``seed + 271_828``; this keeps serving clear of
#: both).
SERVING_SEED_OFFSET = 314_159

#: Cell ids stamped on serving calls. Real cells are numbered from 0 by
#: the plan; serving tenants live far above so ``(cell, seq)`` join keys
#: can never collide with swarm traffic.
SERVING_CELL_BASE = 1_000_000

#: Horizon of background load injected into swarm runs when the spec
#: does not say otherwise (roughly one mission's worth).
DEFAULT_DURATION_S = 120.0

#: Per-tenant arrival cap — a backstop against runaway specs (e.g. a
#: mistyped rate), not a tuning knob. Hitting it is reported.
MAX_CALLS_PER_TENANT = 200_000

#: Serving queries are lookups against swarm-produced state, not frame
#: uploads: small request/response payloads.
QUERY_INPUT_MB = 0.2
QUERY_OUTPUT_MB = 0.05

#: Hour-by-hour weights of the diurnal envelope (normalized so the
#: tenant's configured rate is the *mean*; the evening peak is ~1.9x).
DIURNAL_PROFILE: Tuple[float, ...] = (
    0.30, 0.22, 0.18, 0.16, 0.18, 0.26, 0.42, 0.66,
    0.92, 1.10, 1.20, 1.28, 1.32, 1.28, 1.24, 1.22,
    1.26, 1.40, 1.62, 1.86, 1.90, 1.60, 1.10, 0.62)

_KINDS = ("poisson", "onoff", "diurnal")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process (pure data, picklable).

    ``rate_rps`` is the tenant's *mean* arrival rate; the on/off kind
    bursts to ``rate_rps * burst_mult`` during its on-phases and the
    diurnal kind modulates around the mean with
    :data:`DIURNAL_PROFILE`. ``weight`` is the tenant's fair share under
    admission-control overload (see
    :class:`~repro.serving.admission.AdmissionController`).
    """

    name: str
    kind: str = "poisson"
    rate_rps: float = 40.0
    weight: float = 1.0
    #: on/off kind: burst multiplier and the deterministic phase plan
    #: (the stream starts in the off/baseline phase, so the first burst
    #: onset is exactly ``off_s`` — the instant reaction times are
    #: measured against).
    burst_mult: float = 8.0
    on_s: float = 10.0
    off_s: float = 30.0
    #: diurnal kind: one full envelope period, compressed from 24 h so
    #: short experiments still sweep through peak and trough.
    period_s: float = 240.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r} (want one of "
                f"{', '.join(_KINDS)})")
        for label, value in (("rate", self.rate_rps),
                             ("weight", self.weight)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"tenant {self.name!r}: {label} must be a positive "
                    f"finite number (got {value!r})")

    def segments(self, duration_s: float
                 ) -> List[Tuple[float, float, float]]:
        """Expand to deterministic ``(start, end, rate)`` segments."""
        if duration_s <= 0:
            return []
        if self.kind == "poisson":
            return [(0.0, duration_s, self.rate_rps)]
        if self.kind == "onoff":
            # Baseline rate off-phase, burst on-phase; the mean over one
            # full cycle is kept at rate_rps by deflating the baseline.
            cycle = self.on_s + self.off_s
            mean_mult = (self.off_s + self.burst_mult * self.on_s) / cycle
            base = self.rate_rps / mean_mult
            out, t, phase_on = [], 0.0, False
            while t < duration_s:
                span = self.on_s if phase_on else self.off_s
                end = min(t + span, duration_s)
                out.append((t, end, base * (self.burst_mult
                                            if phase_on else 1.0)))
                t, phase_on = end, not phase_on
            return out
        # diurnal: hourly buckets compressed into period_s.
        mean = sum(DIURNAL_PROFILE) / len(DIURNAL_PROFILE)
        bucket = self.period_s / len(DIURNAL_PROFILE)
        out, t = [], 0.0
        while t < duration_s:
            index = int(t / bucket) % len(DIURNAL_PROFILE)
            end = min((math.floor(t / bucket) + 1) * bucket, duration_s)
            out.append((t, end,
                        self.rate_rps * DIURNAL_PROFILE[index] / mean))
            t = end
        return out

    @property
    def burst_start_s(self) -> float:
        """First burst onset (on/off kind): the reaction-time anchor."""
        if self.kind != "onoff":
            raise ValueError(f"tenant {self.name!r} has no burst phase")
        return self.off_s


def parse_serving_spec(spec: str) -> Tuple[TenantSpec, ...]:
    """Parse a ``REPRO_SERVING`` / ``--serving`` spec string.

    Grammar: comma-separated tenants, each
    ``kind:rate[:name[:weight]]`` — e.g.
    ``poisson:200,onoff:80:flash:0.5``. The bare convenience values
    ``1``/``on`` arm one default Poisson tenant.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty serving spec")
    if spec in ("1", "on", "true"):
        return (TenantSpec(name="users"),)
    tenants: List[TenantSpec] = []
    for position, chunk in enumerate(spec.split(",")):
        parts = [part.strip() for part in chunk.split(":")]
        if not parts[0]:
            raise ValueError(f"empty tenant spec in {spec!r}")
        kind = parts[0]
        if kind not in _KINDS:
            raise ValueError(
                f"unknown arrival kind {kind!r} in {chunk!r} "
                f"(want one of {', '.join(_KINDS)})")
        if len(parts) > 4:
            raise ValueError(
                f"too many fields in tenant {chunk!r} of serving spec "
                f"{spec!r} (want kind:rate[:name[:weight]])")
        name = (parts[2] if len(parts) > 2 and parts[2]
                else f"{kind}{position}")
        try:
            rate = float(parts[1]) if len(parts) > 1 and parts[1] else 40.0
            weight = float(parts[3]) if len(parts) > 3 and parts[3] else 1.0
            tenants.append(TenantSpec(name=name, kind=kind, rate_rps=rate,
                                      weight=weight))
        except ValueError as error:
            raise ValueError(f"bad tenant {chunk!r} in serving spec "
                             f"{spec!r}: {error}") from None
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {spec!r}")
    return tuple(tenants)


def arrival_times(tenant: TenantSpec, duration_s: float, rng,
                  max_calls: int = MAX_CALLS_PER_TENANT
                  ) -> Tuple[List[float], bool]:
    """Sample the tenant's arrival instants on ``[0, duration_s)``.

    Inverse-CDF exponential gaps over the tenant's deterministic rate
    segments, drawn in strict sequence from ``rng`` so the result is a
    pure function of the stream state. Returns ``(times, truncated)``.
    """
    times: List[float] = []
    for start, end, rate in tenant.segments(duration_s):
        if rate <= 0:
            continue
        t = start
        while True:
            t += -math.log(1.0 - rng.random()) / rate
            if t >= end:
                break
            if len(times) >= max_calls:
                return times, True
            times.append(t)
    return times, False


def generate_serving_calls(tenants: Sequence[TenantSpec],
                           duration_s: float, seed: int, scenario,
                           n_regions: int = 1,
                           max_calls: int = MAX_CALLS_PER_TENANT):
    """Price every tenant's arrivals as tenant-tagged cloud calls.

    Returns ``(calls, truncated_tenants)``: the calls in canonical
    ``(arrival_s, cell, seq)`` order, and the names of tenants whose
    streams hit the ``max_calls`` backstop (callers must surface these
    — a silently truncated stream would read as "served everything").

    Each call invokes the scenario's recognition function (so serving
    traffic contends for the same warm pools, cores, and controller
    slots as swarm traffic) with a query-sized payload and a service
    draw from the tenant's own stream. Calls are ``synthetic`` (no
    straggler mitigation, never joined into swarm latency rows) and
    carry ``tenant`` (the index into ``tenants``) for the admission
    controller's fairness ledger.
    """
    from ..serverless.wire import Calls
    if duration_s <= 0:
        raise ValueError("serving duration must be positive")
    if n_regions < 1:
        raise ValueError("n_regions must be at least 1")
    app = scenario.recognition
    log_service = math.log(app.cloud_service_s)
    streams = RandomStreams(seed + SERVING_SEED_OFFSET)
    parts: List[Calls] = []
    truncated: List[str] = []
    for index, tenant in enumerate(tenants):
        rng = streams.stream(f"serving.{tenant.name}")
        times, hit_cap = arrival_times(tenant, duration_s, rng,
                                       max_calls=max_calls)
        if hit_cap:
            truncated.append(tenant.name)
        service_s = [float(rng.lognormal(log_service, app.service_sigma))
                     for _ in times]
        seq = np.arange(len(times))
        parts.append(Calls.build(
            SERVING_CELL_BASE + index, seq, times, service_s, None,
            QUERY_INPUT_MB, QUERY_OUTPUT_MB, region=seq % n_regions,
            tenant=index, synthetic=True))
    return Calls.concat(parts).sorted(), truncated
