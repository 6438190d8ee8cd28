"""Open-loop serving: load generation, admission control, autoscaling.

The HiveMind cloud tier is a shared serverless service; this package
makes it face *open-loop* user traffic (arrivals that never wait for
completions) and react with elasticity instead of melting:

- :mod:`repro.serving.load` — deterministic per-tenant arrival streams
  (Poisson, on/off flash crowds, diurnal envelopes) priced as
  tenant-tagged cloud calls.
- :mod:`repro.serving.admission` — queue-length / delay-bound load
  shedding with per-tenant weighted fairness (swarm calls never shed).
- :mod:`repro.serving.autoscale` — reactive invoker-pool scaling with
  real provisioning lag and cold-start costs.

Arming: ``REPRO_SERVING=<spec>`` (or ``--serving``) injects background
load into sharded swarm runs (the serving stream is served by the
regional cloud tier, which serving arms implicitly — exactly the
hybrid mean-field precedent). Both policies are armed whenever
serving is; :class:`ServingConfig` holds their switches for callers
that build lanes of their own (fig19). Unarmed runs never construct
any of this and stay byte-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .admission import AdmissionConfig, AdmissionController
from .autoscale import AutoscaleConfig, InvokerAutoscaler, ScaleEvent
from .load import (DEFAULT_DURATION_S, SERVING_CELL_BASE,
                   SERVING_SEED_OFFSET, TenantSpec, generate_serving_calls,
                   parse_serving_spec)

__all__ = ["TenantSpec", "parse_serving_spec",
           "generate_serving_calls", "AdmissionConfig",
           "AdmissionController", "AutoscaleConfig", "InvokerAutoscaler",
           "ScaleEvent", "ServingConfig", "ServingPolicy",
           "emit_serving_spans", "SERVING_CELL_BASE",
           "SERVING_SEED_OFFSET", "DEFAULT_DURATION_S"]


@dataclass(frozen=True)
class ServingConfig:
    """Everything a worker needs to rebuild the serving stack (pure
    data, picklable — it crosses the shard/cloud worker pipes)."""

    tenants: Tuple[TenantSpec, ...]
    duration_s: float = DEFAULT_DURATION_S
    admission_enabled: bool = True
    autoscale_enabled: bool = True
    autoscale: AutoscaleConfig = AutoscaleConfig()

    @classmethod
    def from_spec(cls, spec: str) -> "ServingConfig":
        """Parse a ``REPRO_SERVING`` spec string; both policies armed."""
        return cls(tenants=parse_serving_spec(spec))

    @property
    def tenant_weights(self) -> Dict[str, float]:
        return {tenant.name: tenant.weight for tenant in self.tenants}


class ServingPolicy:
    """One region's (or one gateway's) reactive serving stack.

    Built inside whichever process owns the gateway — policies hold
    mutable counters and are never pickled; only :class:`ServingConfig`
    crosses process boundaries.
    """

    def __init__(self, config: ServingConfig, n_servers: int,
                 cores_per_server: int):
        cores = max(1, n_servers * cores_per_server)
        self.config = config
        self.admission = (AdmissionController(
            AdmissionConfig(), cores,
            tenant_weights=config.tenant_weights)
            if config.admission_enabled else None)
        self.autoscaler = (InvokerAutoscaler(
            config.autoscale, n_servers, cores_per_server)
            if config.autoscale_enabled else None)

    def observe(self, t: float, backlog: int) -> bool:
        """Feed the autoscaler; True when it resized the pool."""
        return (self.autoscaler is not None
                and self.autoscaler.observe(t, backlog))

    def admit(self, t: float, tenant: Optional[str], weight: float,
              backlog: int, est_delay_s: float) -> bool:
        if self.admission is None:
            return True
        return self.admission.offer(t, tenant, weight, backlog,
                                    est_delay_s)

    def active_span(self, t: float) -> Optional[Tuple[int, float, float]]:
        """Autoscaled active-server count with the interval it holds on
        (:meth:`InvokerAutoscaler.active_span`), or ``None`` when the
        pool is static (autoscaler disarmed)."""
        if self.autoscaler is None:
            return None
        return self.autoscaler.active_span(t)

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "admission_enabled": self.admission is not None,
            "autoscale_enabled": self.autoscaler is not None,
        }
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        if self.autoscaler is not None:
            out["autoscale"] = self.autoscaler.stats()
        return out


def emit_serving_spans(tracer, stats: Dict[str, object], label: str,
                       replica: int = 0) -> int:
    """Record shed/scale events as spans on an armed tracer.

    ``stats`` is a :meth:`ServingPolicy.stats` dict (possibly shipped
    back from a worker). Spans land under one ``serving:<label>`` root
    in the ``serving`` layer, so trace exports show elasticity
    reactions on the same timeline as the call pipeline. Returns the
    number of spans emitted; a ``None``/disarmed tracer is a no-op.
    """
    if tracer is None or not stats:
        return 0
    emitted = 0
    root = tracer.start_trace(f"serving:{label}", "serving", 0.0,
                              replica=replica)
    end = 0.0
    admission = stats.get("admission")
    if admission:
        for t, tenant in admission.get("shed_samples", ()):
            root.emit("shed", "serving", t, t, tenant=tenant)
            emitted += 1
            end = max(end, t)
    autoscale = stats.get("autoscale")
    if autoscale:
        for event in autoscale.get("events", ()):
            root.emit(f"scale_{event['direction']}", "serving",
                      event["decided_s"], event["ready_s"],
                      active_before=event["active_before"],
                      active_after=event["active_after"])
            emitted += 1
            end = max(end, event["ready_s"])
    root.close(end)
    return emitted + 1
