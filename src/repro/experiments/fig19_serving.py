"""Fig 19 (extension): open-loop serving under heavy traffic.

The paper's figures close the loop — every cloud call belongs to a
swarm device that waits for it — so offered load can never exceed what
the fleet generates. This extension measures the serverless tier the
way serving systems are measured: an *open-loop* load generator
(:mod:`repro.serving.load`) offers background traffic at a configured
rate regardless of completions, and the reactive policies
(:mod:`repro.serving.admission`, :mod:`repro.serving.autoscale`)
defend tail latency.

Two lanes, both on a deliberately small regional slice (2 servers x
4 cores) so the saturation knee sits at a few dozen rps and the whole
figure runs in seconds:

- **Knee sweep** (autoscaler pinned off, admission armed): one Poisson
  tenant offered at multiples of the slice's analytic capacity
  ``cores / E[service]``. Below the knee p50/p99/p999 are flat and
  nothing sheds; past it the gate engages and the shed rate — not the
  tail — absorbs the overload.
- **Flash crowd** (autoscaler armed): an on/off tenant bursts
  ``burst_mult``x over its baseline at a deterministic onset. The
  autoscaled lane starts from one active server and must react; the
  ``static`` lane is the peak-provisioned baseline (the full slice
  always on). The rows report the autoscaler's reaction time
  (decision lag + provisioning lead) and each lane's tail and shed
  rate.

Deterministic at a fixed seed: arrivals come from the seed's private
serving stream namespace, the gateway prices them on its own offset
namespace, and both policies are pure functions of the observed
``(t, backlog)`` sequence.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..apps import SCENARIO_A
from ..config import DEFAULT
from ..platforms import platform_config
from ..serverless.region import RegionGateway
from ..serving import (AutoscaleConfig, ServingConfig, ServingPolicy,
                       TenantSpec, emit_serving_spans,
                       generate_serving_calls)
from ..serving.autoscale import reaction_s
from .common import ExperimentResult

__all__ = ["run", "SERVING_SERVERS", "SERVING_CORES",
           "OFFERED_MULTIPLIERS"]

#: The shrunk regional slice under test (the full 12x40 paper cluster
#: needs ~2k rps to saturate — pointless event count for the same
#: curve shape).
SERVING_SERVERS = 2
SERVING_CORES = 4

#: Offered load as multiples of the slice's analytic capacity.
OFFERED_MULTIPLIERS = (0.5, 0.8, 1.2, 1.6, 2.4)

#: Flash-crowd shape: baseline mean at 60% of capacity, 8x bursts.
FLASH_UTILISATION = 0.6
FLASH_BURST_MULT = 8.0
FLASH_ON_S = 12.0
FLASH_OFF_S = 28.0


def _serving_constants():
    """The paper constants with the cluster shrunk to the test slice."""
    return dataclasses.replace(
        DEFAULT, cluster=dataclasses.replace(
            DEFAULT.cluster, servers=SERVING_SERVERS,
            cores_per_server=SERVING_CORES))


def capacity_rps() -> float:
    """Analytic saturation rate of the slice: cores over mean service
    time (lognormal mean of the ScA recognition app)."""
    app = SCENARIO_A.recognition
    mean_service = (app.cloud_service_s
                    * math.exp(app.service_sigma ** 2 / 2.0))
    return SERVING_SERVERS * SERVING_CORES / mean_service


def _run_lane(tenants: Tuple[TenantSpec, ...], serving_cfg: ServingConfig,
              seed: int, label: str) -> Dict[str, object]:
    """One open-loop run against a fresh regional slice; returns the
    lane's latency/shed/scale summary."""
    constants = _serving_constants()
    policy = ServingPolicy(serving_cfg, n_servers=SERVING_SERVERS,
                           cores_per_server=SERVING_CORES)
    gateway = RegionGateway(
        platform_config("hivemind"), SCENARIO_A, constants,
        region=0, n_regions=1, region_devices=64, total_devices=64,
        seed=seed, serving=policy)
    calls, truncated = generate_serving_calls(
        tenants, serving_cfg.duration_s, seed, SCENARIO_A, n_regions=1)
    completions = gateway.serve(calls)
    latencies = completions.latencies(calls)
    offered = len(calls.seq)
    shed = gateway.shed_calls
    out: Dict[str, object] = {
        "offered_calls": offered,
        "served_calls": len(completions.seq),
        "shed_calls": shed,
        "shed_rate": (shed / offered) if offered else 0.0,
        "cold_starts": gateway.cold_starts,
        "stats": policy.stats(),
    }
    if truncated:
        out["truncated_tenants"] = list(truncated)
    for quantile_label, quantile in (("p50", 50.0), ("p99", 99.0),
                                     ("p999", 99.9)):
        out[f"{quantile_label}_s"] = (
            float(np.percentile(latencies, quantile))
            if len(latencies) else float("nan"))
    if policy.autoscaler is not None:
        out["scale_outs"] = policy.autoscaler.stats()["scale_outs"]
    emit_serving_spans(obs.active_tracer(), policy.stats(), label)
    return out


def run(base_seed: int = 0, duration_s: float = 60.0,
        multipliers: Optional[Sequence[float]] = None) -> ExperimentResult:
    """p50/p99/p999 + shed rate vs offered load, and flash-crowd
    autoscaler reaction time.

    Admission is armed in every lane. The knee sweep pins the
    autoscaler off (its subject is the fixed slice's knee); the flash
    lane runs once autoscaled, scaling up from one server, and once
    pinned off at full static provisioning, so the rows compare
    elasticity against the peak-provisioned baseline.
    """
    cap = capacity_rps()
    headers = ["lane", "offered_rps", "p50_ms", "p99_ms", "p999_ms",
               "shed_%", "scale_outs", "reaction_s"]
    rows: List[List] = []
    data: Dict[str, object] = {"capacity_rps": cap}

    sweep: Dict[float, Dict[str, object]] = {}
    for multiplier in (multipliers or OFFERED_MULTIPLIERS):
        rate = cap * multiplier
        tenants = (TenantSpec(name="users", kind="poisson",
                              rate_rps=rate),)
        cfg = ServingConfig(tenants=tenants, duration_s=duration_s,
                            autoscale_enabled=False)
        lane = _run_lane(tenants, cfg, base_seed,
                         f"sweep-{multiplier:g}x")
        sweep[multiplier] = lane
        rows.append([
            f"load-{multiplier:g}x", round(rate, 1),
            round(lane["p50_s"] * 1e3, 1), round(lane["p99_s"] * 1e3, 1),
            round(lane["p999_s"] * 1e3, 1),
            round(lane["shed_rate"] * 100.0, 2), "-", "-"])
    data["sweep"] = sweep

    flash_tenant = TenantSpec(
        name="flash", kind="onoff",
        rate_rps=cap * FLASH_UTILISATION, burst_mult=FLASH_BURST_MULT,
        on_s=FLASH_ON_S, off_s=FLASH_OFF_S)
    flash: Dict[str, Dict[str, object]] = {}
    for lane_key, armed in (("autoscaled", True), ("static", False)):
        cfg = ServingConfig(
            tenants=(flash_tenant,), duration_s=duration_s,
            autoscale_enabled=armed,
            # The backlog signal counts every in-flight invocation
            # (recognition *and* its dedup hold admission slots), so
            # the per-core default threshold sits below baseline
            # occupancy; 3x cores clears the baseline and still trips
            # within a second of the burst onset.
            autoscale=AutoscaleConfig(
                min_servers=1,
                scale_out_backlog=3 * SERVING_CORES))
        policy_lane = _run_lane((flash_tenant,), cfg, base_seed,
                                f"flash-{lane_key}")
        reaction = None
        if armed:
            autoscale = policy_lane["stats"].get("autoscale") or {}
            reaction = reaction_s(autoscale.get("events", ()),
                                  flash_tenant.burst_start_s)
        policy_lane["reaction_s"] = reaction
        flash[lane_key] = policy_lane
        rows.append([
            f"flash-{lane_key}",
            round(flash_tenant.rate_rps, 1),
            round(policy_lane["p50_s"] * 1e3, 1),
            round(policy_lane["p99_s"] * 1e3, 1),
            round(policy_lane["p999_s"] * 1e3, 1),
            round(policy_lane["shed_rate"] * 100.0, 2),
            policy_lane.get("scale_outs", 0) if armed else "-",
            round(reaction, 2) if reaction is not None else "-"])
    data["flash"] = flash

    return ExperimentResult(
        figure="fig19",
        title=("Open-loop serving: latency/shed vs offered load, "
               "flash-crowd elasticity"),
        headers=headers,
        rows=rows,
        data=data,
    )
