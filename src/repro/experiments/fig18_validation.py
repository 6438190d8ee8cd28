"""Fig 18: simulator validation.

The paper validates its event-driven simulator against the *real* 16-drone
testbed, reporting under 5% tail-latency deviation for every application
and platform. Without hardware, we apply the same methodology against an
independent reference: closed-form queueing predictions composed from the
calibration constants (``repro.analytical``). Each application runs on
each platform at a pinned low-utilization operating point (periodic
arrivals, warm containers), where the closed forms are exact up to the
service-time distribution — so simulator-vs-analytic deviation measures
the simulator's bookkeeping fidelity, exactly what the paper's validation
establishes for its simulator.

Expected shape: |simulated - predicted| tail-latency deviation < 5% for
all S1-S10 on all three platforms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..analytical import lognormal_percentile
from ..apps import AppSpec, all_apps
from ..config import DEFAULT
from ..network.rpc import push_processing_s
from ..platforms import PlatformConfig, SingleTierRunner, platform_config
from ..platforms.pipeline import EDGE_FILTER_SLOWDOWN
from .common import ExperimentResult

PLATFORMS = ("centralized_faas", "distributed_edge", "hivemind")

#: Per-device task rate chosen so every resource sits near this
#: utilization — low enough for the closed forms to be exact.
TARGET_RHO = 0.15
#: Combined sigma: intrinsic service lognormal plus invoker jitter.
INVOKER_JITTER_SIGMA = 0.16
EDGE_JITTER_SIGMA = 0.18


def _validation_rate(app: AppSpec, platform: str) -> float:
    constants = DEFAULT
    n = constants.drone.count
    bounds = [app.rate_hz]
    if app.input_mb > 0:
        bounds.append(TARGET_RHO * constants.wireless.total_mbs /
                      (n * app.input_mb))
    if platform == "distributed_edge":
        bounds.append(TARGET_RHO /
                      (app.cloud_service_s * app.edge_slowdown))
    return min(bounds)


def _warm_management_s() -> float:
    s = DEFAULT.serverless
    return (s.frontend_latency_s + s.auth_check_s +
            s.controller_decision_s + s.controller_service_s +
            s.kafka_hop_s + s.warm_start_s)


def _edge_placed(app: AppSpec, config: PlatformConfig) -> bool:
    """Whether ``config`` runs the app's processing stage on board (the
    testbed swarm's placement)."""
    return config.tier_of(app, "process", DEFAULT,
                          DEFAULT.drone.count) == "edge"


def _predict_edge(app: AppSpec,
                  config: PlatformConfig) -> Tuple[float, float]:
    """Closed-form (median, p99) for on-board execution."""
    wireless = DEFAULT.wireless
    service_median = app.cloud_service_s * app.edge_slowdown
    sigma = math.sqrt(app.service_sigma ** 2 + EDGE_JITTER_SIGMA ** 2)
    push_processing = push_processing_s(
        app.output_mb, DEFAULT.accel if config.net_accel else None)
    ap_mbs = config.fabric_constants(DEFAULT).wireless.ap_mbs
    push_wire = (app.output_mb / ap_mbs +
                 wireless.per_hop_latency_s + wireless.base_rtt_s)
    fixed = push_processing + push_wire
    median = service_median + fixed
    p99 = lognormal_percentile(service_median, sigma, 99) + fixed
    return median, p99


def _predict(app: AppSpec, platform: str) -> Tuple[float, float]:
    """(median, p99) end-to-end task latency from the closed forms."""
    constants = DEFAULT
    wireless = constants.wireless
    exec_sigma = math.sqrt(app.service_sigma ** 2 +
                           INVOKER_JITTER_SIGMA ** 2)
    config = platform_config(platform)
    if _edge_placed(app, config):
        return _predict_edge(app, config)
    upload_mb = config.upload_mb(app, app.input_mb)
    filter_median = 0.0
    if config.filters(app):
        filter_median = app.edge_filter_service_s * EDGE_FILTER_SLOWDOWN
    push_processing = push_processing_s(
        upload_mb, DEFAULT.accel if config.net_accel else None)
    ap_mbs = config.fabric_constants(constants).wireless.ap_mbs
    serialization = upload_mb / ap_mbs
    push_wire = (serialization + wireless.per_hop_latency_s +
                 wireless.base_rtt_s)
    # Residual shared-uplink queueing at the validation operating point:
    # M/D/1-like tail wait ~ 2.2 * rho * service at low rho (calibrated).
    queue_tail = 1.6 * TARGET_RHO * serialization
    management = _warm_management_s()
    download = 0.0
    if app.response_to_device:
        download = (app.output_mb / ap_mbs +
                    wireless.per_hop_latency_s)
    fixed = (filter_median + push_processing + push_wire + management +
             download)
    median = fixed + app.cloud_service_s
    p99 = (fixed + queue_tail +
           lognormal_percentile(app.cloud_service_s, exec_sigma, 99))
    return median, p99


def run(min_samples: int = 2500, base_seed: int = 0) -> ExperimentResult:
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    n = DEFAULT.drone.count
    for spec in all_apps():
        for platform in PLATFORMS:
            rate = _validation_rate(spec, platform)
            duration_s = min(3000.0, max(120.0, min_samples / (rate * n)))
            result = SingleTierRunner(
                platform_config(platform), spec, seed=base_seed,
                duration_s=duration_s, rate_override=rate,
                bursty=False, keepalive_s=3600.0).run()
            # Discard the warm-up window (first container creations) —
            # the steady state is what the closed forms describe.
            series = result.task_latencies
            steady = series.values[series.times > 60.0]
            sim_median = float(np.percentile(steady, 50, method="linear"))
            sim_tail = float(np.percentile(steady, 99, method="linear"))
            predicted_median, predicted_tail = _predict(spec, platform)
            median_dev = 100 * (sim_median - predicted_median) / \
                predicted_median
            tail_dev = 100 * (sim_tail - predicted_tail) / predicted_tail
            key = f"{spec.key}:{platform}"
            rows.append([key, round(sim_tail * 1000, 1),
                         round(predicted_tail * 1000, 1),
                         round(tail_dev, 2), round(median_dev, 2)])
            data[key] = {
                "sim_tail_s": sim_tail,
                "predicted_tail_s": predicted_tail,
                "tail_deviation_pct": tail_dev,
                "median_deviation_pct": median_dev,
            }
    return ExperimentResult(
        figure="fig18",
        title="Simulator vs analytical model: tail-latency deviation",
        headers=["key", "sim_p99_ms", "analytic_p99_ms",
                 "tail_dev_pct", "median_dev_pct"],
        rows=rows,
        data=data,
    )
