"""Whole-run closed-form sweep: price a (app, platform, N) grid without
stepping the kernel.

For capacity-planning questions ("where does the centralized platform
saturate as the swarm grows?") this module composes the calibrated
closed forms of :mod:`repro.analytical.queueing` with the fixed-cost
model the fig18 validation already established, producing fig17-style
saturation rows for the full grid in microseconds instead of
core-hours. No kernel is constructed — ``sim_events`` for a sweep run
is 0 by design.

The estimator is the fig18 predictor (validated against exact
simulation to <5% tail deviation at the pinned low-utilization point)
plus N-dependent contention terms:

- **Shared uplink** — per-AP utilization from the actual offered load
  (devices per AP stays roughly constant as :meth:`~repro.config.
  PaperConstants.scaled_for_swarm` adds access points, so this term
  bounds but does not drive the knee); mean wait uses the M/D/1 form,
  the tail inherits fig18's calibrated ``1.6 * rho`` term inflated by
  ``mm1_inflation``.
- **Fixed backend cluster** — the paper scales the swarm while holding
  the cluster at 12x40 cores, which is exactly what exposes centralized
  saturation (section 5.6); we charge :func:`~repro.analytical.queueing.
  mmc_wait_time` for the aggregate task stream, capped so infeasible
  points stay finite and comparable.
- **On-board cores** — for edge execution, an M/M/1-style wait on the
  device's own cores.

Tail waits scale the mean wait by ``ln(100)`` (the p99/mean ratio of an
exponential wait), a deliberate heuristic: beyond the knee the capped
M/M/c term dominates every percentile anyway.

``validate`` cross-checks the estimator against *exact* simulation at
small N (the fig18 recipe: pinned periodic arrivals, warm containers,
steady-state filter) with a tolerance band wide enough for CI — this is
the guard that keeps the closed forms honest as the simulator evolves.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..analytical import mm1_inflation, mmc_wait_time
from ..apps import AppSpec, all_apps
from ..config import DEFAULT
from ..platforms import SingleTierRunner, platform_config
from .common import ExperimentResult
from .fig18_validation import (EDGE_JITTER_SIGMA, PLATFORMS, TARGET_RHO,
                               _edge_placed, _predict, _predict_edge,
                               _validation_rate)

__all__ = ["predict", "run", "validate", "DEFAULT_SIZES"]

#: Swarm sizes priced by the default grid (the paper sweeps to 8k).
DEFAULT_SIZES: Sequence[int] = (16, 64, 256, 1024, 4096)

#: p99/mean ratio of an exponentially distributed wait.
_TAIL_FACTOR = math.log(100.0)

#: Cap on any single contention term, in multiples of the service time —
#: mirrors :func:`~repro.analytical.queueing.mm1_inflation`'s cap so
#: saturated cells chart as "off the cliff" rather than infinity.
_WAIT_CAP = 50.0


def _capped_wait(wait: float, service_s: float) -> float:
    limit = _WAIT_CAP * max(service_s, 1e-9)
    return wait if wait < limit else limit


def predict(app: AppSpec, platform: str, n_devices: int,
            rate_hz: Optional[float] = None) -> Dict[str, float]:
    """Closed-form latency/bandwidth estimate for one grid cell.

    Returns median/p99 end-to-end task latency (seconds), the mean
    aggregate wireless bandwidth (MB/s), and the two utilization figures
    that explain the shape (``uplink_rho``, ``cluster_rho``).
    """
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    constants = DEFAULT.scaled_for_swarm(n_devices)
    wireless = constants.wireless
    rate = rate_hz if rate_hz is not None else _validation_rate(app, platform)
    devices_per_ap = n_devices / wireless.access_points

    config = platform_config(platform)
    edge_tier = _edge_placed(app, config)

    # Base fixed-cost model at the validated operating point (N=16 shape).
    if edge_tier:
        median, p99 = _predict_edge(app, config)
    else:
        median, p99 = _predict(app, platform)

    # What actually crosses the air per task.
    if edge_tier:
        upload_mb = app.output_mb  # results push upstream
        download_mb = 0.0
    else:
        upload_mb = config.upload_mb(app, app.input_mb)
        download_mb = app.output_mb if app.response_to_device else 0.0
    ap_mbs = config.fabric_constants(constants).wireless.ap_mbs

    # Shared-uplink contention (per access point). The fig18 baseline
    # already prices the validation operating point (its calibrated
    # ``1.6 * TARGET_RHO`` tail term), so only the *excess* over that
    # point is charged here — at small N the sweep therefore reproduces
    # the validated predictor exactly.
    serialization = upload_mb / ap_mbs
    uplink_rho = devices_per_ap * rate * serialization

    def _md1_wait(rho: float) -> float:
        if rho >= 1.0:
            return float("inf")
        return serialization * rho / (2.0 * (1.0 - rho))

    uplink_wait = _capped_wait(
        max(0.0, _md1_wait(uplink_rho) - _md1_wait(TARGET_RHO)),
        serialization)
    uplink_tail = _capped_wait(
        max(0.0, 1.6 * serialization *
            (uplink_rho * mm1_inflation(uplink_rho) - TARGET_RHO)),
        serialization)

    # Execution-tier contention.
    if edge_tier:
        # Each device feeds its own cores with strictly periodic
        # arrivals, so the wait follows Kingman's G/G/1 form with zero
        # arrival variability — near-zero below the knee (which exact
        # simulation confirms), exploding as rho -> 1.
        service_s = app.cloud_service_s * app.edge_slowdown
        cores = max(1, constants.drone.cpu_cores)
        exec_rho = rate * service_s / cores
        sigma = math.sqrt(app.service_sigma ** 2 + EDGE_JITTER_SIGMA ** 2)
        cs2 = math.exp(sigma * sigma) - 1.0
        exec_wait = _capped_wait(
            service_s * exec_rho * cs2 / (2.0 * (1.0 - exec_rho))
            if exec_rho < 1.0 else float("inf"), service_s)
        cluster_rho = 0.0
    else:
        # Superposed periodic streams from N devices approach Poisson,
        # so the fixed 480-core backend is priced as M/M/c — this is the
        # term that bends the centralized curves as the swarm grows.
        service_s = app.cloud_service_s
        cores = constants.cluster.servers * constants.cluster.cores_per_server
        arrival_hz = n_devices * rate
        cluster_rho = arrival_hz * service_s / cores
        exec_rho = cluster_rho
        exec_wait = _capped_wait(
            mmc_wait_time(cores, arrival_hz, service_s), service_s)

    mean_wait = uplink_wait + exec_wait
    tail_wait = uplink_tail + mean_wait * _TAIL_FACTOR
    bw_mbs = n_devices * rate * (upload_mb + download_mb)
    return {
        "median_s": median + mean_wait,
        "p99_s": p99 + tail_wait,
        "bw_mbs": bw_mbs,
        "uplink_rho": uplink_rho,
        "cluster_rho": cluster_rho,
        "exec_rho": exec_rho,
        "rate_hz": rate,
    }


def run(sizes: Sequence[int] = DEFAULT_SIZES,
        apps: Optional[Iterable[AppSpec]] = None,
        platforms: Sequence[str] = PLATFORMS,
        base_seed: int = 0) -> ExperimentResult:
    """Price the whole (app, platform, N) grid analytically.

    ``base_seed`` is accepted for registry-interface uniformity; the
    closed forms are deterministic and draw nothing.
    """
    del base_seed
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for spec in (apps if apps is not None else all_apps()):
        for platform in platforms:
            for n_devices in sizes:
                # Natural per-device rate: the saturation question is
                # "where does the platform collapse under the app's real
                # load", not the pinned low-rho validation point.
                cell = predict(spec, platform, n_devices,
                               rate_hz=spec.rate_hz)
                key = f"{spec.key}:{platform}:{n_devices}"
                rows.append([
                    key, n_devices, round(cell["bw_mbs"], 1),
                    round(cell["median_s"], 4), round(cell["p99_s"], 4),
                    round(cell["cluster_rho"], 3),
                ])
                data[key] = cell
    return ExperimentResult(
        figure="sweep",
        title="Closed-form (app, platform, N) saturation sweep",
        headers=["key", "devices", "bw_mbs", "task_median_s",
                 "task_p99_s", "cluster_rho"],
        rows=rows,
        data=data,
    )


def validate(app_keys: Sequence[str] = ("S1", "S4"),
             platforms: Sequence[str] = PLATFORMS,
             n_devices: int = 16,
             base_seed: int = 0,
             min_samples: int = 1200,
             tolerance_pct: float = 25.0) -> ExperimentResult:
    """Cross-check the sweep estimator against exact simulation.

    Runs the fig18 recipe (pinned periodic rate, warm containers,
    steady-state filter) at small N and asserts the analytic p99 lands
    within ``tolerance_pct`` of the simulated p99. The band is wider
    than fig18's 5% because the sweep adds heuristic contention terms
    on top of the validated fixed-cost model; it is the regression
    guard, not a precision claim.
    """
    by_key = {spec.key: spec for spec in all_apps()}
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    worst = 0.0
    for key in app_keys:
        spec = by_key[key]
        for platform in platforms:
            rate = _validation_rate(spec, platform)
            duration_s = min(3000.0, max(120.0,
                                         min_samples / (rate * n_devices)))
            result = SingleTierRunner(
                platform_config(platform), spec, seed=base_seed,
                duration_s=duration_s, n_devices=n_devices,
                rate_override=rate, bursty=False,
                keepalive_s=3600.0).run()
            series = result.task_latencies
            steady = series.values[series.times > 60.0]
            sim_tail = float(np.percentile(steady, 99, method="linear"))
            cell = predict(spec, platform, n_devices, rate_hz=rate)
            dev_pct = 100.0 * (sim_tail - cell["p99_s"]) / cell["p99_s"]
            worst = max(worst, abs(dev_pct))
            cell_key = f"{key}:{platform}:{n_devices}"
            rows.append([cell_key, round(sim_tail * 1000, 1),
                         round(cell["p99_s"] * 1000, 1),
                         round(dev_pct, 2),
                         abs(dev_pct) <= tolerance_pct])
            data[cell_key] = {
                "sim_p99_s": sim_tail,
                "analytic_p99_s": cell["p99_s"],
                "deviation_pct": dev_pct,
            }
    data["max_abs_deviation_pct"] = worst
    data["tolerance_pct"] = tolerance_pct
    data["all_within_tolerance"] = worst <= tolerance_pct
    return ExperimentResult(
        figure="sweep_validate",
        title="Closed-form sweep vs exact simulation (small N)",
        headers=["key", "sim_p99_ms", "analytic_p99_ms", "dev_pct",
                 "within_tolerance"],
        rows=rows,
        data=data,
    )
