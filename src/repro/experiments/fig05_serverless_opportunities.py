"""Fig 5: the opportunities of serverless for edge jobs.

(a) Task latency with a fixed (equal-CPU-cost) deployment, serverless, and
serverless with intra-task parallelism, per application. Expected shape:
serverless beats fixed for every parallel job; intra-task parallelism adds
a large further win for S9/S10; S6/S7/S8 benefit little.

(b) Face-recognition latency under a fluctuating load (ramp up, ramp down)
for serverless vs average- and worst-case-provisioned fixed pools.
Expected shape: serverless tracks the load; the average-provisioned pool
saturates at the peak; the max-provisioned pool performs but idles.

(c) Active tasks over time when 0/5/10/20% of functions fail mid-run.
Expected shape: respawns absorb the failures — the task population stays
on the no-fault trajectory (slightly above it, from duplicated work).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..apps import all_apps, app
from ..platforms import SingleTierRunner, platform_config
from .common import ExperimentResult

RAMP_DURATION_S = 120.0


def ramp_profile(t: float) -> float:
    """Fraction of devices active: one drone, ramp to all, ramp down."""
    if t < RAMP_DURATION_S / 2:
        return max(0.07, t / (RAMP_DURATION_S / 2))
    return max(0.07, (RAMP_DURATION_S - t) / (RAMP_DURATION_S / 2))


def run_concurrency(duration_s: float = 60.0, load_fraction: float = 0.6,
                    base_seed: int = 0) -> ExperimentResult:
    """Fig 5a."""
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    faas = platform_config("centralized_faas")
    iaas = platform_config("centralized_iaas")
    for spec in all_apps():
        fixed = SingleTierRunner(
            iaas, spec, seed=base_seed, duration_s=duration_s,
            load_fraction=load_fraction, iaas_headroom=1.0).run()
        serverless = SingleTierRunner(
            faas, spec, seed=base_seed, duration_s=duration_s,
            load_fraction=load_fraction).run()
        intra = SingleTierRunner(
            faas, spec, seed=base_seed, duration_s=duration_s,
            load_fraction=load_fraction,
            intra_task_parallelism=True).run()
        rows.append([spec.key,
                     round(fixed.median_latency_s, 3),
                     round(serverless.median_latency_s, 3),
                     round(intra.median_latency_s, 3)])
        data[spec.key] = {
            "fixed_s": fixed.median_latency_s,
            "serverless_s": serverless.median_latency_s,
            "intra_s": intra.median_latency_s,
        }
    return ExperimentResult(
        figure="fig05a",
        title="Median task latency (s): fixed vs serverless vs intra-task",
        headers=["job", "fixed_s", "serverless_s", "serverless_intra_s"],
        rows=rows,
        data=data,
    )


def run_elasticity(base_seed: int = 0) -> ExperimentResult:
    """Fig 5b: latency under a fluctuating load, three deployments."""
    spec = app("S1")
    deployments = {
        # Average-provisioned fixed pool: sized for half the peak.
        "fixed_avg": dict(config="centralized_iaas", iaas_headroom=0.55),
        # Max-provisioned fixed pool.
        "fixed_max": dict(config="centralized_iaas", iaas_headroom=1.3),
        "serverless": dict(config="centralized_faas"),
    }
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for name, options in deployments.items():
        kwargs = {k: v for k, v in options.items() if k != "config"}
        result = SingleTierRunner(
            platform_config(options["config"]), spec, seed=base_seed,
            duration_s=RAMP_DURATION_S, load_fraction=0.9,
            load_profile=ramp_profile, **kwargs).run()
        series = result.task_latencies
        # Median latency per 20 s window — the Fig 5b time series.
        windows = []
        times, values = series.times, series.values
        for start in np.arange(0, RAMP_DURATION_S, 20.0):
            mask = (times >= start) & (times < start + 20.0)
            windows.append(float(np.median(values[mask]))
                           if mask.any() else float("nan"))
        peak = float(np.nanmax(windows))
        rows.append([name, round(series.median, 3), round(series.p99, 3),
                     round(peak, 3)])
        data[name] = {"windows_s": windows, "median_s": series.median,
                      "p99_s": series.p99,
                      "utilization": result.extras.get("pool_utilization")}
    return ExperimentResult(
        figure="fig05b",
        title="S1 latency under fluctuating load",
        headers=["deployment", "median_s", "p99_s", "peak_window_median_s"],
        rows=rows,
        data=data,
    )


def run_fault_tolerance(fault_rates=(0.0, 0.05, 0.10, 0.20),
                        base_seed: int = 0) -> ExperimentResult:
    """Fig 5c: active tasks over time under function failures."""
    spec = app("S1")
    config = platform_config("centralized_faas")
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for fault_rate in fault_rates:
        result = SingleTierRunner(
            config, spec, seed=base_seed, duration_s=RAMP_DURATION_S,
            load_fraction=0.9, load_profile=ramp_profile,
            fault_rate=fault_rate).run()
        completed = len(result.task_latencies)
        respawns = result.extras["respawns"]
        peak_active = max(c for _, c in result.extras["active_samples"])
        label = f"{int(fault_rate * 100)}%"
        rows.append([label, completed, respawns, peak_active,
                     round(result.median_latency_s, 3)])
        data[label] = {
            "completed": completed,
            "respawns": respawns,
            "peak_active": peak_active,
            "active_samples": result.extras["active_samples"],
        }
    return ExperimentResult(
        figure="fig05c",
        title="Task population under function failures",
        headers=["fault_rate", "completed", "respawns", "peak_active",
                 "median_s"],
        rows=rows,
        data=data,
    )
