"""Registry of every figure's harness (the per-experiment index)."""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from . import (
    ablation_mechanisms,
    chaos,
    fig01_treasure_hunt,
    fig03_network_overheads,
    fig04_centralized_vs_distributed,
    fig05_serverless_opportunities,
    fig06_serverless_challenges,
    fig11_performance,
    fig12_breakdown,
    fig13_ablation,
    fig14_power_bandwidth,
    fig15_learning,
    fig16_cars,
    fig17_scalability,
    fig18_validation,
    fig19_serving,
    sweep,
)
from .common import ExperimentResult
from .. import obs
from ..sim import supervisor
from ..sim.accounting import layer_breakdown
from .parallel import (pool_degradations, total_events_consumed,
                       total_layer_counts)

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    # Micro-ablations of single mechanisms (sections 4.3/4.6).
    "ablation-colocation": ablation_mechanisms.run_colocation,
    "ablation-keepalive": ablation_mechanisms.run_keepalive,
    "ablation-straggler": ablation_mechanisms.run_straggler,
    "chaos": chaos.run,
    # Worker chaos: SIGKILL/hang real shard workers, assert byte-parity.
    "chaos-workers": chaos.run_workers,
    "fig01": fig01_treasure_hunt.run,
    "fig03a": fig03_network_overheads.run_breakdown,
    "fig03b": fig03_network_overheads.run_saturation,
    "fig04": fig04_centralized_vs_distributed.run,
    "fig05a": fig05_serverless_opportunities.run_concurrency,
    "fig05b": fig05_serverless_opportunities.run_elasticity,
    "fig05c": fig05_serverless_opportunities.run_fault_tolerance,
    "fig06a": fig06_serverless_challenges.run_variability,
    "fig06b": fig06_serverless_challenges.run_breakdown,
    "fig06c": fig06_serverless_challenges.run_sharing,
    "fig11": fig11_performance.run,
    "fig12": fig12_breakdown.run,
    "fig13": fig13_ablation.run,
    "fig14": fig14_power_bandwidth.run,
    "fig15": fig15_learning.run,
    "fig16": fig16_cars.run,
    "fig17a": fig17_scalability.run_resolution,
    "fig17b": fig17_scalability.run_swarm_size,
    # Mean-field extension of fig17b: 10k-1M devices, zero kernel events.
    "fig17c": fig17_scalability.run_extended,
    # Hybrid exact-focus + mean-field-background fleets (sharded cloud).
    "fig17d": fig17_scalability.run_hybrid,
    "fig18": fig18_validation.run,
    # Open-loop serving: latency/shed knee + flash-crowd elasticity.
    "fig19": fig19_serving.run,
    # Closed-form (app, platform, N) grid — zero kernel events by design.
    "sweep": sweep.run,
    # Exact-vs-analytic tolerance check at small N (CI's sweep-smoke job).
    "sweep-validate": sweep.validate,
}


def experiment_ids() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(figure: str, **options) -> ExperimentResult:
    """Run one figure's harness by id (e.g. ``"fig11"``).

    The returned result carries wall-clock seconds and the number of
    kernel events dispatched (pool workers included) in ``elapsed_s`` /
    ``sim_events``.
    """
    runner = EXPERIMENTS.get(figure)
    if runner is None:
        raise ValueError(
            f"unknown experiment {figure!r}; valid: {experiment_ids()}")
    events_before = total_events_consumed()
    layers_before = total_layer_counts()
    incident_mark = supervisor.incident_count()
    start = time.perf_counter()
    result = runner(**options)
    result.elapsed_s = time.perf_counter() - start
    result.sim_events = total_events_consumed() - events_before
    layers_after = total_layer_counts()
    result.layer_events = layer_breakdown(
        {layer: layers_after[layer] - layers_before.get(layer, 0)
         for layer in layers_after},
        result.sim_events)
    tracer = obs.active_tracer()
    # Anomalies stay out of the manifest unless they happened: absent
    # keys keep undisturbed manifests byte-comparable across revisions.
    extra: Dict[str, object] = {}
    degraded = pool_degradations()
    if degraded:
        extra["pool_degradations"] = degraded
    incidents = supervisor.incidents_since(incident_mark)
    if incidents:
        extra["worker_incidents"] = [i.to_dict() for i in incidents]
        extra["worker_recoveries"] = len(incidents)
    result.manifest = obs.RunManifest.collect(
        figure, seed=options.get("base_seed"),
        elapsed_s=result.elapsed_s,
        sim_events=result.sim_events,
        layer_events=dict(result.layer_events),
        spans=len(tracer) if tracer is not None else 0,
        extra=extra)
    return result
