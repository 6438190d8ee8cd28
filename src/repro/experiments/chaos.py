"""Chaos sweep: fault plans over scenarios, with invariant auditing.

``python -m repro.experiments --chaos`` runs each named
:class:`~repro.faults.FaultPlan` against each scenario app on the
centralized-FaaS platform, alongside a fault-free twin at the same seed,
and condenses every (scenario, plan) pair into one
:class:`~repro.faults.ResilienceReport` row: task conservation
(submitted = completed + lost), recovery actions and their latency
percentiles, makespan inflation against the twin, and the
:class:`~repro.faults.InvariantChecker`'s violation count — which a
healthy stack keeps at zero.

``python -m repro.experiments --chaos-workers`` is the second tier of
chaos: instead of simulated faults inside the model, it SIGKILLs, hangs,
and stalls the *real worker processes* behind the sharded runtime
(:mod:`repro.sim.shard`) mid-run, then asserts the supervised recovery
path (:mod:`repro.sim.supervisor`) merged rows byte-identical to an
undisturbed twin. One lane per scale-out topology: edge-sharded,
cloud-sharded, and hybrid exact/mean-field.

Everything is deterministic at a fixed seed: plans are pure data fired at
fixed instants, the injector draws no randomness, and the workload
streams are untouched by arming a plan. Worker chaos perturbs only
wall-clock and process accounting — never the merged rows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps import app
from ..faults import (FaultPlan, ResilienceReport, WorkerFaultPlan,
                      named_plan, plan_names)
from ..platforms import SingleTierRunner, platform_config
from ..sim import supervisor
from ..sim.shard import run_sharded
from .common import ExperimentResult

__all__ = ["run", "run_pair", "run_workers", "run_worker_lane",
           "worker_lanes", "DEFAULT_SCENARIOS", "WORKER_LANES",
           "DEFAULT_WORKER_FAULTS"]

#: The scenario sweep the issue's acceptance criteria name (S1-S3).
DEFAULT_SCENARIOS = ("S1", "S2", "S3")
PLATFORM = "centralized_faas"


def run_pair(scenario: str, plan: FaultPlan, seed: int = 0,
             duration_s: Optional[float] = None) -> ResilienceReport:
    """One chaos run plus its fault-free twin; returns the report."""
    config = platform_config(PLATFORM)
    spec = app(scenario)

    def runner(fault_plan: Optional[FaultPlan]) -> "RunResult":
        return SingleTierRunner(config, spec, seed=seed,
                                duration_s=duration_s,
                                fault_plan=fault_plan).run()

    baseline = runner(None)
    chaotic = runner(plan)
    chaos = chaotic.extras["chaos"]
    invariants = chaos["invariants"]
    return ResilienceReport(
        scenario=scenario,
        plan=plan.name,
        submitted=invariants["submitted"],
        completed=invariants["completed"],
        lost=invariants["lost"],
        violations=invariants["violations"],
        violation_details=invariants["violation_details"],
        recoveries=chaos["recoveries"],
        recovery_latencies_s=chaos["recovery_latencies_s"],
        makespan_s=chaos["makespan_s"],
        baseline_makespan_s=baseline.duration_s,
        median_latency_s=chaotic.task_latencies.percentile(50),
        baseline_median_latency_s=baseline.task_latencies.percentile(50),
    )


def run(base_seed: int = 0,
        scenarios: Sequence[str] = DEFAULT_SCENARIOS,
        plans: Optional[Sequence[str]] = None,
        duration_s: Optional[float] = None) -> ExperimentResult:
    """The full sweep: every plan against every scenario."""
    plan_keys = list(plans) if plans else plan_names()
    reports: List[ResilienceReport] = []
    for scenario in scenarios:
        spec = app(scenario)
        horizon = (duration_s if duration_s is not None
                   else _default_duration(spec))
        for key in plan_keys:
            plan = named_plan(key, duration_s=horizon)
            reports.append(run_pair(scenario, plan, seed=base_seed,
                                    duration_s=duration_s))
    data: Dict[str, object] = {
        "reports": [report.to_dict() for report in reports],
        "total_violations": sum(r.violations for r in reports),
        "all_accounted": all(r.all_accounted for r in reports),
    }
    return ExperimentResult(
        figure="chaos",
        title="Resilience under injected faults "
              f"({PLATFORM}, seed {base_seed})",
        headers=ResilienceReport.headers(),
        rows=[report.row() for report in reports],
        data=data,
    )


def _default_duration(spec) -> float:
    """Plans scale to the run window the scenario will actually use."""
    from ..config import DEFAULT
    return DEFAULT.job_duration_s


# --------------------------------------------------------------------------
# Worker chaos: real processes killed/hung/stalled under supervision.
# --------------------------------------------------------------------------

#: Scale-out topologies the acceptance criteria name, smallest shapes
#: that still exercise every worker kind (16 devices, 4-device cells).
WORKER_LANES: Dict[str, Dict[str, object]] = {
    "sharded": {"shards": 2},
    "cloud_sharded": {"shards": 2, "cloud_shards": 2,
                      "region_devices": 8},
    "hybrid": {"shards": 2, "cloud_shards": 1, "region_devices": 8,
               "exact_devices": 8},
    # Open-loop background tenants riding the sharded cloud tier while
    # its workers are killed: shed/scale decisions must replay
    # byte-identically through supervised recovery.
    "serving": {"shards": 2, "cloud_shards": 2, "region_devices": 8,
                "serving": "poisson:30,onoff:10:flash"},
}

#: Default fault scripts per lane (``action:scope:worker:op``). The
#: 120 s mission over a 10 s window gives each worker ~13 pipe ops, so
#: ops 2-4 always exist; faults cover both a SIGKILL and a hang on the
#: edge tier plus a kill on a cloud worker where one runs.
DEFAULT_WORKER_FAULTS: Dict[str, str] = {
    "sharded": "kill:shard:0:2,hang:shard:1:3",
    "cloud_sharded": "kill:shard:0:2,kill:cloud:0:2",
    "hybrid": "kill:shard:0:2",
    "serving": "kill:cloud:0:2",
}

WORKER_N_DEVICES = 16
WORKER_CELL_DEVICES = 4
WORKER_WINDOW_S = 10.0
#: Hang-detection deadline for chaos runs. The production default
#: (max(60 s, window)) would make every injected hang cost a minute of
#: wall-clock; chaos runs only need the deadline to exceed one honest
#: barrier step, which takes well under a second at this scale.
WORKER_CHAOS_DEADLINE_S = 2.0


def _worker_scenario(app_key: str):
    """SCENARIO_A's flight/field shell around one suite recognition app
    (the same composition the shard determinism tests pin)."""
    from ..apps import SCENARIO_A
    from ..apps.suite import SUITE
    return dataclasses.replace(
        SCENARIO_A, key=f"ScA-{app_key}", recognition=SUITE[app_key])


def _result_bytes(result) -> Tuple:
    """Every row-observable field, exactly — deliberately excluding the
    supervision extras (incidents are wall-clock accounting, not rows)."""
    return (
        tuple(result.task_latencies.values),
        tuple(result.task_latencies.times),
        result.extras["makespan_s"],
        result.duration_s,
        tuple(result.wireless_meter.events),
        result.extras["targets"],
        result.extras["cloud_completions"],
        # Serving-armed lanes: the shed/scale ledgers and background
        # latency percentiles must also survive recovery bit-for-bit
        # (absent — empty string — on the serving-free lanes).
        str(result.extras.get("serving", "")),
    )


def run_worker_lane(app_key: str, lane: str, seed: int = 0,
                    faults: Optional[str] = None,
                    deadline_s: float = WORKER_CHAOS_DEADLINE_S) -> Dict:
    """One lane: an undisturbed twin, then the same run with real worker
    processes killed/hung mid-flight; returns the comparison record."""
    shape = WORKER_LANES[lane]
    spec = faults if faults is not None else DEFAULT_WORKER_FAULTS[lane]
    plan = WorkerFaultPlan.parse(spec)
    scenario = _worker_scenario(app_key)
    config = platform_config("hivemind")

    def lane_run(worker_faults: WorkerFaultPlan):
        return run_sharded(config, scenario, WORKER_N_DEVICES, seed=seed,
                           cell_devices=WORKER_CELL_DEVICES,
                           window_s=WORKER_WINDOW_S,
                           worker_faults=worker_faults,
                           worker_deadline_s=deadline_s, **shape)

    baseline = lane_run(WorkerFaultPlan())
    mark = supervisor.incident_count()
    chaotic = lane_run(plan)
    incidents = supervisor.incidents_since(mark)
    identical = _result_bytes(baseline) == _result_bytes(chaotic)
    recoveries = [incident.recovery for incident in incidents]
    return {
        "scenario": app_key,
        "lane": lane,
        "faults": plan.spec(),
        "incidents": [incident.to_dict() for incident in incidents],
        "injected": len(plan),
        "recovered": len(incidents),
        "respawns": recoveries.count("respawned"),
        "fallbacks": recoveries.count("in_process"),
        "max_recovery_s": round(max(
            (incident.recovery_s for incident in incidents),
            default=0.0), 6),
        "identical": identical,
    }


def worker_lanes(lanes: Optional[Sequence[str]] = None) -> List[str]:
    """The worker-chaos lanes to run, every lane by default; raises
    ``ValueError`` naming any unknown one."""
    lane_keys = list(lanes) if lanes else list(WORKER_LANES)
    unknown = [key for key in lane_keys if key not in WORKER_LANES]
    if unknown:
        raise ValueError(
            f"unknown worker-chaos lane(s) {unknown}; "
            f"valid: {sorted(WORKER_LANES)}")
    return lane_keys


def run_workers(base_seed: int = 0,
                scenarios: Sequence[str] = ("S1",),
                lanes: Optional[Sequence[str]] = None,
                faults: Optional[str] = None,
                deadline_s: float = WORKER_CHAOS_DEADLINE_S,
                ) -> ExperimentResult:
    """The worker-chaos sweep: each lane per scenario, twin-compared.

    Skips cleanly (``data["skipped"]``) where worker processes cannot be
    spawned at all — there is no real process to kill there, and the
    supervised runtime already degrades to in-process execution.
    """
    lane_keys = worker_lanes(lanes)
    if faults:
        WorkerFaultPlan.parse(faults)  # reject a bad spec before any run
    skipped = not supervisor.can_spawn_workers()
    records: List[Dict] = []
    if not skipped:
        for app_key in scenarios:
            for lane in lane_keys:
                records.append(run_worker_lane(
                    app_key, lane, seed=base_seed, faults=faults,
                    deadline_s=deadline_s))
    rows = [[record["scenario"], record["lane"], record["faults"],
             record["injected"], record["recovered"],
             record["respawns"], record["fallbacks"],
             record["max_recovery_s"],
             "yes" if record["identical"] else "NO"]
            for record in records]
    data: Dict[str, object] = {
        "records": records,
        "skipped": skipped,
        "identical_all": all(r["identical"] for r in records),
        "all_recovered": all(r["recovered"] >= 1 for r in records),
        "total_incidents": sum(r["recovered"] for r in records),
        "incidents": [incident for record in records
                      for incident in record["incidents"]],
    }
    title = ("Worker chaos: supervised recovery under real process "
             f"kills/hangs (seed {base_seed})")
    if skipped:
        title += " [SKIPPED: no process support]"
    return ExperimentResult(
        figure="chaos-workers",
        title=title,
        headers=["scenario", "lane", "faults", "injected", "recovered",
                 "respawns", "fallbacks", "max_recovery_s", "identical"],
        rows=rows,
        data=data,
    )
