"""Sharded swarm execution: cell decomposition + conservative time sync.

The unsharded :class:`~repro.platforms.scenario_runner.ScenarioRunner`
steps the whole swarm inside one kernel in one process, which caps fig17
reproduction at ~1k devices. This module scales the same scenario out by
decomposing the swarm into fixed-size **cells** — disjoint groups of
devices, each flying its own slice of the (linearly scaled) field inside
its own :class:`~repro.sim.Environment` — and one **cloud shard**
(:class:`~repro.serverless.gateway.CloudGateway`) running the shared
backend. Shards are merely *scheduling groups of cells* spread over
worker processes; the semantic unit is the cell.

Determinism contract (the PR 1 seed-by-replica pattern, applied within a
run):

- The cell decomposition depends only on ``(n_devices, cell_devices)``,
  never on the shard count.
- Cell ``k`` seeds its streams with ``seed + 1000 * k`` and simulates an
  identical world no matter which worker runs it.
- Cloud-bound messages carry their service-time draws with them and are
  merged in canonical ``(arrival_s, cell, seq)`` order before the cloud
  shard sees them; the cloud shard draws only from its own offset
  namespace.
- Result rows are merged in canonical order, so the final
  :class:`~repro.platforms.base.RunResult` is **byte-identical at any
  shard count** (1, 2, 4, ... workers — same bytes, different
  wall-clock).

Time synchronization is conservative: all cells advance to a barrier
time ``t`` before the cloud shard advances past ``t - w`` (one window
``w`` behind), and ``w`` is never smaller than
:func:`~repro.network.rpc.boundary_lookahead` — the minimum edge→cloud
latency — so no message can ever arrive in the cloud shard's past. The
scenario task graphs have no cloud→edge data edge (only the final
synchronization barrier joins the tiers), so the reverse direction needs
no lookahead at all and the window can be made much larger than the
physical bound for efficiency; ``REPRO_SHARD_WINDOW`` tunes it.

Workers: each scheduling group of cells (``_Cells``) or of cloud
regions (``_Regions``) is an executor with one ``request(command,
argument)`` method, and :func:`run_sharded` drives every group through a
:class:`~repro.sim.supervisor.SupervisedConnection`. The handle runs the
executor in a forked worker process (:func:`repro.sim.supervisor.serve`)
or in-process; both paths produce the same bytes.

The unarmed path (``REPRO_SHARDS`` unset / ``shards`` not given) never
enters this module: experiments fall through to the unsharded runner,
byte-identical to the seed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..config import DEFAULT, PaperConstants
from ..network import boundary_lookahead
from ..platforms.base import PlatformConfig, RunResult
from ..platforms.scenario_runner import CLOUD_BUDGET_CORES, ScenarioRunner
from ..serverless.gateway import CloudGateway
from ..telemetry import (BandwidthMeter, BreakdownAggregate,
                         LatencyBreakdown, MetricSeries)
from ..faults.worker import WorkerFaultPlan
from . import flags
from .supervisor import (ProtocolError, SupervisedConnection,
                         incident_count, incidents_since,
                         resolve_worker_deadline, resolve_worker_retries)

__all__ = ["CellSpec", "CloudCall", "CellBoundary", "plan_cells",
           "run_sharded", "DEFAULT_CELL_DEVICES", "DEFAULT_WINDOW_S",
           "DEFAULT_REGION_DEVICES"]

#: Devices per cell: matches the granularity at which HiveMind itself
#: scales out shared-state schedulers (one controller per 64 devices, see
#: ``ScenarioRunner._n_controllers``), so a cell is one controller's
#: worth of swarm.
DEFAULT_CELL_DEVICES = 64

#: Default barrier window (simulated seconds). Correctness only requires
#: ``window >= boundary_lookahead`` (~13 ms); the large default amortizes
#: barrier IPC because the scenario dataflow is strictly edge→cloud.
#: Part of the model configuration: results are invariant to the shard
#: count at a *fixed* window, not across window sizes.
DEFAULT_WINDOW_S = 60.0

#: Devices per cloud region when the cloud tier is sharded
#: (``REPRO_CLOUD_SHARDS``): one region per 512 devices is eight cells'
#: (eight controllers') worth of swarm — the granularity at which the
#: multi-region controller layout of section 4.7 splits the backend.
#: Region membership is a pure function of ``(cell plan,
#: region_devices)``, never of the worker count, so merged rows are
#: identical at any ``(shards, cloud_shards)`` combination.
DEFAULT_REGION_DEVICES = 512

#: Hard ceiling on simulated time before the barrier loop declares the
#: mission hung (no scenario comes near this horizon).
MAX_HORIZON_S = 1e8

#: Global cap on synthetic cloud calls injected by mean-field cells in a
#: hybrid run; per-cell slots shrink as the background fleet grows so a
#: 1M-device background prices into a bounded stream.
MAX_SYNTHETIC_CALLS = 4096


@dataclass(frozen=True)
class CellSpec:
    """One cell of the decomposed swarm (pure data, picklable)."""

    index: int
    n_devices: int
    device_id_base: int
    seed: int
    #: This cell's population-proportional share of the cloud compute
    #: budget, so the hybrid runtime-remapping fraction matches the
    #: whole-swarm value.
    cloud_budget_cores: float
    #: Scheduled device failures local to this cell:
    #: (cell-local device index, time) pairs.
    fail_devices_at: Tuple[Tuple[int, float], ...] = ()
    #: ``"exact"`` (simulate every device) or ``"meanfield"`` (hybrid
    #: runs: price the cell's cloud load as a synthetic arrival stream).
    mode: str = "exact"
    #: Owning cloud region (``device_id_base // region_devices``) — a
    #: pure function of the plan, independent of shard/worker counts.
    region: int = 0


@dataclass
class CloudCall:
    """One cloud-bound message crossing the cell/cloud boundary.

    The edge half fills the submit-time fields (including every
    service-time draw the cloud side will need, taken from the cell's
    own streams); the cloud shard fills ``completion_s`` and
    ``cloud_breakdown``; the cell later fills the edge-completion fields
    when its local task wrapper (obstacle-avoidance join) finishes. The
    merge layer joins both halves into one result row.
    """

    cell: int
    seq: int
    device_id: str
    arrival_s: float
    #: Cloud recognition service draw; None for dedup-only messages
    #: (edge-executed recognition whose aggregation is still cloud-side).
    recognition_s: Optional[float]
    dedup_s: Optional[float]
    input_mb: float
    output_mb: float
    # -- edge half (filled at the obstacle join) -----------------------
    start_s: Optional[float] = None
    edge_done_s: Optional[float] = None
    edge_breakdown: Optional[Dict[str, float]] = None
    # -- cloud half (filled by the gateway) ----------------------------
    completion_s: Optional[float] = None
    cloud_breakdown: Optional[Dict[str, float]] = None
    # -- cloud-tier sharding -------------------------------------------
    #: Owning cloud region (stamped by the boundary; 0 when the cloud
    #: tier is monolithic).
    region: int = 0
    #: True for mean-field background load (hybrid runs): served without
    #: straggler mitigation, counted as background completions, and
    #: never joined into a latency row.
    synthetic: bool = False
    #: Tasks' worth of load this message carries (synthetic streams
    #: compress many batches into one weighted call; exact calls are 1).
    weight: float = 1.0
    # -- open-loop serving ---------------------------------------------
    #: Owning serving tenant (``None`` for swarm and mean-field
    #: traffic). Tenant-tagged calls go through the admission gate and
    #: its per-tenant fairness ledger; swarm calls never do.
    tenant: Optional[str] = None
    #: True when the admission controller shed this call (no pipeline
    #: stages priced, no completion).
    shed: bool = False

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.arrival_s, self.cell, self.seq)

    def __reduce__(self):
        # Positional wire form: a pipe crossing carries the field values
        # in declaration order, not a per-call dict of attribute names.
        return CloudCall, _FIELDS(self)


_FIELDS = operator.attrgetter(
    *(field.name for field in fields(CloudCall)))


class CellBoundary:
    """The cell side of the edge/cloud boundary.

    :class:`~repro.platforms.scenario_runner.ScenarioRunner` calls
    :meth:`submit` instead of invoking an in-process platform; the shard
    driver drains :meth:`take_fresh` at each barrier.
    """

    def __init__(self, cell: int, region: int = 0):
        self.cell = cell
        self.region = region
        self._seq = 0
        self.calls: List[CloudCall] = []
        self._fresh: List[CloudCall] = []

    def submit(self, device_id: str, arrival_s: float,
               recognition_s: Optional[float], dedup_s: Optional[float],
               input_mb: float, output_mb: float) -> CloudCall:
        call = CloudCall(
            cell=self.cell, seq=self._seq, device_id=device_id,
            arrival_s=arrival_s, recognition_s=recognition_s,
            dedup_s=dedup_s, input_mb=input_mb, output_mb=output_mb,
            region=self.region)
        self._seq += 1
        self.calls.append(call)
        self._fresh.append(call)
        return call

    def take_fresh(self) -> List[CloudCall]:
        fresh, self._fresh = self._fresh, []
        return fresh


def plan_cells(n_devices: int, seed: int = 0,
               cell_devices: int = DEFAULT_CELL_DEVICES,
               device_faults: Sequence[Tuple[int, float]] = (),
               exact_devices: Optional[int] = None,
               region_devices: int = DEFAULT_REGION_DEVICES
               ) -> List[CellSpec]:
    """Decompose ``n_devices`` into cells (shard-count independent).

    ``device_faults`` is a sequence of (global device index, time) crash
    schedules, partitioned onto the owning cells. ``exact_devices``
    (hybrid runs) keeps the cells covering the first ``exact_devices``
    devices exact and marks the rest ``mode="meanfield"``; a cell
    straddling the split stays exact, so the exact focus sub-swarm never
    shrinks below what was asked for. ``region_devices`` sets the cloud
    region granularity; a cell belongs entirely to the region owning its
    base device (``device_id_base // region_devices``), so cells never
    straddle regions.
    """
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    if cell_devices <= 0:
        raise ValueError("cell_devices must be positive")
    if region_devices <= 0:
        raise ValueError("region_devices must be positive")
    if exact_devices is not None and exact_devices <= 0:
        raise ValueError("a hybrid run needs at least one exact device")
    cell_devices = min(cell_devices, n_devices)
    n_cells = math.ceil(n_devices / cell_devices)
    by_cell: Dict[int, List[Tuple[int, float]]] = {}
    for index, at_time in device_faults:
        if not 0 <= index < n_devices:
            raise ValueError(f"device index {index} outside the swarm")
        by_cell.setdefault(index // cell_devices, []).append(
            (index % cell_devices, at_time))
    specs = []
    for cell in range(n_cells):
        base = cell * cell_devices
        count = min(cell_devices, n_devices - base)
        mode = ("meanfield"
                if exact_devices is not None and base >= exact_devices
                else "exact")
        if mode == "meanfield" and by_cell.get(cell):
            # Scheduled crashes demand per-device simulation: a faulted
            # cell is promoted back to exact rather than silently
            # dropping its fault schedule.
            mode = "exact"
        specs.append(CellSpec(
            index=cell, n_devices=count, device_id_base=base,
            seed=seed + 1000 * cell,
            cloud_budget_cores=CLOUD_BUDGET_CORES * count / n_devices,
            fail_devices_at=tuple(by_cell.get(cell, ())),
            mode=mode, region=base // region_devices))
    return specs


# -- executors (run in a worker process or in-process) -------------------

class _Cells:
    """Executor for one scheduling group of cells.

    ``("advance", t)`` steps every cell to barrier ``t`` and returns
    ``(fresh_calls, status)``, where ``status`` maps cell index to its
    makespan once finished; ``("finish", duration)`` finalizes every
    cell and returns ``(cell, RunResult, call ledger)`` triples.
    """

    def __init__(self, config: PlatformConfig, scenario,
                 specs: List[CellSpec], constants: PaperConstants,
                 total_devices: int, runner_kwargs: Dict):
        self._cells = []
        for spec in specs:
            boundary = CellBoundary(spec.index, region=spec.region)
            runner = ScenarioRunner(
                config, scenario, constants=constants,
                n_devices=spec.n_devices, seed=spec.seed,
                cloud_boundary=boundary,
                device_id_base=spec.device_id_base,
                cloud_budget_cores=spec.cloud_budget_cores,
                placement_devices=total_devices,
                fail_devices_at=spec.fail_devices_at,
                **runner_kwargs)
            runner.start()
            self._cells.append((spec, runner, boundary))

    def request(self, command: str, argument) -> object:
        if command == "advance":
            status = {}
            fresh: List[CloudCall] = []
            for spec, runner, boundary in self._cells:
                runner.advance_to(argument)
                fresh.extend(boundary.take_fresh())
                if runner.finished:
                    status[spec.index] = runner.makespan
            return fresh, status
        if command == "finish":
            return [(spec.index, runner.finish(duration_override=argument),
                     boundary.calls)
                    for spec, runner, boundary in self._cells]
        raise ProtocolError(f"unknown cell command {command!r}")


class _Regions:
    """Executor for one worker group of cloud regions.

    ``("serve", [(region, calls), ...])`` prices each region's batch on
    its virtual clock and returns ``(cell, seq, completion_s,
    breakdown)`` tuples; ``("finish", None)`` returns ``{region:
    stats}``. ``region_plans`` maps region index to its partitioned
    backend :class:`~repro.faults.FaultPlan` (simulated faults: a
    respawned worker applies them again, unlike one-shot worker chaos).
    """

    def __init__(self, region_specs, config, scenario, constants,
                 total_devices: int, seed: int, n_regions: int,
                 region_plans: Optional[Dict], serving_cfg):
        from ..serverless.region import RegionGateway, region_server_count
        self._gateways = {}
        for region, count in region_specs:
            serving = None
            if serving_cfg is not None:
                # Policies are mutable per-region state: rebuild them
                # here, in whichever process owns the gateway (only the
                # picklable ServingConfig crosses the pipe).
                from ..serving import ServingPolicy
                serving = ServingPolicy(
                    serving_cfg,
                    n_servers=region_server_count(
                        region, n_regions, constants.cluster.servers),
                    cores_per_server=constants.cluster.cores_per_server)
            gateway = RegionGateway(
                config, scenario, constants, region=region,
                n_regions=n_regions, region_devices=count,
                total_devices=total_devices, seed=seed, serving=serving)
            plan = (region_plans or {}).get(region)
            if plan is not None and plan.armed:
                gateway.apply_fault_plan(plan)
            self._gateways[region] = gateway

    def request(self, command: str, argument) -> object:
        if command == "serve":
            completions: List = []
            for region, calls in argument:
                completions.extend(self._gateways[region].serve(calls))
            return completions
        if command == "finish":
            return {region: gateway.stats()
                    for region, gateway in self._gateways.items()}
        raise ProtocolError(f"unknown cloud command {command!r}")


# -- merge helpers ------------------------------------------------------

def _merge_latencies(results: List[Tuple[int, RunResult, List[CloudCall]]],
                     name: str) -> Tuple[MetricSeries, BreakdownAggregate]:
    """Join edge/cloud task halves and merge all rows in canonical order.

    Canonical row order is ``(start time, cell, within-cell position)``
    with deferred (cloud-completing) rows positioned after the cell's
    local rows — a pure function of the cell decomposition, so the
    merged series is identical at any shard count.
    """
    rows = []
    for cell, result, calls in results:
        series = result.task_latencies
        values, times = series.values, series.times
        for position in range(len(series)):
            rows.append((float(times[position]), cell, position,
                         float(values[position]), None))
        for call in calls:
            if call.start_s is None or call.completion_s is None:
                continue  # task never completed (e.g. device died mid-run)
            latency = max(call.edge_done_s, call.completion_s) - call.start_s
            breakdown = (LatencyBreakdown(**call.edge_breakdown) +
                         LatencyBreakdown(**call.cloud_breakdown))
            rows.append((call.start_s, cell, 10 ** 9 + call.seq,
                         latency, breakdown))
    rows.sort(key=lambda row: row[:3])
    # A cell's local breakdown records were appended in lockstep with its
    # latency samples (handle_batch adds both together), so local row
    # ``position`` maps straight to ``_records[position]``.
    local_records = {cell: result.breakdowns._records
                     for cell, result, _ in results}
    latencies = MetricSeries(name)
    breakdowns = BreakdownAggregate()
    for time, cell, position, value, breakdown in rows:
        latencies.add(value, time=time)
        if breakdown is None:
            breakdown = local_records[cell][position]
        breakdowns.add(breakdown)
    return latencies, breakdowns


def _aggregate_serving(serving_cfg, serving_calls, completion_map,
                       region_stats) -> Dict[str, object]:
    """Merge per-region serving counters and price the background
    stream's end-to-end latency from the driver-side call copies.

    The region workers returned their gate/autoscaler ledgers in
    ``stats()["serving"]``; the driver still holds every serving call
    it generated, so joining completions back by ``(cell, seq)`` gives
    per-call latency without shipping call objects back over the pipe.
    """
    offered: Dict[str, int] = {}
    admitted: Dict[str, int] = {}
    shed: Dict[str, int] = {}
    scale_outs = scale_ins = 0
    shed_calls = 0
    for stats in region_stats.values():
        shed_calls += stats.get("shed_calls", 0)
        per_region = stats.get("serving") or {}
        admission = per_region.get("admission") or {}
        for key, bucket in (("offered", offered),
                            ("admitted", admitted), ("shed", shed)):
            for tenant, count in (admission.get(key) or {}).items():
                bucket[tenant] = bucket.get(tenant, 0) + count
        autoscale = per_region.get("autoscale") or {}
        scale_outs += autoscale.get("scale_outs", 0)
        scale_ins += autoscale.get("scale_ins", 0)
    latencies: List[float] = []
    for call in serving_calls:
        done = completion_map.get((call.cell, call.seq))
        if done is not None:
            call.completion_s, call.cloud_breakdown = done
            latencies.append(done[0] - call.arrival_s)
    out: Dict[str, object] = {
        "tenants": [tenant.name for tenant in serving_cfg.tenants],
        "offered_calls": len(serving_calls),
        "served_calls": len(latencies),
        "shed_calls": shed_calls,
        "offered": offered,
        "admitted": admitted,
        "shed": shed,
        "scale_outs": scale_outs,
        "scale_ins": scale_ins,
        "admission_enabled": serving_cfg.admission_enabled,
        "autoscale_enabled": serving_cfg.autoscale_enabled,
    }
    if latencies:
        import numpy
        array = numpy.asarray(latencies)
        for label, quantile in (("p50", 50.0), ("p99", 99.0),
                                ("p999", 99.9)):
            out[f"latency_{label}_s"] = round(
                float(numpy.percentile(array, quantile)), 6)
    return out


def _merge_extras(results, cloud_stats: Dict, makespan: float,
                  window_s: float, shards: int,
                  workers: int) -> Tuple[Dict, bool]:
    """Merge per-cell extras with the cloud tier's counters.

    ``cloud_stats`` carries the cloud-side keys (``cloud_completions``,
    ``cloud_makespan_s``, ``persisted_documents``, ``cold_starts``, plus
    any region/hybrid accounting) from either the monolithic gateway or
    the summed per-region gateways.
    """
    ordered = [result for _, result, _ in results]
    from ..learning.accuracy import DetectionTally
    tally = DetectionTally()
    for result in ordered:
        cell_tally = result.extras.get("tally")
        if cell_tally is not None:
            tally.correct += cell_tally.correct
            tally.false_negatives += cell_tally.false_negatives
            tally.false_positives += cell_tally.false_positives
            tally.true_negatives += cell_tally.true_negatives
    failed: List[str] = []
    for result in ordered:
        failed.extend(result.extras.get("failed_devices", []))
    first = ordered[0].extras
    extras: Dict[str, object] = {
        "makespan_s": makespan,
        "targets": sum(r.extras["targets"] for r in ordered),
        "recognition_tier": first["recognition_tier"],
        "cloud_fraction": first["cloud_fraction"],
        "tally": tally,
        "failed_devices": failed,
        "cells": len(ordered),
        "shards": shards,
        "shard_workers": workers,
        "window_s": window_s,
    }
    extras.update(cloud_stats)
    if "unique_people" in first:
        extras["unique_people"] = sum(
            r.extras["unique_people"] for r in ordered)
    else:
        extras["items_found"] = sum(
            r.extras["items_found"] for r in ordered)
    completed = all(r.completed for r in ordered)
    return extras, completed


# -- driver -------------------------------------------------------------

def resolve_window(constants: PaperConstants,
                   window_s: Optional[float] = None) -> float:
    """Barrier window: configured value clamped to the causal minimum."""
    window_s = flags.shard_window(window_s)
    if window_s is None:
        window_s = DEFAULT_WINDOW_S
    return max(window_s, boundary_lookahead(constants))


def run_sharded(config: PlatformConfig, scenario, n_devices: int,
                seed: int = 0, shards: int = 1,
                cell_devices: int = DEFAULT_CELL_DEVICES,
                window_s: Optional[float] = None,
                constants: PaperConstants = DEFAULT,
                device_faults: Sequence[Tuple[int, float]] = (),
                cloud_shards: int = 0,
                region_devices: int = DEFAULT_REGION_DEVICES,
                exact_devices: Optional[int] = None,
                fault_plan=None,
                worker_faults: Optional[WorkerFaultPlan] = None,
                worker_deadline_s: Optional[float] = None,
                worker_retries: Optional[int] = None,
                serving=None,
                **runner_kwargs) -> RunResult:
    """Run one scenario with the swarm decomposed into cells over
    ``shards`` worker processes; returns a merged :class:`RunResult`
    byte-identical at any ``shards`` value.

    ``cloud_shards >= 1`` additionally decomposes the *cloud* tier into
    per-region controller slices (:class:`~repro.serverless.region.
    RegionGateway`) scheduled over up to ``cloud_shards`` worker groups;
    region membership is a pure function of the cell plan and
    ``region_devices``, so rows are identical at any
    ``(shards, cloud_shards)`` combination. ``exact_devices`` arms a
    hybrid run: cells past the first ``exact_devices`` devices become
    mean-field aggregates whose cloud load is injected as calibrated
    synthetic streams (this implies a sharded cloud tier).

    ``runner_kwargs`` pass through to every cell's
    :class:`~repro.platforms.scenario_runner.ScenarioRunner` (e.g.
    ``frame_mb``, ``fps``, ``passes``, ``vector_edge``).
    ``device_faults`` is a partitioned fault plan's
    device-crash schedule as (global index, time) pairs — see
    :meth:`repro.faults.FaultPlan.partition`. Alternatively pass a whole
    :class:`~repro.faults.FaultPlan` as ``fault_plan`` and the driver
    partitions it itself: device crashes route to their owning cells and
    (in cloud-armed runs) backend events arm every
    :class:`~repro.serverless.region.RegionGateway` via
    :meth:`~repro.serverless.region.RegionGateway.apply_fault_plan`
    (monolithic-gateway runs apply only the device-crash slice).

    Worker supervision (:mod:`repro.sim.supervisor`): every worker pipe
    is deadline-guarded (``worker_deadline_s`` /
    ``REPRO_WORKER_DEADLINE``, default ``max(60 s, window)``), dead or
    hung workers are respawned up to ``worker_retries`` times
    (``REPRO_WORKER_RETRIES``, default 2) with their journal replayed,
    then degraded to in-process execution — every recovery path yields
    the same bytes. ``worker_faults`` (or ``REPRO_CHAOS_WORKERS``) arms
    the chaos injector of :mod:`repro.faults.worker` against the real
    worker processes; armed runs force one process per scheduling group
    so there is a real process to kill.

    ``serving`` arms the open-loop background load of
    :mod:`repro.serving`: a spec string (``REPRO_SERVING`` grammar) or a
    prebuilt :class:`~repro.serving.ServingConfig`. Serving calls are
    generated once in the driver from the seed's private serving stream
    namespace and injected into their regions through the same
    synthetic-stream machinery as hybrid mean-field load, so armed rows
    are identical at any ``(shards, cloud_shards)`` grouping; like
    hybrid runs, serving implies a sharded cloud tier
    (``cloud_shards >= 1``).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if cloud_shards < 0:
        raise ValueError("cloud_shards must be non-negative")
    if config.execution not in ("cloud_faas", "hybrid"):
        raise ValueError(
            "sharded execution requires a cloud-backed platform "
            f"(got execution={config.execution!r})")
    if exact_devices is not None and cloud_shards == 0:
        # Synthetic background streams are served by the regional tier;
        # a hybrid run arms it implicitly at one worker group.
        cloud_shards = 1
    serving_cfg = None
    if serving is not None and not isinstance(serving, str):
        serving_cfg = serving  # a prebuilt ServingConfig
    else:
        serving_resolved = flags.serving_spec(serving)
        if serving_resolved:
            from ..serving import ServingConfig
            serving_cfg = ServingConfig.from_spec(serving_resolved)
    if serving_cfg is not None and cloud_shards == 0:
        # Serving load rides the regional tier (same precedent as
        # hybrid): arm it implicitly at one worker group.
        cloud_shards = 1
    if worker_faults is None:
        chaos_spec = flags.chaos_workers()
        worker_faults = (WorkerFaultPlan.parse(chaos_spec)
                         if chaos_spec else WorkerFaultPlan())
    chaos_armed = worker_faults.armed
    retries = resolve_worker_retries(worker_retries)
    partitioned = None
    if fault_plan is not None and fault_plan.armed:
        partitioned = fault_plan.partition(
            n_devices, cell_devices=cell_devices,
            region_devices=region_devices)
        device_faults = (tuple(device_faults)
                         + tuple(partitioned.device_crash_schedule()))
    region_plans = partitioned.regions if partitioned is not None else None
    specs = plan_cells(n_devices, seed=seed, cell_devices=cell_devices,
                       device_faults=device_faults,
                       exact_devices=exact_devices,
                       region_devices=region_devices)
    exact_specs = [spec for spec in specs if spec.mode == "exact"]
    meanfield_specs = [spec for spec in specs
                       if spec.mode == "meanfield"]
    shards = min(shards, len(exact_specs))
    global_constants = constants.scaled_for_swarm(n_devices)
    window = resolve_window(global_constants, window_s)
    deadline_s = resolve_worker_deadline(window, worker_deadline_s)
    cloud_armed = cloud_shards >= 1
    gateway = None
    cloud_handles: List[SupervisedConnection] = []
    shard_handles: List[SupervisedConnection] = []
    handle_of_region: Dict[int, SupervisedConnection] = {}
    incident_mark = incident_count()
    from ..experiments.parallel import absorb_worker_counts, default_workers

    def supervise(scope: str, worker_id: int, build,
                  in_process: bool) -> SupervisedConnection:
        return SupervisedConnection(
            f"{scope}{worker_id}", build, deadline_s=deadline_s,
            retries=retries,
            kill_ops=worker_faults.kill_ops(scope, worker_id),
            worker_side_faults=worker_faults.worker_side(scope, worker_id),
            in_process=in_process)

    if cloud_armed:
        # One RegionGateway per region of the plan, grouped round-robin
        # onto min(cloud_shards, cores) worker processes — the grouping
        # is pure scheduling, the regions are the semantic unit. Armed
        # worker chaos forces one real process per group even where the
        # core count would collapse them: the injector needs a live
        # process to kill, and the bytes don't depend on the grouping.
        region_counts: Dict[int, int] = {}
        for spec in specs:
            region_counts[spec.region] = (
                region_counts.get(spec.region, 0) + spec.n_devices)
        region_ids = sorted(region_counts)
        n_regions = region_ids[-1] + 1
        if chaos_armed:
            cloud_workers = max(1, min(cloud_shards, len(region_ids)))
        else:
            cloud_workers = max(1, min(cloud_shards, default_workers()))
        cloud_groups: List[List[Tuple[int, int]]] = [
            [] for _ in range(cloud_workers)]
        for position, region in enumerate(region_ids):
            cloud_groups[position % cloud_workers].append(
                (region, region_counts[region]))
        cloud_groups = [group for group in cloud_groups if group]
        cloud_handles = [
            supervise("cloud", worker_id,
                      functools.partial(
                          _Regions, group, config, scenario,
                          global_constants, n_devices, seed, n_regions,
                          region_plans, serving_cfg),
                      in_process=(cloud_workers == 1 and not chaos_armed))
            for worker_id, group in enumerate(cloud_groups)]
        for handle, group in zip(cloud_handles, cloud_groups):
            for region, _ in group:
                handle_of_region[region] = handle
    else:
        cloud_workers = 0
        gateway = CloudGateway(config, scenario, global_constants,
                               n_devices=n_devices, seed=seed)

    try:
        # Mean-field cells (hybrid): pre-price each aggregate cell's
        # cloud load as a synthetic stream, fed into its owning region
        # alongside the exact cells' calls in canonical order.
        synthetic_by_region: Dict[int, List[CloudCall]] = {}
        synthetic_cursor: Dict[int, int] = {}
        synthetic_meter: List[Tuple[float, float]] = []
        if meanfield_specs:
            from ..edge.meanfield import synthetic_stream
            slots = max(1, min(64, math.ceil(
                MAX_SYNTHETIC_CALLS / len(meanfield_specs))))
            for spec in meanfield_specs:
                calls, events = synthetic_stream(
                    config, scenario, spec.n_devices, spec.index,
                    spec.device_id_base, n_devices, seed=seed,
                    constants=constants, slots=slots)
                for call in calls:
                    call.region = spec.region
                synthetic_by_region.setdefault(
                    spec.region, []).extend(calls)
                synthetic_meter.extend(events)

        # Open-loop serving load: generated once here in the driver (a
        # pure function of seed + spec, never of worker grouping) and
        # injected through the same synthetic-stream machinery as the
        # mean-field background.
        serving_calls: List[CloudCall] = []
        serving_truncated: Tuple[str, ...] = ()
        if serving_cfg is not None:
            from ..serving import generate_serving_calls
            serving_calls, serving_truncated = generate_serving_calls(
                serving_cfg.tenants, serving_cfg.duration_s, seed,
                scenario, n_regions=n_regions)
            for call in serving_calls:
                synthetic_by_region.setdefault(
                    call.region, []).append(call)

        for region, calls in synthetic_by_region.items():
            calls.sort(key=lambda call: call.sort_key)
            synthetic_cursor[region] = 0

        def take_synthetic(region: int, until: float) -> List[CloudCall]:
            pending = synthetic_by_region.get(region)
            if not pending:
                return []
            start = synthetic_cursor[region]
            stop = start
            while stop < len(pending) and pending[stop].arrival_s <= until:
                stop += 1
            synthetic_cursor[region] = stop
            return pending[start:stop]

        def serve_regions(batch: List[CloudCall], until: float) -> List:
            """Route one canonical-order window to the owning regions."""
            by_region: Dict[int, List[CloudCall]] = {}
            for call in batch:
                by_region.setdefault(call.region, []).append(call)
            for region in list(synthetic_by_region):
                fresh = take_synthetic(region, until)
                if fresh:
                    merged = by_region.setdefault(region, [])
                    merged.extend(fresh)
                    merged.sort(key=lambda call: call.sort_key)
            grouped_by_handle: Dict[int, List] = {}
            for region, calls in sorted(by_region.items()):
                handle = handle_of_region[region]
                grouped_by_handle.setdefault(id(handle), []).append(
                    (region, calls))
            involved = [handle for handle in cloud_handles
                        if id(handle) in grouped_by_handle]
            for handle in involved:
                handle.send("serve", grouped_by_handle[id(handle)])
            completions = []
            for handle in involved:
                completions.extend(handle.collect())
            return completions

        # Worker processes are capped by the cgroup-aware core count: on
        # a quota-limited container extra processes cannot add
        # wall-clock and only pay fork + pickle overhead, so shard
        # *scheduling groups* collapse onto min(shards, cores) processes
        # (one → in-process). Results are unaffected — cells are the
        # semantic unit and simulate identically wherever they are
        # scheduled. Armed worker chaos overrides the collapse (the
        # injector needs real processes to kill or hang).
        if chaos_armed:
            workers = max(1, shards)
        else:
            workers = max(1, min(shards, default_workers()))
        groups: List[List[CellSpec]] = [[] for _ in range(workers)]
        for position, spec in enumerate(exact_specs):
            groups[position % workers].append(spec)
        shard_handles.extend(
            supervise("shard", worker_id,
                      functools.partial(_Cells, config, scenario, group,
                                        constants, n_devices,
                                        runner_kwargs),
                      in_process=(workers == 1 and not chaos_armed))
            for worker_id, group in enumerate(groups))

        # Barrier loop: cells to t, exchange, cloud to t.
        finished: Dict[int, float] = {}
        fed_calls: List[CloudCall] = []
        cloud_completions: List = []
        barrier = 0.0
        while len(finished) < len(exact_specs):
            barrier += window
            if barrier > MAX_HORIZON_S:
                raise RuntimeError(
                    f"mission not finished by t={barrier:.0f}s; "
                    "sharded barrier loop aborted")
            for handle in shard_handles:
                handle.send("advance", barrier)
            batch: List[CloudCall] = []
            for handle in shard_handles:
                fresh, status = handle.collect()
                batch.extend(fresh)
                finished.update(status)
            batch.sort(key=lambda call: call.sort_key)
            fed_calls.extend(batch)
            if cloud_armed:
                cloud_completions.extend(serve_regions(batch, barrier))
            else:
                gateway.feed(batch)
                gateway.advance_to(barrier)

        if cloud_armed:
            # Flush synthetic background arrivals past the last barrier
            # (the mean-field fleet's mission can outlast the exact
            # focus), then collect every region's counters.
            cloud_completions.extend(serve_regions([], MAX_HORIZON_S))
            region_stats: Dict[int, Dict] = {}
            for handle, group in zip(cloud_handles, cloud_groups):
                region_stats.update(handle.request("finish", None))
                absorb_worker_counts(handle.counters, replica=group[0][0])
            cloud_done = max(
                (stats["last_completion_s"]
                 for stats in region_stats.values()), default=0.0)
        else:
            cloud_done = gateway.drain()
        makespan = max(max(finished.values()), cloud_done)

        tracer = obs.active_tracer()
        for handle in shard_handles:
            handle.send("finish", makespan)
        results: List[Tuple[int, RunResult, List[CloudCall]]] = []
        for handle, group in zip(shard_handles, groups):
            results.extend(handle.collect())
            # Worker spans are re-homed under the group's first cell
            # index (the replica-tagging pattern across processes).
            absorb_worker_counts(handle.counters, replica=group[0].index)
        results.sort(key=lambda item: item[0])

        if serving_cfg is not None and tracer is not None:
            # Elasticity reactions (shed instants, scale decisions) on
            # the same timeline as the call pipeline spans.
            from ..serving import emit_serving_spans
            for region in sorted(region_stats):
                per_region = region_stats[region].get("serving")
                if per_region:
                    emit_serving_spans(tracer, per_region,
                                       f"region{region}", replica=region)

        # Worker-side call copies carry the edge half; the cloud tier
        # finalized the cloud half elsewhere. Join them by (cell, seq):
        # region workers return completion tuples, the monolithic
        # gateway finalized the driver's copies in place (a no-op for
        # in-process shards, where both are the same object).
        if cloud_armed:
            completion_map = {(cell, seq): (done_s, breakdown)
                              for cell, seq, done_s, breakdown
                              in cloud_completions}
            for call in fed_calls:
                done = completion_map.get((call.cell, call.seq))
                if done is not None:
                    call.completion_s, call.cloud_breakdown = done
            for _, _, calls in results:
                for call in calls:
                    done = completion_map.get((call.cell, call.seq))
                    if done is not None:
                        call.completion_s, call.cloud_breakdown = done
        else:
            cloud_half = {(call.cell, call.seq): call
                          for call in fed_calls}
            for _, _, calls in results:
                for call in calls:
                    done = cloud_half.get((call.cell, call.seq))
                    if done is not None and done is not call:
                        call.completion_s = done.completion_s
                        call.cloud_breakdown = done.cloud_breakdown

        name = f"{scenario.key}.{config.name}"
        latencies, breakdowns = _merge_latencies(results, name)
        meter = BandwidthMeter("wireless")
        for _, result, _ in results:
            for time, megabytes in result.wireless_meter.events:
                meter.record(time, megabytes)
        for time, megabytes in synthetic_meter:
            meter.record(time, megabytes)
        energy = [account for _, result, _ in results
                  for account in result.energy_accounts]
        if cloud_armed:
            cloud_stats = {
                "cloud_completions": sum(
                    stats["completions"]
                    for stats in region_stats.values()),
                "cloud_makespan_s": cloud_done,
                "persisted_documents": sum(
                    stats["persisted_documents"]
                    for stats in region_stats.values()),
                "cold_starts": sum(
                    stats["cold_starts"]
                    for stats in region_stats.values()),
                "warm_starts": sum(
                    stats["warm_starts"]
                    for stats in region_stats.values()),
                "duplicate_launches": sum(
                    stats["duplicate_launches"]
                    for stats in region_stats.values()),
                "background_completions": sum(
                    stats["background_completions"]
                    for stats in region_stats.values()),
                "cloud_regions": len(region_stats),
                "cloud_shards": cloud_shards,
                "cloud_shard_workers": cloud_workers,
            }
            if exact_devices is not None:
                cloud_stats["exact_devices"] = exact_devices
                cloud_stats["meanfield_cells"] = len(meanfield_specs)
            if partitioned is not None and partitioned.regions:
                cloud_stats["injected_backend_faults"] = sum(
                    stats.get("injected_faults", 0)
                    for stats in region_stats.values())
            if serving_cfg is not None:
                cloud_stats["serving"] = _aggregate_serving(
                    serving_cfg, serving_calls, completion_map,
                    region_stats)
                if serving_truncated:
                    # No silent caps: name the tenants whose streams hit
                    # the per-tenant call ceiling.
                    cloud_stats["serving"]["truncated_tenants"] = list(
                        serving_truncated)
        else:
            cloud_stats = {
                "cloud_completions": gateway.completions,
                "cloud_makespan_s": gateway.last_completion_s,
                "persisted_documents": gateway.persisted_documents,
                "cold_starts": gateway.cold_starts,
            }
        extras, completed = _merge_extras(results, cloud_stats, makespan,
                                          window, shards, workers)
        incidents = incidents_since(incident_mark)
        if incidents:
            # Supervision accounting rides only on disturbed runs, so
            # unarmed extras stay exactly as before.
            extras["worker_incidents"] = [incident.to_dict()
                                          for incident in incidents]
            extras["worker_recoveries"] = len(incidents)
        return RunResult(
            platform=config.name,
            workload=scenario.key,
            task_latencies=latencies,
            breakdowns=breakdowns,
            energy_accounts=energy,
            wireless_meter=meter,
            duration_s=makespan,
            completed=completed,
            extras=extras,
        )
    finally:
        # Every exit path — normal return, invariant violation, chaos
        # gone wrong — closes pipes and reaps workers (join → terminate
        # → kill escalation lives in SupervisedConnection.close).
        for handle in shard_handles:
            handle.close()
        for handle in cloud_handles:
            handle.close()
