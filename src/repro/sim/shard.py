"""Sharded swarm execution: cell decomposition + conservative time sync.

The unsharded :class:`~repro.platforms.scenario_runner.ScenarioRunner`
steps the whole swarm in one kernel, which caps fig17 reproduction at
~1k devices. This module splits the swarm into fixed-size **cells** —
disjoint groups of devices, each flying its slice of the scaled field in
its own :class:`~repro.sim.Environment` — in front of one **cloud
tier**: the monolithic :class:`~repro.serverless.gateway.CloudGateway`
or per-region :class:`~repro.serverless.region.RegionGateway` slices.
Both tiers have one shape, ``serve(calls, until) -> completions`` and
``finish() -> (completions, stats_by_region)``, over the columnar wire
forms of :mod:`repro.serverless.wire`. :func:`run_sharded` is
three stages: :func:`plan_run` (pure: cells, worker groups, cloud tier),
:func:`sync` (the barrier loop) and :func:`merge` (pure: joins
the two halves of every call, with index arrays, into one
:class:`~repro.platforms.base.RunResult`).

Determinism: the cell and region plan depends only on ``(n_devices,
cell_devices, region_devices)``; cell ``k`` seeds its streams with
``seed + 1000 * k``; cloud-bound calls carry their service-time draws
and reach the cloud tier in canonical ``(arrival_s, cell, seq)`` order;
rows merge in canonical order. Shards and cloud shards only group cells
and regions onto worker processes, so the result is **byte-identical
at any ``(shards, cloud_shards)``**.

Time sync is conservative: every cell reaches barrier ``t`` before the
cloud tier advances to ``t``, and the window is never below
:func:`~repro.network.rpc.boundary_lookahead` (the minimum edge→cloud
latency), so no call arrives in the cloud tier's past. With no
cloud→edge data edge in the scenario graphs the window can be far
larger (``run_sharded(window_s=...)``).

Workers: each group of cells (``_Cells``) or regions (``_Regions``) is
an executor with one ``request(command, argument)`` method behind a
:class:`~repro.sim.supervisor.SupervisedConnection`, in a forked worker
or in-process with the same bytes. Unarmed runs never enter this
module.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import DEFAULT, PaperConstants
from ..network import boundary_lookahead
from ..platforms.base import PlatformConfig, RunResult
from ..platforms.base import CLOUD_BUDGET_CORES, DEVICES_PER_CONTROLLER
from ..platforms.scenario_runner import ScenarioRunner
from ..serverless.gateway import CloudGateway
from ..serverless.wire import Calls, Completions
from ..telemetry import (BandwidthMeter, BreakdownAggregate,
                         LatencyBreakdown, MetricSeries, breakdown_array)
from ..faults.worker import WorkerFaultPlan
from .supervisor import (ProtocolError, SupervisedConnection,
                         incident_count, incidents_since,
                         resolve_worker_deadline)

__all__ = ["CellSpec", "CellBoundary", "EdgeLedger",
           "plan_cells", "RunPlan", "plan_run", "sync", "merge",
           "run_sharded", "DEFAULT_CELL_DEVICES", "DEFAULT_WINDOW_S",
           "DEFAULT_REGION_DEVICES"]

#: Devices per cell: matches the granularity at which HiveMind itself
#: scales out shared-state schedulers (see
#: :meth:`~repro.platforms.base.PlatformConfig.controllers_for`), so a
#: cell is one controller's worth of swarm.
DEFAULT_CELL_DEVICES = DEVICES_PER_CONTROLLER

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
    #: ``"exact"`` (simulate every device) or ``"meanfield"`` (hybrid
    #: runs: price the cell's cloud load as a synthetic arrival stream).
    mode: str = "exact"
    #: Owning cloud region (``device_id_base // region_devices``) — a
    #: pure function of the plan, independent of shard/worker counts.
    region: int = 0


class EdgeLedger(NamedTuple):
    """A cell's edge halves as columns: one row per call whose local
    task finished (:meth:`CellBoundary.settle`), in ``seq`` order.

    The driver forwarded every call to the cloud tier while the cell
    ran, so a cell's ``finish`` ships only what was settled after
    submission.
    """

    seq: np.ndarray  # int64
    start_s: np.ndarray  # float64
    edge_done_s: np.ndarray  # float64
    breakdown: np.ndarray  # (n, 4) float64, COMPONENTS order


class CellBoundary:
    """The cell side of the edge/cloud boundary.

    :class:`~repro.platforms.scenario_runner.ScenarioRunner` calls
    :meth:`submit` instead of invoking an in-process platform and
    :meth:`settle` when the call's local task finishes; the shard
    driver drains :meth:`take_fresh` at each barrier.
    """

    def __init__(self, cell: int, region: int = 0):
        self.cell = cell
        self.region = region
        self._seq = 0
        #: Calls submitted since the last take, as ``(arrival_s,
        #: recognition_s, dedup_s, input_mb, output_mb)`` rows.
        self._fresh: List[Tuple] = []
        #: ``(seq, start_s, edge_done_s, breakdown)`` of settled calls.
        self._settled: List[Tuple[int, float, float, LatencyBreakdown]] = []

    def submit(self, arrival_s: float, recognition_s: Optional[float],
               dedup_s: Optional[float], input_mb: float,
               output_mb: float) -> int:
        """Record one cloud-bound call; returns its sequence number.
        ``None`` draws mark a call without that stage."""
        self._fresh.append((arrival_s, recognition_s, dedup_s, input_mb,
                            output_mb))
        self._seq += 1
        return self._seq - 1

    def settle(self, seq: int, start_s: float, edge_done_s: float,
               breakdown: LatencyBreakdown) -> None:
        """Record the edge half of call ``seq`` once its task is done."""
        self._settled.append((seq, start_s, edge_done_s, breakdown))

    def take_fresh(self) -> Calls:
        fresh, self._fresh = self._fresh, []
        return Calls.build(self.cell,
                           range(self._seq - len(fresh), self._seq),
                           *Calls.float_columns(fresh), region=self.region)

    def ledger(self) -> EdgeLedger:
        settled = sorted(self._settled, key=operator.itemgetter(0))
        count = len(settled)
        return EdgeLedger(
            np.fromiter((row[0] for row in settled), np.int64, count),
            np.fromiter((row[1] for row in settled), float, count),
            np.fromiter((row[2] for row in settled), float, count),
            breakdown_array([row[3] for row in settled]))


def plan_cells(n_devices: int, seed: int = 0,
               cell_devices: int = DEFAULT_CELL_DEVICES,
               exact_devices: Optional[int] = None,
               region_devices: int = DEFAULT_REGION_DEVICES
               ) -> List[CellSpec]:
    """Decompose ``n_devices`` into cells (shard-count independent).

    ``exact_devices`` (hybrid runs) keeps the cells covering the first
    ``exact_devices`` devices exact and marks the rest
    ``mode="meanfield"``; a cell straddling the split stays exact, so the
    exact focus sub-swarm never shrinks below what was asked for.
    ``region_devices`` sets the cloud region granularity; a cell belongs
    entirely to the region owning its base device (``device_id_base //
    region_devices``), so cells never straddle regions, and a swarm
    spanning several regions needs ``region_devices`` to be a multiple
    of ``cell_devices``.
    """
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    if cell_devices <= 0:
        raise ValueError("cell_devices must be positive")
    if exact_devices is not None and exact_devices <= 0:
        raise ValueError("a hybrid run needs at least one exact device")
    if region_devices <= 0:
        raise ValueError("region_devices must be positive")
    cell_devices = min(cell_devices, n_devices)
    if n_devices > region_devices and region_devices % cell_devices:
        raise ValueError(
            f"region_devices={region_devices} is not a multiple of "
            f"cell_devices={cell_devices}")
    n_cells = math.ceil(n_devices / cell_devices)
    specs = []
    for cell in range(n_cells):
        base = cell * cell_devices
        count = min(cell_devices, n_devices - base)
        mode = ("meanfield"
                if exact_devices is not None and base >= exact_devices
                else "exact")
        specs.append(CellSpec(
            index=cell, n_devices=count, device_id_base=base,
            seed=seed + 1000 * cell,
            cloud_budget_cores=CLOUD_BUDGET_CORES * count / n_devices,
            mode=mode, region=base // region_devices))
    return specs


# -- executors (run in a worker process or in-process) -------------------

class _Cells:
    """Executor for one scheduling group of cells.

    ``("advance", t)`` steps every cell to barrier ``t`` and returns
    ``(calls, status)``: the :class:`Calls` its cells submitted since
    the last barrier and, per finished cell index, its makespan.
    ``("finish", duration)`` finalizes every cell and returns ``(cell,
    RunResult, EdgeLedger)`` triples.
    """

    def __init__(self, config: PlatformConfig, scenario,
                 specs: List[CellSpec], total_devices: int):
        self._cells = []
        for spec in specs:
            boundary = CellBoundary(spec.index, region=spec.region)
            runner = ScenarioRunner(
                config, scenario, n_devices=spec.n_devices, seed=spec.seed,
                cloud_boundary=boundary,
                device_id_base=spec.device_id_base,
                cloud_budget_cores=spec.cloud_budget_cores,
                placement_devices=total_devices)
            runner.start()
            self._cells.append((spec, runner, boundary))

    def request(self, command: str, argument) -> object:
        if command == "advance":
            status = {}
            fresh: List[Calls] = []
            for spec, runner, boundary in self._cells:
                runner.advance_to(argument)
                fresh.append(boundary.take_fresh())
                if runner.finished:
                    status[spec.index] = runner.makespan
            return Calls.concat(fresh), status
        if command == "finish":
            return [(spec.index, runner.finish(duration_override=argument),
                     boundary.ledger())
                    for spec, runner, boundary in self._cells]
        raise ProtocolError(f"unknown cell command {command!r}")


class _Regions:
    """Executor for one worker group of cloud regions.

    ``("serve", [(region, calls), ...])`` prices each region's
    :class:`Calls` on its virtual clock and returns the regions'
    :class:`Completions`, concatenated; ``("finish", None)`` returns
    ``{region: stats}``.
    """

    def __init__(self, region_specs, config, scenario, constants,
                 total_devices: int, seed: int, n_regions: int,
                 serving_cfg):
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
            self._gateways[region] = RegionGateway(
                config, scenario, constants, region=region,
                n_regions=n_regions, region_devices=count,
                total_devices=total_devices, seed=seed, serving=serving)

    def request(self, command: str, argument) -> object:
        if command == "serve":
            return Completions.concat([self._gateways[region].serve(calls)
                                       for region, calls in argument])
        if command == "finish":
            return {region: gateway.stats()
                    for region, gateway in self._gateways.items()}
        raise ProtocolError(f"unknown cloud command {command!r}")


class _RegionTier:
    """Driver side of the regional cloud tier, in the gateway's shape.

    ``serve`` routes a canonical window, plus the synthetic and serving
    calls due by ``until``, to the region workers that own them (a
    worker with nothing to serve gets no message); ``finish`` serves the
    rest of those streams and collects every region's stats.
    """

    def __init__(self, plan: "RunPlan",
                 handles: List[SupervisedConnection]):
        # Each handle joins the caller's ``handles`` as it starts, so the
        # caller closes it even when a later start fails.
        in_process = plan.cloud_workers == 1 and not plan.worker_faults.armed
        for worker_id, group in enumerate(plan.region_groups):
            handles.append(_supervise(
                plan, "cloud", worker_id,
                functools.partial(
                    _Regions, group, plan.config, plan.scenario,
                    plan.cloud_constants, plan.n_devices, plan.seed,
                    plan.n_regions, plan.serving),
                in_process))
        self._handles = handles
        self._owner = {region: handle
                       for handle, group in zip(handles, plan.region_groups)
                       for region, _ in group}
        self._first_region = [group[0][0] for group in plan.region_groups]
        # After the fork, so the region workers do not inherit them.
        self._streams = plan.streams.by_region
        self._cursor = dict.fromkeys(self._streams, 0)

    def serve(self, batch: Calls, until: float) -> Completions:
        by_region = batch.by_region()
        for region, pending in self._streams.items():
            start = self._cursor[region]
            stop = int(np.searchsorted(pending.arrival_s, until, "right"))
            if stop > start:
                self._cursor[region] = stop
                due = pending.take(slice(start, stop))
                if region in by_region:
                    due = Calls.concat([by_region[region], due]).sorted()
                by_region[region] = due
        by_handle: Dict[SupervisedConnection, List] = {}
        for region, calls in sorted(by_region.items()):
            by_handle.setdefault(self._owner[region], []).append(
                (region, calls))
        involved = [handle for handle in self._handles
                    if handle in by_handle]
        for handle in involved:
            handle.send("serve", by_handle[handle])
        return Completions.concat([handle.collect() for handle in involved])

    def finish(self) -> Tuple[Completions, Dict[int, Dict]]:
        from ..experiments.parallel import absorb_worker_counts
        # Background streams can outlast the exact cells' missions.
        completions = self.serve(Calls.concat(()), MAX_HORIZON_S)
        stats: Dict[int, Dict] = {}
        for handle, region in zip(self._handles, self._first_region):
            stats.update(handle.request("finish", None))
            absorb_worker_counts(handle.counters, replica=region)
        return completions, stats


# -- plan ---------------------------------------------------------------

class _Streams(NamedTuple):
    #: Region -> synthetic and serving calls in canonical order.
    by_region: Dict[int, Calls]
    meter: List[Tuple[float, float]]  # mean-field wireless events
    serving_calls: Calls
    truncated: Tuple[str, ...]  # tenants that hit the call ceiling


@dataclass(frozen=True)
class RunPlan:
    """Everything a sharded run decides before a worker starts."""

    config: PlatformConfig
    scenario: object
    n_devices: int
    seed: int
    cloud_constants: PaperConstants  # scaled to the whole swarm
    cells: Tuple[CellSpec, ...]  # exact and mean-field
    window_s: float
    shards: int
    #: Exact cells per cell worker.
    cell_groups: Tuple[Tuple[CellSpec, ...], ...]
    #: ``(region, devices)`` pairs per region worker; empty when the
    #: monolithic gateway is the cloud tier.
    region_groups: Tuple[Tuple[Tuple[int, int], ...], ...]
    cloud_workers: int
    n_regions: int
    serving: object  # ServingConfig or None
    #: The regional tier's layout extras, in extras order.
    cloud_extras: Tuple[Tuple[str, object], ...]
    worker_faults: WorkerFaultPlan
    deadline_s: float

    @functools.cached_property
    def streams(self) -> _Streams:
        """Mean-field synthetic and serving streams, built on first use:
        after the region workers fork, which would otherwise count their
        pages in every worker's peak RSS."""
        parts: List[Calls] = []
        meter: List[Tuple[float, float]] = []
        meanfield = [spec for spec in self.cells if spec.mode == "meanfield"]
        if meanfield:
            from ..edge.meanfield import synthetic_stream
            slots = max(1, min(64, math.ceil(
                MAX_SYNTHETIC_CALLS / len(meanfield))))
            for spec in meanfield:
                calls, events = synthetic_stream(
                    self.config, self.scenario, spec.n_devices, spec.index,
                    spec.device_id_base, self.n_devices, seed=self.seed,
                    slots=slots)
                parts.append(calls._replace(
                    region=np.full_like(calls.region, spec.region)))
                meter.extend(events)
        serving_calls = Calls.concat(())
        truncated: Tuple[str, ...] = ()
        if self.serving is not None:
            from ..serving import generate_serving_calls
            serving_calls, truncated = generate_serving_calls(
                self.serving.tenants, self.serving.duration_s, self.seed,
                self.scenario, n_regions=self.n_regions)
            parts.append(serving_calls)
        by_region = {region: calls.sorted() for region, calls
                     in Calls.concat(parts).by_region().items()}
        return _Streams(by_region, meter, serving_calls, truncated)


def plan_run(config: PlatformConfig, scenario, n_devices: int,
             seed: int = 0, shards: int = 1,
             cell_devices: int = DEFAULT_CELL_DEVICES,
             window_s: Optional[float] = None,
             cloud_shards: int = 0,
             region_devices: int = DEFAULT_REGION_DEVICES,
             exact_devices: Optional[int] = None,
             worker_faults: Optional[WorkerFaultPlan] = None,
             worker_deadline_s: Optional[float] = None,
             serving=None) -> RunPlan:
    """Validate :func:`run_sharded`'s arguments and plan the run. Pure:
    starts no worker (the host's core count sets only the grouping)."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if cloud_shards < 0:
        raise ValueError("cloud_shards must be non-negative")
    if not config.cloud_backed:
        raise ValueError(
            "sharded execution requires a cloud-backed platform "
            f"(got execution={config.execution!r})")
    serving_cfg = serving  # None (no tenants), a spec or a ServingConfig
    if isinstance(serving, str):
        from ..serving import ServingConfig
        serving_cfg = ServingConfig.from_spec(serving)
    if worker_faults is None:
        worker_faults = WorkerFaultPlan()
    chaos_armed = worker_faults.armed
    cells = tuple(plan_cells(n_devices, seed=seed, cell_devices=cell_devices,
                             exact_devices=exact_devices,
                             region_devices=region_devices))
    exact = [spec for spec in cells if spec.mode == "exact"]
    shards = min(shards, len(exact))
    cloud_constants = DEFAULT.scaled_for_swarm(n_devices)
    window = resolve_window(cloud_constants, window_s)
    from ..experiments.parallel import default_workers

    # Scheduling groups collapse onto min(groups, cores) processes (one
    # → in-process): more cannot add wall-clock. Armed worker chaos
    # keeps one process per group, so there is a process to kill.
    cores = None if chaos_armed else default_workers()
    workers = max(1, min(shards, cores or shards))
    cell_groups = tuple(tuple(exact[worker::workers])
                        for worker in range(workers))

    # The monolithic gateway serves exact cells' calls only: background
    # load and serving tenants arm the regional tier.
    if exact_devices is not None or serving_cfg is not None:
        cloud_shards = max(cloud_shards, 1)
    # Regions are contiguous blocks of whole cells (plan_cells checks).
    regions = [(region, min(region_devices,
                            n_devices - region * region_devices))
               for region in range(cells[-1].region + 1)]
    cloud_workers = 0
    region_groups: Tuple = ()
    cloud_extras: Tuple = ()
    if cloud_shards:
        cloud_workers = max(1, min(cloud_shards, cores or len(regions)))
        region_groups = tuple(
            group for group in (tuple(regions[worker::cloud_workers])
                                for worker in range(cloud_workers))
            if group)
        cloud_extras = (("cloud_regions", len(regions)),
                        ("cloud_shards", cloud_shards),
                        ("cloud_shard_workers", cloud_workers))
        if exact_devices is not None:
            cloud_extras += (("exact_devices", exact_devices),
                             ("meanfield_cells", len(cells) - len(exact)))
    return RunPlan(
        config=config, scenario=scenario, n_devices=n_devices, seed=seed,
        cloud_constants=cloud_constants, cells=cells, window_s=window,
        shards=shards, cell_groups=cell_groups,
        region_groups=region_groups, cloud_workers=cloud_workers,
        n_regions=len(regions), serving=serving_cfg, cloud_extras=cloud_extras,
        worker_faults=worker_faults,
        deadline_s=resolve_worker_deadline(window, worker_deadline_s))


def resolve_window(constants: PaperConstants,
                   window_s: Optional[float] = None) -> float:
    """Barrier window: ``window_s`` (default :data:`DEFAULT_WINDOW_S`)
    clamped to the causal minimum."""
    if window_s is None:
        window_s = DEFAULT_WINDOW_S
    elif window_s <= 0:
        raise ValueError("barrier window must be positive")
    return max(float(window_s), boundary_lookahead(constants))


def _supervise(plan: RunPlan, scope: str, worker_id: int, build,
               in_process: bool) -> SupervisedConnection:
    faults = plan.worker_faults
    return SupervisedConnection(
        f"{scope}{worker_id}", build, deadline_s=plan.deadline_s,
        kill_ops=faults.kill_ops(scope, worker_id),
        worker_side_faults=faults.worker_side(scope, worker_id),
        in_process=in_process)


# -- sync ---------------------------------------------------------------

def _cloud_done(stats: Dict[int, Dict]) -> float:
    return max((region["last_completion_s"] for region in stats.values()),
               default=0.0)


def sync(plan: RunPlan, cells: Sequence[SupervisedConnection], cloud
         ) -> Tuple[List[Tuple[int, RunResult, EdgeLedger]], Completions,
                    Dict[int, Dict]]:
    """The barrier loop: step the cells to each barrier and serve the
    window's calls in canonical order on ``cloud`` (either tier), until
    every exact cell has finished; then finish the cloud tier and the
    cells. Returns what :func:`merge` takes."""
    from ..experiments.parallel import absorb_worker_counts
    n_exact = sum(len(group) for group in plan.cell_groups)
    finished: Dict[int, float] = {}
    completions: List[Completions] = []
    barrier = 0.0
    while len(finished) < n_exact:
        barrier += plan.window_s
        if barrier > MAX_HORIZON_S:
            raise RuntimeError(
                f"mission not finished by t={barrier:.0f}s; "
                "sharded barrier loop aborted")
        for handle in cells:
            handle.send("advance", barrier)
        fresh: List[Calls] = []
        for handle in cells:
            calls, status = handle.collect()
            fresh.append(calls)
            finished.update(status)
        completions.append(cloud.serve(Calls.concat(fresh).sorted(),
                                       barrier))
    done, stats = cloud.finish()
    completions.append(done)

    makespan = max(max(finished.values()), _cloud_done(stats))
    for handle in cells:
        handle.send("finish", makespan)
    results: List[Tuple[int, RunResult, EdgeLedger]] = []
    for handle, group in zip(cells, plan.cell_groups):
        results.extend(handle.collect())
        # Worker spans are re-homed under the group's first cell index
        # (the replica-tagging pattern across processes).
        absorb_worker_counts(handle.counters, replica=group[0].index)
    results.sort(key=operator.itemgetter(0))
    return results, Completions.concat(completions), stats


# -- merge --------------------------------------------------------------

#: Row position offset of a cell's deferred (cloud-completing) rows:
#: after every local row at an equal start time.
_DEFERRED = 10 ** 9


def _merge_rows(results: List[Tuple[int, RunResult, EdgeLedger]],
                completions: Completions, name: str
                ) -> Tuple[MetricSeries, BreakdownAggregate]:
    """Join edge/cloud task halves and merge all rows in canonical order.

    Canonical row order is ``(start time, cell, within-cell position)``
    with deferred (cloud-completing) rows positioned after the cell's
    local rows — a pure function of the cell decomposition, so the
    merged series is identical at any shard count. Every settled call
    must have a completion: one without raises ``ValueError`` naming
    its ``(cell, seq)``, because a lost completion would otherwise
    leave a plausible row set. Every step is an elementwise IEEE
    operation or a sort over unique keys, so rows are bit-identical to
    joining them one at a time.
    """
    starts, cells, positions, values = [], [], [], []
    records: List[LatencyBreakdown] = []
    for cell, result, _ in results:
        series = result.task_latencies
        local = result.breakdowns._records
        if len(local) != len(series):
            # handle_batch adds a local row's sample and breakdown
            # together, so position i is record i.
            raise ValueError(f"cell {cell}: {len(series)} local rows but "
                             f"{len(local)} breakdown records")
        starts.append(series.times)
        values.append(series.values)
        cells.append(np.full(len(series), cell, dtype=np.int64))
        positions.append(np.arange(len(series), dtype=np.int64))
        records.extend(local)
    ledgers = [ledger for _, _, ledger in results]
    ledger = EdgeLedger(*map(np.concatenate, zip(*ledgers)))
    ledger_cell = np.repeat(
        np.array([cell for cell, _, _ in results], dtype=np.int64),
        [len(part.seq) for part in ledgers])
    index = completions.rows_for(ledger_cell, ledger.seq)
    unjoined = np.flatnonzero(index < 0)
    if unjoined.size:
        first = unjoined[0]
        raise ValueError(
            f"settled call (cell={int(ledger_cell[first])}, "
            f"seq={int(ledger.seq[first])}) has no completion")
    starts.append(ledger.start_s)
    cells.append(ledger_cell)
    positions.append(_DEFERRED + ledger.seq)
    values.append(np.maximum(ledger.edge_done_s,
                             completions.done_s[index]) - ledger.start_s)
    deferred = ledger.breakdown + completions.breakdown[index]
    records.extend(LatencyBreakdown(*row) for row in deferred.tolist())
    start = np.concatenate(starts)
    order = np.lexsort((np.concatenate(positions), np.concatenate(cells),
                        start))
    latencies = MetricSeries(name)
    latencies.extend(np.concatenate(values)[order], start[order])
    breakdowns = BreakdownAggregate()
    breakdowns.extend([records[row] for row in order.tolist()])
    return latencies, breakdowns


#: Per-region counters summed into extras, in extras order. Each tier
#: reports the ones it keeps (the monolithic gateway: the first two).
_SUMMED = ("persisted_documents", "cold_starts", "warm_starts",
           "duplicate_launches", "background_completions")


def _aggregate_serving(serving_cfg, streams: _Streams,
                       completions: Completions,
                       region_stats) -> Dict[str, object]:
    """Merge per-region serving counters and price the background
    stream's end-to-end latency from the driver's serving calls.

    The region workers returned their gate/autoscaler ledgers in
    ``stats()["serving"]``; the driver still holds every serving call
    it generated, so joining completions back by ``(cell, seq)`` gives
    per-call latency without shipping calls back over the pipe.
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
    latencies = completions.latencies(streams.serving_calls)
    out: Dict[str, object] = {
        "tenants": [tenant.name for tenant in serving_cfg.tenants],
        "offered_calls": len(streams.serving_calls.seq),
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
    if len(latencies):
        for label, quantile in (("p50", 50.0), ("p99", 99.0),
                                ("p999", 99.9)):
            out[f"latency_{label}_s"] = round(
                float(np.percentile(latencies, quantile)), 6)
    if streams.truncated:
        # No silent caps: name the tenants whose streams hit the
        # per-tenant call ceiling.
        out["truncated_tenants"] = list(streams.truncated)
    return out


def merge(plan: RunPlan,
          results: List[Tuple[int, RunResult, EdgeLedger]],
          completions: Completions, stats: Dict[int, Dict]
          ) -> RunResult:
    """Join the edge and cloud halves of every call and merge the cells'
    and the cloud tier's accounting into one :class:`RunResult`.

    Pure. ``results`` are the cells' ``(cell, RunResult, EdgeLedger)``
    triples in cell order, ``completions`` the cloud tier's columns and
    ``stats`` its counters by region: the same shapes from either tier.
    """
    latencies, breakdowns = _merge_rows(
        results, completions, f"{plan.scenario.key}.{plan.config.name}")
    streams = plan.streams
    ordered = [result for _, result, _ in results]
    # Cells' records in cell order, then the mean-field background's.
    meters = [result.wireless_meter for result in ordered]
    background = np.array(streams.meter, dtype=float).reshape(-1, 2)
    meter = BandwidthMeter("wireless")
    meter.extend(
        np.concatenate([part.times for part in meters] + [background[:, 0]]),
        np.concatenate([part.megabytes for part in meters]
                       + [background[:, 1]]))

    from ..learning.accuracy import DetectionTally
    tally = DetectionTally()
    failed: List[str] = []
    for result in ordered:
        cell_tally = result.extras.get("tally")
        if cell_tally is not None:
            tally.correct += cell_tally.correct
            tally.false_negatives += cell_tally.false_negatives
            tally.false_positives += cell_tally.false_positives
            tally.true_negatives += cell_tally.true_negatives
        failed.extend(result.extras.get("failed_devices", []))
    cloud_done = _cloud_done(stats)
    makespan = max(max(result.extras["makespan_s"] for result in ordered),
                   cloud_done)
    first = ordered[0].extras
    extras: Dict[str, object] = {
        "makespan_s": makespan,
        "targets": sum(r.extras["targets"] for r in ordered),
        "recognition_tier": first["recognition_tier"],
        "cloud_fraction": first["cloud_fraction"],
        "tally": tally,
        "failed_devices": failed,
        "cells": len(ordered),
        "shards": plan.shards,
        "shard_workers": len(plan.cell_groups),
        "window_s": plan.window_s,
        "cloud_completions": sum(region["completions"]
                                 for region in stats.values()),
        "cloud_makespan_s": cloud_done,
    }
    for key in _SUMMED:
        if key in stats[0]:
            extras[key] = sum(region[key] for region in stats.values())
    extras.update(plan.cloud_extras)
    if plan.serving is not None:
        extras["serving"] = _aggregate_serving(plan.serving, streams,
                                               completions, stats)
    if "unique_people" in first:
        extras["unique_people"] = sum(
            r.extras["unique_people"] for r in ordered)
    else:
        extras["items_found"] = sum(
            r.extras["items_found"] for r in ordered)
    return RunResult(
        platform=plan.config.name, workload=plan.scenario.key,
        task_latencies=latencies, breakdowns=breakdowns,
        energy_accounts=[account for result in ordered
                         for account in result.energy_accounts],
        wireless_meter=meter, duration_s=makespan,
        completed=all(result.completed for result in ordered),
        extras=extras)


# -- driver -------------------------------------------------------------

def run_sharded(config: PlatformConfig, scenario, n_devices: int,
                seed: int = 0, shards: int = 1,
                cell_devices: int = DEFAULT_CELL_DEVICES,
                window_s: Optional[float] = None,
                cloud_shards: int = 0,
                region_devices: int = DEFAULT_REGION_DEVICES,
                exact_devices: Optional[int] = None,
                worker_faults: Optional[WorkerFaultPlan] = None,
                worker_deadline_s: Optional[float] = None,
                serving=None) -> RunResult:
    """Run one scenario with the swarm decomposed into cells over
    ``shards`` worker processes (:func:`plan_run`, :func:`sync`,
    :func:`merge`); the result is byte-identical at any ``shards`` and
    ``cloud_shards``.

    ``cloud_shards >= 1`` serves the cloud tier as per-region slices
    (:class:`~repro.serverless.region.RegionGateway`) on up to
    ``cloud_shards`` workers; ``exact_devices`` (hybrid: later cells are
    mean-field aggregates injecting synthetic cloud load), ``serving``
    (open-loop tenants: a ``REPRO_SERVING`` spec or a
    :class:`~repro.serving.ServingConfig`; ``None`` means no tenants,
    whatever the environment says) imply it.
    Worker pipes are deadline-guarded (``worker_deadline_s``), and a
    dead or hung worker's work is finished in the driver with the same
    bytes (:mod:`repro.sim.supervisor`); ``worker_faults`` arms
    :mod:`repro.faults.worker` chaos.
    """
    plan = plan_run(
        config, scenario, n_devices, seed=seed, shards=shards,
        cell_devices=cell_devices, window_s=window_s,
        cloud_shards=cloud_shards,
        region_devices=region_devices, exact_devices=exact_devices,
        worker_faults=worker_faults,
        worker_deadline_s=worker_deadline_s, serving=serving)
    incident_mark = incident_count()
    cells: List[SupervisedConnection] = []
    regions: List[SupervisedConnection] = []
    try:
        if plan.region_groups:
            cloud = _RegionTier(plan, regions)
        else:
            # In the driver, outside worker supervision: worker chaos
            # never forks it.
            cloud = CloudGateway(plan.config, plan.scenario,
                                 plan.cloud_constants,
                                 n_devices=plan.n_devices, seed=plan.seed)
        in_process = (len(plan.cell_groups) == 1
                      and not plan.worker_faults.armed)
        for worker_id, group in enumerate(plan.cell_groups):
            cells.append(_supervise(
                plan, "shard", worker_id,
                functools.partial(_Cells, plan.config, plan.scenario,
                                  list(group), plan.n_devices),
                in_process))

        results, completions, stats = sync(plan, cells, cloud)
        tracer = obs.active_tracer()
        if plan.serving is not None and tracer is not None:
            # Elasticity reactions (shed instants, scale decisions) on
            # the same timeline as the call pipeline spans.
            from ..serving import emit_serving_spans
            for region in sorted(stats):
                per_region = stats[region].get("serving")
                if per_region:
                    emit_serving_spans(tracer, per_region,
                                       f"region{region}", replica=region)
        result = merge(plan, results, completions, stats)
        incidents = incidents_since(incident_mark)
        if incidents:
            # Supervision accounting rides only on disturbed runs.
            result.extras["worker_incidents"] = [
                incident.to_dict() for incident in incidents]
            result.extras["worker_recoveries"] = len(incidents)
        return result
    finally:
        # Every exit path closes pipes and reaps workers (join →
        # terminate → kill lives in SupervisedConnection.close).
        for handle in cells + regions:
            handle.close()
