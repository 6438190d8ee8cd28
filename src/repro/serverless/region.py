"""Per-region cloud controller slices for the sharded runtime.

PR 7 sharded the *edge* tier into cells but still drained every cloud
call through one :class:`~repro.serverless.gateway.CloudGateway` kernel
in the parent process — at large N the controller/OpenWhisk/CouchDB path
becomes the serial wall-clock bottleneck (Amdahl), exactly the
centralized ceiling the paper measures. This module decomposes the cloud
tier along a multi-region controller layout: each region owns a slice of
the backend (its share of the controller pool, the invoker servers, and
the CouchDB/Kafka shard) and serves the calls of the cells it owns.

:class:`RegionGateway` is an **analytic virtual-clock** model of one
regional slice: instead of stepping a discrete-event kernel it computes
each call's pipeline departure times in closed form against per-resource
free-time pools — the same technique the PR 3 analytic queueing layer
uses inside the kernel, here lifted out of the kernel entirely (zero
events per call). The pipeline mirrors the OpenWhisk platform stage for
stage: admission occupancy, frontend + CouchDB auth, the controller
k-server pool, placement (HiveMind parent-colocation then stock
warm-affinity/least-loaded with rotation), parent-output data sharing
(in-memory / remote-memory fabric / CouchDB), the Kafka hop, warm/cold
container claim against keepalive'd pools, per-server sorted core pools
with utilization-dependent interference, and CouchDB persistence — plus
the straggler-mitigation duplicate race for exact (non-synthetic) calls.

Three deliberate simplifications, accepted because the regional tier is
a throughput/latency *model* of the slice rather than a byte-exact
replay of the monolithic gateway (armed runs are held to the milestone
observable tolerance instead):

- Calls are served one at a time in canonical per-region arrival order,
  so a call's later stages are priced before the next call's earlier
  stages. The free-time pools still order grants correctly
  (``grant = max(free, t)``); only cross-call FIFO inversions inside one
  stage are approximated, a second-order effect on aggregate
  percentiles.
- The CouchDB shard and the controller pool are fluid queues
  (cumulative work against ``k`` handlers) rather than per-slot
  reservations, because their operations are requested at very
  different pipeline depths and a reservation heap mutated in pricing
  order stalls head-of-pipe requests behind future-dated ones (see the
  constructor comment).
- On a duplicate win the straggler strike lands on the primary's server
  (the legacy scan's "most recent same-named invocation" is overwhelmingly
  the primary itself in the regional slice).

The slice takes no simulated fault plan: a server goes on probation only
after straggler strikes, and simulated faults run in the monolithic
runner alone (:class:`~repro.faults.FaultInjector`).

Determinism: a region's stream is ``default_rng([seed + GATEWAY_SEED_
OFFSET, region])`` and its call sequence is a pure function of the cell
plan and the region size — never of how cells or regions were grouped
onto worker processes — so merged rows are identical at any
``(shards, cloud_shards)`` combination.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right, insort
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import PaperConstants
from ..telemetry import MetricSeries
from .wire import Calls, Completions

__all__ = ["RegionGateway", "region_server_count", "GATEWAY_SEED_OFFSET"]

#: Seed offset separating both cloud tiers' stream namespaces from the
#: cells' (cells use ``seed + 1000 * cell_index``; the offset keeps the
#: cloud tier clear of any realistic cell count).
GATEWAY_SEED_OFFSET = 271_828

#: The monolithic CouchDB store runs 8 concurrent request handlers; each
#: region gets its proportional shard of them (total conserved).
_COUCH_SLOTS = 8

#: One priced invocation: (done, server, container, management,
#: data_io, execution), the last three the running stage sums.
_Priced = Tuple[float, int, List, float, float, float]

#: A healthy-list cache entry ``(lo, hi, healthy)`` valid for no
#: instant: the next placement rebuilds it.
_STALE: Tuple[float, float, List[int]] = (math.inf, -math.inf, [])

#: The fixed stage costs the pipeline adds to a call's sums, by
#: ``PaperConstants`` section; each must be finite and non-negative.
_STAGE_COSTS = (
    ("serverless", ("frontend_latency_s", "auth_check_s",
                    "controller_decision_s", "controller_service_s",
                    "inmem_latency_s", "couchdb_handle_s",
                    "couchdb_latency_s", "kafka_hop_s", "warm_start_s")),
    ("accel", ("remote_mem_latency_s",)))

#: The transfer rates (MB/s) a data-sharing or store stage divides by;
#: each must be finite and positive.
_STAGE_RATES = (("serverless", ("inmem_mbs", "couchdb_mbs")),
                ("accel", ("remote_mem_mbs",)))


def _check_stage_constants(constants: PaperConstants) -> None:
    """Refuse a stage cost or rate that could make a priced stage
    negative or non-finite."""
    for table, positive in ((_STAGE_COSTS, False), (_STAGE_RATES, True)):
        for section, names in table:
            for name in names:
                value = getattr(getattr(constants, section), name)
                if not (math.isfinite(value)
                        and (value > 0 if positive else value >= 0)):
                    rule = "positive" if positive else "non-negative"
                    raise ValueError(f"{section}.{name} must be finite "
                                     f"and {rule}, got {value!r}")


def region_server_count(region: int, n_regions: int, n_servers: int) -> int:
    """Backend servers owned by ``region``.

    The fixed cluster is split contiguously and as evenly as possible;
    when regions outnumber servers every region still gets one logical
    server (the model's resolution floor — the alternative, fractional
    servers, would misprice core contention).
    """
    if not 0 <= region < n_regions:
        raise ValueError(f"region {region} outside 0..{n_regions - 1}")
    if n_regions >= n_servers:
        return 1
    base, extra = divmod(n_servers, n_regions)
    return base + (1 if region < extra else 0)


class RegionGateway:
    """One region's cloud slice, priced on a virtual clock.

    ``constants`` must be the *globally scaled*
    :class:`~repro.config.PaperConstants` (same object the monolithic
    gateway receives); ``region_devices`` is this region's device count
    and ``total_devices`` the whole fleet's (the controller pool scales
    with the fleet by
    :meth:`~repro.platforms.base.PlatformConfig.controllers_for`, then
    splits across regions).
    """

    def __init__(self, config, scenario, constants: PaperConstants,
                 region: int, n_regions: int, region_devices: int,
                 total_devices: int, seed: int = 0, serving=None):
        if not config.cloud_backed:
            raise ValueError(
                "RegionGateway requires a cloud-backed platform "
                f"(got execution={config.execution!r})")
        if region_devices <= 0:
            raise ValueError("region must own at least one device")
        self.config = config
        self.region = region
        _check_stage_constants(constants)
        cst = self._cst = constants.serverless
        self._control = constants.control
        self._accel = constants.accel
        self._rng = np.random.default_rng(
            [seed + GATEWAY_SEED_OFFSET, region])

        # -- regional cluster slice ------------------------------------
        n_servers = region_server_count(region, n_regions,
                                        constants.cluster.servers)
        cores = constants.cluster.cores_per_server
        self._n_servers = n_servers
        self._cores = cores
        #: Per-server core free instants, each list kept sorted: the
        #: earliest-free core is ``[0]`` and the cores still busy at
        #: ``t`` are the tail past ``bisect_right(free, t)``, so a
        #: busy count is one bisection instead of a scan of every core.
        self._core_free: List[List[float]] = [
            [0.0] * cores for _ in range(n_servers)]
        #: Per-server warm pools: image -> {"ready": heap, "expiry":
        #: heap, "live": int}. A container is a mutable record
        #: ``[ready_s, expiry_s, claimed, image]`` (the record object
        #: doubles as the container identity for parent colocation);
        #: heap entries are ``(key, n, record)`` snapshots and are
        #: dropped lazily when the record was claimed or re-warmed since
        #: the entry was pushed, so every pool operation is O(log n) —
        #: a linear-scan pool dominated the whole armed run's profile.
        self._warm: List[Dict[str, Dict]] = [{} for _ in range(n_servers)]
        self._pool_counter = 0
        self._probation_until = [0.0] * n_servers
        self._strikes = [0] * n_servers
        self._rotation = 0
        #: The placement candidates of every instant in ``[lo, hi)``
        #: (:meth:`_healthy`); reset to :data:`_STALE` whenever a
        #: probation or the autoscaled pool changes.
        self._healthy_span = _STALE

        # -- regional controller pool ----------------------------------
        # Fluid-backlog like the couch shard below (and for the same
        # reason): a recognition's and its dedup's controller requests
        # are priced seconds apart, so slot reservations made in pricing
        # order would stall later head-of-pipe requests behind them.
        self._controller_slots = max(
            1, math.ceil(config.controllers_for(total_devices) / n_regions))
        self._controller_work = 0.0
        # -- regional CouchDB shard ------------------------------------
        # Fluid-backlog model rather than absolute slot reservations:
        # couch operations are requested at wildly different pipeline
        # depths (auth at the head, persists after execution), so a
        # free-time heap mutated in call-pricing order fills with
        # future-dated ends and stalls every later head-of-pipe auth at
        # those instants — a positive-feedback cascade the time-ordered
        # kernel can't exhibit. The fluid queue sidesteps ordering
        # entirely: an operation requested at ``t`` waits
        # ``max(0, W/k - t)`` where ``W`` is the cumulative busy work
        # handed to the ``k``-handler shard — zero wait while the shard
        # keeps up, linearly growing delay past saturation (the regime
        # the fig17 curves measure).
        self._couch_slots = max(1, math.ceil(_COUCH_SLOTS / n_regions))
        self._couch_work = 0.0
        # -- admission (regional share of the per-user limit) ----------
        self._admission_limit = max(
            1, math.ceil(cst.concurrency_limit / n_regions))
        self._admitted: List[float] = []

        self.recognition_spec = scenario.recognition.function_spec()
        self.dedup_spec = (scenario.dedup.function_spec()
                           if scenario.dedup is not None else None)
        #: Per image, the servers whose pool holds a live container:
        #: exactly the servers with ``live > 0`` for that image, kept
        #: wherever ``live`` changes.
        self._warm_servers: Dict[str, Set[int]] = {
            spec.image: set() for spec in (self.recognition_spec,
                                           self.dedup_spec)
            if spec is not None}
        #: Mean recognition service time (lognormal mean), the
        #: occupancy scale the admission delay estimate divides by.
        self._mean_service_s = (
            scenario.recognition.cloud_service_s
            * math.exp(scenario.recognition.service_sigma ** 2 / 2.0))
        _, directives = scenario.dsl_graph()
        self._persisted_tasks = set(directives.persisted)
        self._keepalive_s = config.container_keepalive_s
        self._mitigate = bool(config.straggler_mitigation)
        self._history: Dict[str, MetricSeries] = {}
        # The watchdog's rule, read from its owner (a module-level
        # import would be circular: repro.core imports this package).
        from ..core.straggler import StragglerMitigator
        self._min_history = StragglerMitigator.MIN_HISTORY
        self._threshold_slack = StragglerMitigator.THRESHOLD_SLACK
        self._probation_threshold = StragglerMitigator.PROBATION_THRESHOLD

        #: Open-loop serving stack (:class:`repro.serving.ServingPolicy`)
        #: — admission gate + invoker-pool autoscaler. ``None`` (the
        #: unarmed default) leaves every path below byte-identical to
        #: the serving-free gateway.
        self._serving = serving
        self.shed_calls = 0

        # -- counters --------------------------------------------------
        self.completions = 0
        self.last_completion_s = 0.0
        self.background_completions = 0
        self.last_background_s = 0.0
        self.persisted_documents = 0
        self.cold_starts = 0
        self.warm_starts = 0
        self.duplicate_launches = 0
        self._last_arrival = 0.0

    # -- resource primitives -------------------------------------------
    def _couch_serve(self, t: float, duration: float) -> float:
        """One store operation of fixed ``duration`` (auth checks)."""
        grant = max(t, self._couch_work / self._couch_slots)
        self._couch_work += duration
        return grant + duration

    def _couch_access(self, t: float, megabytes: float) -> float:
        """One tail-heavy document access (reads, writes, persists)."""
        cst = self._cst
        duration = ((cst.couchdb_latency_s + megabytes / cst.couchdb_mbs)
                    * (1.0 + self._rng.pareto(cst.couchdb_tail_alpha)))
        return self._couch_serve(t, duration)

    def _utilization(self, server: int, t: float) -> float:
        free = self._core_free[server]
        return (len(free) - bisect_right(free, t)) / self._cores

    def _take_live(self, server: int, pool: Dict, image: str) -> None:
        """One live container of ``image`` left ``server``'s pool
        (claimed or expired)."""
        pool["live"] -= 1
        if not pool["live"]:
            self._warm_servers[image].discard(server)

    def _reap(self, server: int, pool: Dict, t: float) -> None:
        """Drop expired records (lazy: stale heap entries are skipped)."""
        expiry = pool["expiry"]
        while expiry and expiry[0][0] <= t:
            _, _, record = heapq.heappop(expiry)
            if record[2] or record[1] > t:
                continue  # claimed, or re-warmed since this entry
            record[2] = True
            self._take_live(server, pool, record[3])

    def _claim_warm(self, server: int, image: str, t: float
                    ) -> Optional[List]:
        """Claim the earliest-ready live container, if any is ready."""
        pool = self._warm[server].get(image)
        if not pool:
            return None
        self._reap(server, pool, t)
        ready = pool["ready"]
        while ready and ready[0][0] <= t:
            key, _, record = heapq.heappop(ready)
            if record[2] or record[0] != key:
                continue  # claimed/expired, or re-warmed since pushed
            record[2] = True
            self._take_live(server, pool, image)
            return record
        return None

    def _return_warm(self, server: int, record: List) -> None:
        image = record[3]
        pool = self._warm[server].setdefault(
            image, {"ready": [], "expiry": [], "live": 0})
        record[2] = False
        self._pool_counter += 1
        heapq.heappush(pool["ready"],
                       (record[0], self._pool_counter, record))
        heapq.heappush(pool["expiry"],
                       (record[1], self._pool_counter, record))
        pool["live"] += 1
        self._warm_servers[image].add(server)

    # -- placement mirror ----------------------------------------------
    def _healthy(self, t: float) -> List[int]:
        """The servers placement may use at ``t``, in server order.

        The list is cached with the interval ``[lo, hi)`` it holds on:
        the probation ends and autoscaler readiness instants on either
        side of ``t``. Pricing time is not monotone (a dedup stage is
        priced after later calls' recognitions), so both bounds are
        checked."""
        lo, hi, healthy = self._healthy_span
        if lo <= t < hi:
            return healthy
        limit = self._n_servers
        lo, hi = -math.inf, math.inf
        if self._serving is not None:
            span = self._serving.active_span(t)
            if span is not None:
                # Autoscaled pool: placement only sees the active
                # prefix. A just-activated server joins with an empty
                # warm pool, so scale-out pays cold starts through the
                # existing invoker model.
                active, lo, hi = span
                limit = max(1, min(limit, active))
        healthy = []
        for server in range(limit):
            until = self._probation_until[server]
            if until <= t:
                healthy.append(server)
                lo = max(lo, until)
            else:
                hi = min(hi, until)
        healthy = healthy or list(range(limit))
        self._healthy_span = (lo, hi, healthy)
        return healthy

    def _place(self, spec, t: float, parent: Optional[Tuple]
               ) -> Tuple[int, Optional[List[float]]]:
        """Mirror of the scheduler: (server, claimed parent container)."""
        image = spec.image
        if (self.config.scheduler == "hivemind" and parent is not None):
            parent_server, parent_record = parent
            if (self._probation_until[parent_server] <= t
                    and not parent_record[2]
                    and parent_record[3] == image
                    and parent_record[1] > t and parent_record[0] <= t):
                # Same-image + still-warm: claim the parent's very
                # container for in-memory data exchange.
                parent_record[2] = True
                self._take_live(parent_server,
                                self._warm[parent_server][image], image)
                return parent_server, parent_record
        candidates = self._healthy(t)
        # First fit among servers with a live container of the image:
        # any other server's pool has nothing to claim or to reap.
        warm = self._warm_servers[image]
        seen: Dict[int, float] = {}
        if warm:
            for server in candidates:
                if server in warm:
                    self._reap(server, self._warm[server][image], t)
                    if server in warm:
                        load = seen[server] = self._utilization(server, t)
                        if load < 1.0:
                            return server, None
        utilization = [seen[s] if s in seen else self._utilization(s, t)
                       for s in candidates]
        best = min(utilization)
        tied = [s for s, u in zip(candidates, utilization) if u == best]
        chosen = tied[self._rotation % len(tied)]
        self._rotation += 1
        return chosen, None

    # -- one invocation through the regional pipeline ------------------
    def _invoke(self, t_submit: float, spec, service_s: float,
                parent: Optional[Tuple], parent_output_mb: float,
                management: float, data_io: float, execution: float,
                colocate: bool = True) -> _Priced:
        """Price one invocation, adding its stage costs to the running
        ``management``/``data_io``/``execution`` sums in charge order;
        returns (done, server, container, management, data_io,
        execution)."""
        cst = self._cst
        t = t_submit
        # Admission: regional share of the concurrency limit.
        while self._admitted and self._admitted[0] <= t:
            heapq.heappop(self._admitted)
        if len(self._admitted) >= self._admission_limit:
            t = heapq.heappop(self._admitted)
        # Frontend + CouchDB auth (fixed-duration, no compaction tail).
        t += cst.frontend_latency_s
        t = self._couch_serve(t, cst.auth_check_s)
        management += cst.frontend_latency_s + cst.auth_check_s
        # Controller: fluid k-server pool, decision + service hold.
        queue_start = t
        hold = cst.controller_decision_s + cst.controller_service_s
        grant = max(t, self._controller_work / self._controller_slots)
        self._controller_work += hold
        t = grant + hold
        management += t - queue_start
        # Placement (after the controller decision, as in the platform).
        server, container = self._place(
            spec, t, parent if colocate else None)
        colocated = container is not None
        # Parent-output data sharing.
        if parent is not None and parent_output_mb > 0:
            share_start = t
            if colocated:
                t += (cst.inmem_latency_s
                      + parent_output_mb / cst.inmem_mbs)
            elif self.config.sharing == "remote_memory":
                hop = (self._accel.remote_mem_latency_s
                       + parent_output_mb / self._accel.remote_mem_mbs)
                t += 2 * hop  # producer write + consumer read
            else:
                t += 2 * cst.couchdb_handle_s
                t = self._couch_access(t, parent_output_mb)
                t = self._couch_access(t, parent_output_mb)
            data_io += t - share_start
        # Kafka hop to the invoker's topic.
        hop_start = t
        t += cst.kafka_hop_s
        management += t - hop_start
        # Warm container: keepalive'd claim, else a cold start.
        if container is None:
            container = self._claim_warm(server, spec.image, t)
        if container is not None:
            start_cost = cst.warm_start_s
            self.warm_starts += 1
        else:
            start_cost = float(self._rng.lognormal(
                math.log(cst.cold_start_median_s), cst.cold_start_sigma))
            self.cold_starts += 1
            container = [0.0, 0.0, True, spec.image]
        t += start_cost
        management += start_cost
        # Core grant + utilization-dependent interference.
        cores = self._core_free[server]
        grant = max(cores.pop(0), t)
        busy = 1 + len(cores) - bisect_right(cores, grant)
        interference = ((1.0 + cst.interference_slope
                         * max(0.0, busy / self._cores - 0.5))
                        * float(self._rng.lognormal(0.0, 0.16)))
        service = service_s * interference
        if service < 0:
            raise ValueError(f"negative service {service} for {spec.name}")
        t = grant + service
        insort(cores, t)
        execution += service
        # Return the container to the warm pool.
        container[0] = t
        container[1] = t + self._keepalive_s
        self._return_warm(server, container)
        heapq.heappush(self._admitted, t)
        return t, server, container, management, data_io, execution

    def _strike(self, server: int, t: float) -> None:
        self._strikes[server] += 1
        if self._strikes[server] >= self._probation_threshold:
            self._probation_until[server] = t + self._control.probation_s
            self._strikes[server] = 0
            self._healthy_span = _STALE

    def _mitigated_invoke(self, t_submit: float, spec, service_s: float,
                          parent: Optional[Tuple],
                          parent_output_mb: float, management: float,
                          data_io: float, execution: float) -> _Priced:
        """The straggler watchdog's duplicate race, priced analytically.

        Both launches are priced from zero sums and the winner's are
        added to the running ones afterwards, so a mitigated call's
        sums associate as ``running + (winner's stages)``."""
        history = self._history.get(spec.name)
        threshold = None
        if history is not None and len(history) >= self._min_history:
            threshold = (history.percentile(
                self._control.straggler_percentile) * self._threshold_slack)
        won = self._invoke(t_submit, spec, service_s, parent,
                           parent_output_mb, 0.0, 0.0, 0.0)
        if threshold is not None and won[0] - t_submit > threshold:
            # Primary blew the p90*slack watchdog: a duplicate launches
            # at the firing instant, never colocated; first completion
            # wins (the loser keeps running, as in the legacy parity
            # mode).
            self.duplicate_launches += 1
            dup = self._invoke(t_submit + threshold, spec, service_s,
                               parent, parent_output_mb, 0.0, 0.0, 0.0,
                               colocate=False)
            if dup[0] < won[0]:
                self._strike(won[1], dup[0])
                won = dup
        done, server, container, stage_mgmt, stage_io, stage_exec = won
        self._record(spec.name, done - t_submit)
        return (done, server, container, management + stage_mgmt,
                data_io + stage_io, execution + stage_exec)

    def _record(self, name: str, latency: float) -> None:
        series = self._history.get(name)
        if series is None:
            series = self._history[name] = MetricSeries(f"region-{name}")
        series.add(latency)

    def _backlog(self, t: float) -> int:
        """In-flight admitted calls at ``t`` (the queue-depth signal
        both reactive serving policies key on). Popping expired entries
        here is the same maintenance :meth:`_invoke` performs at its
        admission step, just earlier."""
        while self._admitted and self._admitted[0] <= t:
            heapq.heappop(self._admitted)
        return len(self._admitted)

    # -- serving --------------------------------------------------------
    def serve(self, calls: Calls) -> Completions:
        """Serve one canonical-order batch and return its completions.
        Calls the admission gate sheds have no completion."""
        tenants = (self._serving.config.tenants
                   if self._serving is not None else ())
        rows = zip(calls.cell.tolist(), calls.seq.tolist(),
                   calls.arrival_s.tolist(), calls.recognition_s.tolist(),
                   calls.dedup_s.tolist(), calls.output_mb.tolist(),
                   calls.weight.tolist(), calls.tenant.tolist(),
                   calls.synthetic.tolist())
        cells, seqs, done_s, breakdowns = [], [], [], []
        for (cell, seq, arrival, recognition_s, dedup_s, output_mb, weight,
             tenant, synthetic) in rows:
            if arrival < self._last_arrival:
                raise RuntimeError(
                    f"region {self.region}: out-of-order cloud message "
                    f"({arrival:.6f} < {self._last_arrival:.6f})")
            self._last_arrival = arrival
            if self._serving is not None and not self._admit(
                    arrival, tenants[tenant].name if tenant >= 0 else None,
                    weight):
                self.shed_calls += 1
                continue
            done, management, data_io, execution = self._serve(
                arrival, recognition_s, dedup_s, output_mb, synthetic)
            cells.append(cell)
            seqs.append(seq)
            done_s.append(done)
            # COMPONENTS order; the cloud side charges no network time.
            breakdowns.append((0.0, management, data_io, execution))
        return Completions.build(cells, seqs, done_s, breakdowns)

    def _admit(self, t: float, tenant: Optional[str],
               weight: float) -> bool:
        """Feed the serving policies; False when the gate sheds a
        tenant call (swarm and mean-field calls are never shed)."""
        backlog = self._backlog(t)
        if self._serving.observe(t, backlog):
            self._healthy_span = _STALE
        if tenant is None:
            return True
        # Estimated queueing delay: in-flight work beyond the regional
        # core pool, at mean service occupancy.
        cores = self._n_servers * self._cores
        excess = max(0, backlog - cores)
        est_delay = (excess / cores) * self._mean_service_s
        return self._serving.admit(t, tenant, weight, backlog, est_delay)

    def _serve(self, t: float, recognition_s: float, dedup_s: float,
               output_mb: float, synthetic: bool
               ) -> Tuple[float, float, float, float]:
        """Price one call's pipeline from arrival ``t``; returns its
        completion instant and its management, data-I/O and execution
        seconds."""
        invoke = (self._mitigated_invoke if self._mitigate and not synthetic
                  else self._invoke)
        management = data_io = execution = 0.0
        parent: Optional[Tuple[int, List[float]]] = None
        parent_output = 0.0
        if not math.isnan(recognition_s):
            (t, server, container, management, data_io,
             execution) = invoke(t, self.recognition_spec, recognition_s,
                                 None, 0.0, management, data_io, execution)
            if "recognition" in self._persisted_tasks:
                t = self._couch_access(t, output_mb)
                self.persisted_documents += 1
            parent = (server, container)
            parent_output = output_mb
        if not math.isnan(dedup_s) and self.dedup_spec is not None:
            share_mb = parent_output if parent is not None else 0.0
            t, _, _, management, data_io, execution = invoke(
                t, self.dedup_spec, dedup_s, parent, share_mb, management,
                data_io, execution)
            if "aggregate" in self._persisted_tasks:
                t = self._couch_access(t, 0.05)
                self.persisted_documents += 1
        if synthetic:
            self.background_completions += 1
            self.last_background_s = max(self.last_background_s, t)
        else:
            self.completions += 1
            self.last_completion_s = max(self.last_completion_s, t)
        return t, management, data_io, execution

    def stats(self) -> Dict[str, float]:
        out = {
            "completions": self.completions,
            "last_completion_s": self.last_completion_s,
            "background_completions": self.background_completions,
            "last_background_s": self.last_background_s,
            "persisted_documents": self.persisted_documents,
            "cold_starts": self.cold_starts,
            "warm_starts": self.warm_starts,
            "duplicate_launches": self.duplicate_launches,
        }
        if self._serving is not None:
            out["shed_calls"] = self.shed_calls
            out["serving"] = self._serving.stats()
        return out
