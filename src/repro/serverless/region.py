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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import PaperConstants
from ..telemetry import LatencyBreakdown, MetricSeries
from .gateway import GATEWAY_SEED_OFFSET

__all__ = ["RegionGateway", "region_server_count",
           "region_server_offset"]

#: Straggler-mitigation mirror constants — keep in lockstep with
#: :class:`repro.core.StragglerMitigator`.
_MIN_HISTORY = 20
_THRESHOLD_SLACK = 1.5
_PROBATION_THRESHOLD = 3

#: The monolithic CouchDB store runs 8 concurrent request handlers; each
#: region gets its proportional shard of them (total conserved).
_COUCH_SLOTS = 8


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


def region_server_offset(region: int, n_regions: int,
                         n_servers: int) -> int:
    """First *global* backend server index owned by ``region`` under the
    same contiguous split as :func:`region_server_count` (when regions
    outnumber servers, region ``r`` maps to logical server
    ``min(r, n_servers - 1)``). Used to translate a fault plan's global
    server targets into a region's local server indices."""
    if not 0 <= region < n_regions:
        raise ValueError(f"region {region} outside 0..{n_regions - 1}")
    if n_regions >= n_servers:
        return min(region, n_servers - 1)
    base, extra = divmod(n_servers, n_regions)
    return region * base + min(region, extra)


class RegionGateway:
    """One region's cloud slice, priced on a virtual clock.

    ``constants`` must be the *globally scaled*
    :class:`~repro.config.PaperConstants` (same object the monolithic
    gateway receives); ``region_devices`` is this region's device count
    and ``total_devices`` the whole fleet's (the controller pool scales
    with the fleet exactly as the unsharded runner's ``_n_controllers``
    does, then splits across regions).
    """

    def __init__(self, config, scenario, constants: PaperConstants,
                 region: int, n_regions: int, region_devices: int,
                 total_devices: int, seed: int = 0, serving=None):
        if config.execution not in ("cloud_faas", "hybrid"):
            raise ValueError(
                "RegionGateway requires a cloud-backed platform "
                f"(got execution={config.execution!r})")
        if region_devices <= 0:
            raise ValueError("region must own at least one device")
        self.config = config
        self.region = region
        self.n_regions = n_regions
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

        # -- regional controller pool ----------------------------------
        # Fluid-backlog like the couch shard below (and for the same
        # reason): a recognition's and its dedup's controller requests
        # are priced seconds apart, so slot reservations made in pricing
        # order would stall later head-of-pipe requests behind them.
        n_controllers = config.n_controllers
        if config.scheduler == "hivemind":
            n_controllers = max(n_controllers,
                                math.ceil(total_devices / 64))
        self._controller_slots = max(
            1, math.ceil(n_controllers / n_regions))
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

        #: Chaos outage windows ``(start_s, end_s)`` from a
        #: region-partitioned fault plan (:meth:`apply_fault_plan`): a
        #: CouchDB/Kafka operation landing inside a window is pushed to
        #: its end; operations before the window are untouched.
        self._couch_outages: List[Tuple[float, float]] = []
        self._kafka_outages: List[Tuple[float, float]] = []
        self._total_servers = constants.cluster.servers
        #: Backend fault-plan events this region actually armed
        #: (outage windows + local server crashes).
        self.injected_faults = 0

        self.recognition_spec = scenario.recognition.function_spec()
        self.dedup_spec = (scenario.dedup.function_spec()
                           if scenario.dedup is not None else None)
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

    # -- chaos arming ---------------------------------------------------
    def apply_fault_plan(self, plan) -> None:
        """Arm this region's slice of a partitioned backend
        :class:`~repro.faults.FaultPlan` (see
        :meth:`~repro.faults.FaultPlan.partition`).

        CouchDB/Kafka outages become shard-local stall windows;
        server/invoker crashes put the targeted server (translated from
        its global index to this region's local slice) on probation for
        the reboot window (permanently for ``duration_s == 0``).
        Network-layer and function-fault events are ignored here — in
        exact runs those are injected by the cell-side network and
        serverless layers, not the analytic regional model.
        """
        offset = region_server_offset(self.region, self.n_regions,
                                      self._total_servers)
        for event in plan.sorted_events():
            if event.kind == "couchdb_outage":
                self._couch_outages.append(
                    (event.time, event.time + event.duration_s))
                self.injected_faults += 1
            elif event.kind == "kafka_outage":
                self._kafka_outages.append(
                    (event.time, event.time + event.duration_s))
                self.injected_faults += 1
            elif event.kind in ("server_crash", "invoker_crash"):
                server = int("".join(
                    ch for ch in str(event.target) if ch.isdigit()) or 0)
                local = server - offset
                if 0 <= local < self._n_servers:
                    until = (math.inf if event.duration_s == 0
                             else event.time + event.duration_s)
                    self._probation_until[local] = max(
                        self._probation_until[local], until)
                    self.injected_faults += 1
        self._couch_outages.sort()
        self._kafka_outages.sort()

    @staticmethod
    def _after_outages(t: float,
                       windows: List[Tuple[float, float]]) -> float:
        """Push ``t`` past every outage window it lands in (windows are
        sorted by start, so chained/overlapping windows cascade)."""
        for start, end in windows:
            if start <= t < end:
                t = end
        return t

    # -- resource primitives -------------------------------------------
    def _couch_serve(self, t: float, duration: float) -> float:
        """One store operation of fixed ``duration`` (auth checks)."""
        grant = max(t, self._couch_work / self._couch_slots)
        if self._couch_outages:
            grant = self._after_outages(grant, self._couch_outages)
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

    def _reap(self, pool: Dict, t: float) -> None:
        """Drop expired records (lazy: stale heap entries are skipped)."""
        expiry = pool["expiry"]
        while expiry and expiry[0][0] <= t:
            _, _, record = heapq.heappop(expiry)
            if record[2] or record[1] > t:
                continue  # claimed, or re-warmed since this entry
            record[2] = True
            pool["live"] -= 1

    def _warm_available(self, server: int, image: str, t: float) -> bool:
        pool = self._warm[server].get(image)
        if not pool:
            return False
        self._reap(pool, t)
        return pool["live"] > 0

    def _claim_warm(self, server: int, image: str, t: float
                    ) -> Optional[List]:
        """Claim the earliest-ready live container, if any is ready."""
        pool = self._warm[server].get(image)
        if not pool:
            return None
        self._reap(pool, t)
        ready = pool["ready"]
        while ready and ready[0][0] <= t:
            key, _, record = heapq.heappop(ready)
            if record[2] or record[0] != key:
                continue  # claimed/expired, or re-warmed since pushed
            record[2] = True
            pool["live"] -= 1
            return record
        return None

    def _return_warm(self, server: int, record: List) -> None:
        pool = self._warm[server].setdefault(
            record[3], {"ready": [], "expiry": [], "live": 0})
        record[2] = False
        self._pool_counter += 1
        heapq.heappush(pool["ready"],
                       (record[0], self._pool_counter, record))
        heapq.heappush(pool["expiry"],
                       (record[1], self._pool_counter, record))
        pool["live"] += 1

    # -- placement mirror ----------------------------------------------
    def _healthy(self, t: float) -> List[int]:
        limit = self._n_servers
        if self._serving is not None:
            active = self._serving.active_servers(t)
            if active is not None:
                # Autoscaled pool: placement only sees the active
                # prefix. A just-activated server joins with an empty
                # warm pool, so scale-out pays cold starts through the
                # existing invoker model.
                limit = max(1, min(limit, active))
        healthy = [s for s in range(limit)
                   if self._probation_until[s] <= t]
        return healthy or list(range(limit))

    def _place(self, spec, t: float, parent: Optional[Tuple]
               ) -> Tuple[int, Optional[List[float]]]:
        """Mirror of the scheduler: (server, claimed parent container)."""
        if (self.config.scheduler == "hivemind" and parent is not None):
            parent_server, parent_record = parent
            if (self._probation_until[parent_server] <= t
                    and not parent_record[2]
                    and parent_record[3] == spec.image
                    and parent_record[1] > t and parent_record[0] <= t):
                # Same-image + still-warm: claim the parent's very
                # container for in-memory data exchange.
                parent_record[2] = True
                self._warm[parent_server][spec.image]["live"] -= 1
                return parent_server, parent_record
        candidates = self._healthy(t)
        for server in candidates:
            if (self._warm_available(server, spec.image, t)
                    and self._utilization(server, t) < 1.0):
                return server, None
        utilization = [self._utilization(s, t) for s in candidates]
        best = min(utilization)
        tied = [s for s, u in zip(candidates, utilization) if u == best]
        chosen = tied[self._rotation % len(tied)]
        self._rotation += 1
        return chosen, None

    # -- one invocation through the regional pipeline ------------------
    def _invoke(self, t_submit: float, spec, service_s: float,
                parent: Optional[Tuple], parent_output_mb: float,
                colocate: bool, breakdown: LatencyBreakdown
                ) -> Tuple[float, int, List[float]]:
        """Price one invocation; returns (done, server, container)."""
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
        breakdown.charge("management",
                         cst.frontend_latency_s + cst.auth_check_s)
        # Controller: fluid k-server pool, decision + service hold.
        queue_start = t
        hold = cst.controller_decision_s + cst.controller_service_s
        grant = max(t, self._controller_work / self._controller_slots)
        self._controller_work += hold
        t = grant + hold
        breakdown.charge("management", t - queue_start)
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
            breakdown.charge("data_io", t - share_start)
        # Kafka hop to the invoker's topic.
        hop_start = t
        t += cst.kafka_hop_s
        if self._kafka_outages:
            t = self._after_outages(t, self._kafka_outages)
        breakdown.charge("management", t - hop_start)
        # Container: keepalive'd warm claim, else a cold start.
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
        breakdown.charge("management", start_cost)
        # Core grant + utilization-dependent interference.
        cores = self._core_free[server]
        grant = max(cores.pop(0), t)
        busy = 1 + len(cores) - bisect_right(cores, grant)
        interference = ((1.0 + cst.interference_slope
                         * max(0.0, busy / self._cores - 0.5))
                        * float(self._rng.lognormal(0.0, 0.16)))
        service = service_s * interference
        t = grant + service
        insort(cores, t)
        breakdown.charge("execution", service)
        # Return the container to the warm pool.
        container[0] = t
        container[1] = t + self._keepalive_s
        self._return_warm(server, container)
        heapq.heappush(self._admitted, t)
        return t, server, container

    def _strike(self, server: int, t: float) -> None:
        self._strikes[server] += 1
        if self._strikes[server] >= _PROBATION_THRESHOLD:
            self._probation_until[server] = t + self._control.probation_s
            self._strikes[server] = 0

    def _mitigated_invoke(self, t_submit: float, spec, service_s: float,
                          parent: Optional[Tuple],
                          parent_output_mb: float,
                          breakdown: LatencyBreakdown
                          ) -> Tuple[float, int, List[float]]:
        """The straggler watchdog's duplicate race, priced analytically."""
        history = self._history.get(spec.name)
        threshold = None
        if history is not None and len(history) >= _MIN_HISTORY:
            threshold = (history.percentile(
                self._control.straggler_percentile) * _THRESHOLD_SLACK)
        primary_bd = LatencyBreakdown()
        done, server, container = self._invoke(
            t_submit, spec, service_s, parent, parent_output_mb,
            colocate=True, breakdown=primary_bd)
        if threshold is None or done - t_submit <= threshold:
            self._record(spec.name, done - t_submit)
            self._merge(breakdown, primary_bd)
            return done, server, container
        # Primary blew the p90*slack watchdog: a duplicate launches at
        # the firing instant, never colocated; first completion wins
        # (the loser keeps running, as in the legacy parity mode).
        self.duplicate_launches += 1
        dup_bd = LatencyBreakdown()
        dup = self._invoke(
            t_submit + threshold, spec, service_s, parent,
            parent_output_mb, colocate=False, breakdown=dup_bd)
        if dup[0] < done:
            self._strike(server, dup[0])
            done, server, container = dup
            primary_bd = dup_bd
        self._record(spec.name, done - t_submit)
        self._merge(breakdown, primary_bd)
        return done, server, container

    def _record(self, name: str, latency: float) -> None:
        series = self._history.get(name)
        if series is None:
            series = self._history[name] = MetricSeries(f"region-{name}")
        series.add(latency)

    @staticmethod
    def _merge(into: LatencyBreakdown, part: LatencyBreakdown) -> None:
        into.charge("management", part.management)
        into.charge("data_io", part.data_io)
        into.charge("execution", part.execution)
        into.charge("network", part.network)

    def _backlog(self, t: float) -> int:
        """In-flight admitted calls at ``t`` (the queue-depth signal
        both reactive serving policies key on). Popping expired entries
        here is the same maintenance :meth:`_invoke` performs at its
        admission step, just earlier."""
        while self._admitted and self._admitted[0] <= t:
            heapq.heappop(self._admitted)
        return len(self._admitted)

    # -- serving --------------------------------------------------------
    def serve(self, calls) -> List[Tuple[int, int, float, Dict[str, float]]]:
        """Serve one canonical-order batch; returns completion tuples
        ``(cell, seq, completion_s, breakdown_dict)`` and stamps the
        calls in place. Calls shed by the admission gate are stamped
        ``shed=True`` and yield no completion tuple."""
        out = []
        for call in calls:
            if call.arrival_s < self._last_arrival:
                raise RuntimeError(
                    f"region {self.region}: out-of-order cloud message "
                    f"({call.arrival_s:.6f} < {self._last_arrival:.6f})")
            self._last_arrival = call.arrival_s
            served = self._serve(call)
            if served is not None:
                out.append(served)
        return out

    def _serve(self, call
               ) -> Optional[Tuple[int, int, float, Dict[str, float]]]:
        t = call.arrival_s
        if self._serving is not None:
            backlog = self._backlog(t)
            self._serving.observe(t, backlog)
            tenant = getattr(call, "tenant", None)
            if tenant is not None:
                # Estimated queueing delay: in-flight work beyond the
                # regional core pool, at mean service occupancy.
                cores = self._n_servers * self._cores
                excess = max(0, backlog - cores)
                est_delay = (excess / cores) * self._mean_service_s
                if not self._serving.admit(t, tenant, call.weight,
                                           backlog, est_delay):
                    call.shed = True
                    call.completion_s = None
                    self.shed_calls += 1
                    return None
        breakdown = LatencyBreakdown()
        synthetic = bool(getattr(call, "synthetic", False))
        mitigate = self._mitigate and not synthetic
        parent: Optional[Tuple[int, List[float]]] = None
        parent_output = 0.0
        if call.recognition_s is not None:
            if mitigate:
                done, server, container = self._mitigated_invoke(
                    t, self.recognition_spec, call.recognition_s,
                    None, 0.0, breakdown)
            else:
                done, server, container = self._invoke(
                    t, self.recognition_spec, call.recognition_s,
                    None, 0.0, colocate=True, breakdown=breakdown)
            t = done
            if "recognition" in self._persisted_tasks:
                t = self._couch_access(t, call.output_mb)
                self.persisted_documents += 1
            parent = (server, container)
            parent_output = call.output_mb
        if call.dedup_s is not None and self.dedup_spec is not None:
            share_mb = parent_output if parent is not None else 0.0
            if mitigate:
                t, _, _ = self._mitigated_invoke(
                    t, self.dedup_spec, call.dedup_s, parent,
                    share_mb, breakdown)
            else:
                t, _, _ = self._invoke(
                    t, self.dedup_spec, call.dedup_s, parent, share_mb,
                    colocate=True, breakdown=breakdown)
            if "aggregate" in self._persisted_tasks:
                t = self._couch_access(t, 0.05)
                self.persisted_documents += 1
        call.completion_s = t
        call.cloud_breakdown = breakdown.as_dict()
        if synthetic:
            self.background_completions += 1
            self.last_background_s = max(self.last_background_s, t)
        else:
            self.completions += 1
            self.last_completion_s = max(self.last_completion_s, t)
        return (call.cell, call.seq, t, call.cloud_breakdown)

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
            "injected_faults": self.injected_faults,
        }
        if self._serving is not None:
            out["shed_calls"] = self.shed_calls
            out["serving"] = self._serving.stats()
        return out
