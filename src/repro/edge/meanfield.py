"""Mean-field aggregate cells: closed-form fig17 saturation curves.

A *cell* of homogeneous devices collapses into counts and rates — no
per-device kernel events. All devices in a swarm fly congruent coverage
routes over identically-sized tiles (:func:`repro.routing.partition_field`
cuts the field into near-equal rectangles, and
:meth:`~repro.config.PaperConstants.scaled_for_swarm` grows the field so
per-device work is constant), so one representative flight profile plus
population statistics reproduces the fig17b observables:

``bandwidth_mbs``
    Every device captures ``B`` batches (the exact tick/turn replay of
    :class:`repro.edge.engine.SwarmEngine`'s tick loop, computed without
    events);
    cloud-admitted batches upload the (optionally edge-filtered) frame
    payload, runtime-remapped batches push only the result payload. The
    meter average is total MB over ceil(makespan) 1-second windows —
    exact, not approximate.

``task_p99_s``
    A deterministic quantile convolution over the latency components the
    discrete-event runner charges: synchronized in-batch uplink waits,
    saturated-link backlog ramps (CSMA collapse), OpenWhisk management
    (warm/cold mixture), invoker execution with interference, the
    scenario-B dedup chain with CouchDB contention
    (:func:`repro.analytical.mmc_wait_time`), and — past the runtime
    remapping point — the single-core device queue that both edge
    recognition and the obstacle-avoidance join drain through.

``makespan_s``
    The max over the competing completion chains (flight, saturated
    uplink drain, cloud tail, slowest device's edge queue), with
    extreme-value corrections for the binomial spread of per-device
    cloud admission.

The model is O(1) in device count: a 1M-device cell costs the same
~10^4-sample convolution as a 16-device cell. Fidelity targets the
sweep-validation band (see ``repro.experiments.sweep.validate``): the
parity suite pins N ∈ {16, 64, 256} × both platforms × both scenarios
against the discrete-event runner.

Calibration constants below were fit against exact-runner anchors at
N ∈ {16, 64, 256, 1024} (seed 0) and are *not* free per-figure knobs:
one set covers every platform/scenario/size cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analytical import mmc_wait_time
from ..apps.scenarios import ScenarioSpec
from ..config import DEFAULT, PaperConstants
from ..routing import coverage_route
from ..routing.coverage import Region

__all__ = ["MeanFieldCell", "FlightProfile", "flight_profile",
           "predict_cell", "validate_cells", "synthetic_stream"]

# -- calibration (fit once against the exact runner, seed 0) -------------
#: Mean of the device-side lognormal(0, 0.18) execution jitter.
_EDGE_JITTER_MEAN = math.exp(0.18 ** 2 / 2.0)
#: Invoker multi-tenant noise: lognormal(0, 0.16) multiplier on service.
_INVOKER_JITTER_SIGMA = 0.16
_INVOKER_JITTER_MEAN = math.exp(_INVOKER_JITTER_SIGMA ** 2 / 2.0)
#: Background cold-start rate (keepalive expiries after the first-batch
#: warm-up; the first capture tick is always cold — see predict_cell).
_COLD_FRACTION = 0.003
#: Cold-start rate under p90 straggler mitigation: speculative replicas
#: run isolated (fresh containers), but the replica only sets the task
#: latency when it beats the original, so well under the full straggler
#: decile of invocations carries a cold-start management charge.
_MITIGATION_COLD = 0.04
#: How far into the CSMA collapse range (1 .. max_collapse) a saturated
#: access point actually operates: the penalty ramps with queue depth,
#: so the mission-average sits below the cap.
_COLLAPSE_ACTIVATION = 0.62
#: Convexity of a saturated queue's backlog ramp over the mission
#: (collapse deepens as the queue builds, so early tasks wait less than
#: a linear ramp would predict).
_RAMP_POWER = 1.7
#: Extreme-value shrink: sampled per-device maxima regress toward the
#: mean because service draws partially cancel admission-draw outliers.
_TAIL_SHRINK = 0.92
#: Quantile-convolution resolution. Stratified uniforms with a fixed
#: generator seed keep predictions bit-reproducible.
_SAMPLES = 8192
_RNG_SEED = 20220618

_WIRED_OVERHEADS_S = 0.0008 + 0.0025 + 0.0015 + 0.002  # frontend..kafka


# -- flight geometry ------------------------------------------------------
@dataclass(frozen=True)
class FlightProfile:
    """Event-free replay of one device's coverage flight."""

    flight_s: float          #: takeoff-to-route-end, incl. turn penalties
    moving_s: float          #: seconds spent on legs (capture-eligible)
    batches: int             #: frame batches captured (B)
    first_capture_s: float   #: time of the first capture
    last_capture_s: float    #: time of the last capture
    n_turns: int             #: inter-leg turn penalties paid


def flight_profile(constants: PaperConstants) -> FlightProfile:
    """Replay the representative tile's route in closed form.

    Mirrors :class:`~repro.edge.engine.SwarmEngine`'s tick loop exactly
    — 1-second ticks along each leg, a capture per tick whose step is at
    least half a second, a turn penalty between legs — but walks leg
    *durations* instead of scheduling kernel events.
    """
    # First tile of partition_field(...), computed without materializing
    # all N regions (a 1M-device swarm would allocate a million tiles
    # just to read one). The grid is rows ~ sqrt(N) with the remainder
    # spread one-extra-tile-per-row, so tile 0 sits in a row of
    # base + (1 if remainder) tiles; scaled_for_swarm grows the field
    # proportionally, which keeps this tile the same size at every N.
    n_regions = constants.drone.count
    rows = max(1, round(math.sqrt(n_regions)))
    base, extra = divmod(n_regions, rows)
    in_first_row = base + (1 if extra else 0)
    tile = Region(x0=0.0, y0=0.0,
                  x1=constants.field_width_m / in_first_row,
                  y1=constants.field_height_m / rows)
    route = coverage_route(tile, constants.drone.fov_width_m)
    speed = constants.drone.speed_mps
    turn_s = constants.drone.turn_time_s
    now = 0.0
    moving = 0.0
    batches = 0
    first = last = None
    position = route[0]
    for target in route[1:]:
        distance = math.dist(position, target)
        position = target
        remaining = distance
        while remaining > 1e-9 * max(1.0, speed):
            step_s = min(1.0, remaining / speed)
            remaining -= speed * step_s
            now += step_s
            moving += step_s
            if step_s >= 0.5:
                batches += 1
                last = now
                if first is None:
                    first = now
        now += turn_s
    # The engine pays the turn penalty after *every* leg, including the
    # last one — the mission ends when the final turn completes.
    n_turns = max(0, len(route) - 1)
    flight_s = moving + n_turns * turn_s
    return FlightProfile(flight_s=flight_s, moving_s=moving,
                         batches=batches,
                         first_capture_s=first if first is not None else 0.0,
                         last_capture_s=last if last is not None else 0.0,
                         n_turns=n_turns)


# -- population model -----------------------------------------------------
@dataclass(frozen=True)
class MeanFieldCell:
    """One aggregate cell's predicted fig17b observables."""

    platform: str
    n_devices: int
    bandwidth_mbs: float
    task_p99_s: float
    makespan_s: float
    details: Dict[str, float]

    @property
    def triple(self) -> Tuple[float, float, float]:
        """(bw mean MB/s, task p99 s, makespan s) — the fig17b cell."""
        return (self.bandwidth_mbs, self.task_p99_s, self.makespan_s)


def _admission(config, scenario: ScenarioSpec, n_devices: int,
               constants: PaperConstants) -> Tuple[str, float]:
    """Recognition's tier and the fraction of batches the cloud admits
    (none when the compiler keeps recognition on board)."""
    tier = config.tier_of(scenario, "recognition", constants, n_devices)
    if tier != "cloud":
        return tier, 0.0
    return tier, config.cloud_fraction(scenario.recognition, n_devices)


def _lognormal_mean(median: float, sigma: float) -> float:
    return median * math.exp(sigma ** 2 / 2.0)


def _stage_backlog(arrival_hz: float, capacity_hz: float,
                   window_s: float) -> float:
    """Final backlog (seconds of wait) a saturated stage accumulates."""
    if capacity_hz <= 0.0:
        return 0.0
    rho = arrival_hz / capacity_hz
    if rho <= 1.0:
        return 0.0
    return (rho - 1.0) / rho * window_s * rho  # (in - out)/out * window


def predict_cell(platform: Union[str, object],
                 scenario: Union[str, ScenarioSpec],
                 n_devices: int,
                 seed: int = 0) -> MeanFieldCell:
    """Predict one fig17b cell without simulating any device.

    ``platform`` is a platform key (``"hivemind"``/``"centralized_faas"``)
    or a :class:`~repro.platforms.base.PlatformConfig`; ``scenario`` a
    key (``"ScA"``/``"ScB"``) or :class:`ScenarioSpec`. ``seed`` is
    accepted for signature parity with the exact cell and ignored — the
    model predicts the population, not one draw.
    """
    from ..platforms import platform_config
    if isinstance(platform, str):
        config = platform_config(platform)
    else:
        config = platform
    if isinstance(scenario, str):
        from ..apps import SCENARIO_A, SCENARIO_B
        scenario = {s.key: s for s in (SCENARIO_A, SCENARIO_B)}[scenario]
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    cst = DEFAULT.scaled_for_swarm(n_devices)
    profile = flight_profile(cst)
    B = max(1, profile.batches)

    tier, f_cloud = _admission(config, scenario, n_devices, cst)
    f_edge = 1.0 - f_cloud

    app = scenario.recognition
    dedup = scenario.dedup
    sls = cst.serverless
    wl = cst.wireless

    # -- payloads --------------------------------------------------------
    upload_mb = config.upload_mb(app, app.input_mb)
    push_mb = app.output_mb  # runtime-remapped batches push results only
    mb_per_batch = f_cloud * upload_mb + f_edge * push_mb

    # -- uplink (per access point, synchronized capture ticks) -----------
    group = max(1, math.ceil(n_devices / wl.access_points))
    ser_s = upload_mb / (wl.ap_mbs * (1.0 - wl.loss_rate))
    uplink_work = f_cloud * group * ser_s          # wire-seconds per tick
    collapse = 1.0
    if uplink_work > 1.0:
        collapse = 1.0 + _COLLAPSE_ACTIVATION * (wl.max_collapse - 1.0)
    ser_eff = ser_s * collapse
    uplink_backlog = max(
        0.0, (f_cloud * group * ser_eff - 1.0) * profile.moving_s
        - profile.n_turns * cst.drone.turn_time_s)

    # -- cloud control/compute/storage stages ----------------------------
    # Arrivals the uplink actually delivers downstream (tasks/s, whole
    # swarm, mission average).
    rate_per_device = B / profile.flight_s
    offered_hz = f_cloud * n_devices * rate_per_device
    uplink_cap_hz = (wl.access_points / ser_eff if upload_mb > 0
                     else float("inf"))
    delivered_hz = min(offered_hz, uplink_cap_hz)

    ctrl_cap_hz = config.controllers_for(n_devices) / sls.controller_service_s
    ctrl_backlog = _stage_backlog(delivered_hz, ctrl_cap_hz,
                                  profile.moving_s)
    delivered_hz = min(delivered_hz, ctrl_cap_hz)

    # Invoker interference: the hivemind scheduler packs activations for
    # data locality, so the hot servers run past the 0.5-utilization
    # interference knee; round-robin spreads load and only inflates once
    # the whole fleet crosses it. The lognormal(0, 0.16) factor is the
    # invoker's multi-tenant noise jitter.
    cores = cst.cluster.servers * cst.cluster.cores_per_server
    base_exec_mean = _lognormal_mean(app.cloud_service_s, app.service_sigma)
    fleet_util = min(1.0, delivered_hz * base_exec_mean / cores)
    if config.scheduler == "hivemind":
        interference = 1.0 + sls.interference_slope * 0.5
    else:
        interference = (1.0 + sls.interference_slope
                        * max(0.0, fleet_util - 0.5))
    exec_rec_mean = base_exec_mean * interference * _INVOKER_JITTER_MEAN
    invoker_cap_hz = cores / exec_rec_mean
    invoker_backlog = _stage_backlog(delivered_hz, invoker_cap_hz,
                                     profile.moving_s)
    delivered_hz = min(delivered_hz, invoker_cap_hz)

    # -- device core (runtime-remapped recognition + obstacle join) ------
    from ..platforms.scenario_runner import (OBSTACLE_SERVICE_S,
                                             OBSTACLE_SLOWDOWN)
    obstacle_mean = (OBSTACLE_SERVICE_S * OBSTACLE_SLOWDOWN
                     * _EDGE_JITTER_MEAN)
    edge_exec_mean = ((_lognormal_mean(app.cloud_service_s,
                                       app.service_sigma)
                       + scenario.edge_extra_service_s)
                      * app.edge_slowdown * _EDGE_JITTER_MEAN)
    dev_work_mean = f_edge * edge_exec_mean + obstacle_mean

    # CouchDB: recognition persists (cloud batches) plus, for scenarios
    # with an aggregate stage, one dedup persist per batch. Arrivals are
    # throttled upstream — a saturated device core feeds its aggregate
    # stage only as fast as it drains.
    pareto_mean = (sls.couchdb_tail_alpha / (sls.couchdb_tail_alpha - 1.0))
    rec_op_s = (sls.couchdb_latency_s
                + app.output_mb / sls.couchdb_mbs) * pareto_mean
    agg_op_s = (sls.couchdb_latency_s + 0.05 / sls.couchdb_mbs) * pareto_mean
    couch_hz = delivered_hz
    couch_work = delivered_hz * rec_op_s
    if dedup is not None:
        edge_drain_hz = f_edge * n_devices * min(
            rate_per_device, 1.0 / max(dev_work_mean, 1e-9))
        dedup_hz = min(f_cloud * n_devices * rate_per_device,
                       delivered_hz) + edge_drain_hz
        couch_hz = couch_hz + dedup_hz
        couch_work = couch_work + dedup_hz * agg_op_s
    couch_op_s = couch_work / couch_hz if couch_hz > 0 else 0.0
    couch_rho = couch_work / 8.0              # CouchDB concurrency = 8
    couch_wait = (mmc_wait_time(
        8, min(couch_hz, 0.999 * 8.0 / couch_op_s), couch_op_s)
        if couch_op_s > 0 else 0.0)
    couch_backlog = _stage_backlog(couch_hz, 8.0 / couch_op_s,
                                   profile.moving_s) if couch_op_s else 0.0

    cloud_backlog = uplink_backlog + ctrl_backlog + invoker_backlog

    spacing = profile.flight_s / B              # seconds per capture slot
    # Per-capture work variance on the device core: Bernoulli admission
    # times a jittered edge execution, plus the obstacle join. Drives
    # both the random-walk backlog spread (a device's queue at capture k
    # wanders sqrt(k) around the drift) and the slowest-device makespan.
    edge_exec_var = (f_edge * (1.0 - f_edge) * edge_exec_mean ** 2
                     + f_edge * (edge_exec_mean * 0.18) ** 2)
    sigma_step = math.sqrt(edge_exec_var) if f_edge > 0.0 else 0.0

    # -- quantile convolution -------------------------------------------
    rng = np.random.default_rng(_RNG_SEED)
    K = _SAMPLES
    u = (np.arange(K) + 0.5) / K                # stratified uniforms

    # Capture index k (uniform over the mission) and the admission mix
    # of the owning device (binomial spread, extreme-value shrink).
    k = rng.permutation(np.ceil(u * B))
    drift = f_edge * edge_exec_mean + obstacle_mean - spacing
    dev_backlog = np.maximum(
        0.0, k * drift + np.sqrt(k) * sigma_step * _TAIL_SHRINK
        * rng.standard_normal(K))

    # Cloud path: in-batch uplink position + serialization + backbone +
    # saturated ramps + management + execution (+ dedup chain). A
    # saturated uplink's backlog ramp already contains the in-batch
    # position (the queue never empties between ticks).
    if collapse > 1.0:
        in_batch = np.zeros(K)
    else:
        in_batch = rng.integers(0, max(1, round(f_cloud * group)),
                                K) * ser_eff
    backbone = (wl.base_rtt_s + wl.per_hop_latency_s
                + upload_mb / cst.cluster.nic_bandwidth_mbs
                + cst.cluster.tor_latency_s + cst.cluster.sw_rpc_overhead_s)
    ramp = (cloud_backlog + couch_backlog) * rng.permutation(u) ** _RAMP_POWER
    # Cold starts concentrate on the mission's first capture tick — the
    # warm pool grows on demand, so the synchronized first batch pays
    # the cold cost *and* the deepest in-batch queue position. A small
    # background rate covers keepalive expiries later in the mission.
    p_cold = (_MITIGATION_COLD if config.straggler_mitigation
              else _COLD_FRACTION)
    cold = (k <= 1.0) | (rng.random(K) < p_cold)
    mgmt = np.where(
        cold,
        sls.cold_start_median_s * np.exp(
            sls.cold_start_sigma * rng.standard_normal(K)),
        sls.warm_start_s) + _WIRED_OVERHEADS_S
    sigma_rec = math.hypot(app.service_sigma, _INVOKER_JITTER_SIGMA)
    exec_rec = app.cloud_service_s * np.exp(
        sigma_rec * rng.standard_normal(K)) * interference
    cloud_lat = in_batch + ser_eff + backbone + ramp + mgmt + exec_rec
    dedup_mean = 0.0
    if dedup is not None:
        sigma_dedup = math.hypot(dedup.service_sigma,
                                 _INVOKER_JITTER_SIGMA)
        exec_dedup = dedup.cloud_service_s * np.exp(
            sigma_dedup * rng.standard_normal(K)) * interference
        dedup_mean = (_lognormal_mean(dedup.cloud_service_s,
                                      dedup.service_sigma)
                      * interference * _INVOKER_JITTER_MEAN)
        cold_dedup = (k <= 1.0) | (rng.random(K) < p_cold)
        mgmt_dedup = np.where(
            cold_dedup,
            sls.cold_start_median_s * np.exp(
                sls.cold_start_sigma * rng.standard_normal(K)),
            sls.warm_start_s)
        dedup_lat = (mgmt_dedup + _WIRED_OVERHEADS_S + exec_dedup
                     + couch_wait
                     + app.output_mb / sls.rpc_share_mbs)
        cloud_lat = cloud_lat + dedup_lat

    # Edge path: on-board execution + result push (+ the dedup stage
    # still runs at the cloud tier).
    edge_exec = ((app.cloud_service_s * np.exp(
        app.service_sigma * rng.standard_normal(K))
        + scenario.edge_extra_service_s) * app.edge_slowdown
        * np.exp(0.18 * rng.standard_normal(K)))
    edge_lat = edge_exec + push_mb / wl.ap_mbs + wl.base_rtt_s
    if dedup is not None:
        edge_lat = edge_lat + dedup_lat

    is_cloud = rng.random(K) < f_cloud
    obstacle = OBSTACLE_SERVICE_S * OBSTACLE_SLOWDOWN * np.exp(
        0.18 * rng.standard_normal(K))
    latency = dev_backlog + np.where(is_cloud,
                                     np.maximum(cloud_lat, obstacle),
                                     edge_lat)
    task_p99 = float(np.percentile(latency, 99.0))

    # -- makespan: slowest completion chain ------------------------------
    chains = [profile.flight_s]
    # Cloud chain: the last capture's message rides the full backlog.
    in_batch_last = (0.0 if collapse > 1.0
                     else max(0.0, f_cloud * group - 1.0) * ser_eff)
    resid = (in_batch_last + ser_eff + backbone
             + sls.warm_start_s + _WIRED_OVERHEADS_S
             + exec_rec_mean + dedup_mean + couch_wait)
    if f_cloud > 0.0:
        chains.append(profile.last_capture_s + cloud_backlog
                      + couch_backlog + resid)
    # Device chain: the most edge-loaded device drains its whole queue
    # (extreme value of the B-step admission/service random walk over
    # the fleet).
    if f_edge > 0.0:
        z_max = math.sqrt(2.0 * math.log(max(2, n_devices)))
        dev_total = (B * (f_edge * edge_exec_mean + obstacle_mean)
                     + math.sqrt(B) * sigma_step * _TAIL_SHRINK * z_max)
        chains.append(profile.first_capture_s + dev_total
                      + (dedup_mean if dedup is not None else 0.0))
    makespan = max(chains)

    total_mb = n_devices * B * mb_per_batch
    bandwidth = total_mb / max(1, math.ceil(makespan))

    return MeanFieldCell(
        platform=config.name, n_devices=n_devices, bandwidth_mbs=bandwidth,
        task_p99_s=task_p99, makespan_s=makespan,
        details={
            "batches_per_device": float(B),
            "flight_s": profile.flight_s,
            "cloud_fraction": f_cloud,
            "recognition_tier": tier,
            "uplink_backlog_s": uplink_backlog,
            "controller_backlog_s": ctrl_backlog,
            "invoker_backlog_s": invoker_backlog,
            "couch_backlog_s": couch_backlog,
            "couch_rho": couch_rho,
            "device_work_per_capture_s": float(
                f_edge * edge_exec_mean + obstacle_mean),
            "mb_per_batch": mb_per_batch,
        })


def synthetic_stream(platform: Union[str, object],
                     scenario: Union[str, ScenarioSpec],
                     n_devices: int, cell_index: int,
                     device_id_base: int, total_devices: int,
                     seed: int = 0,
                     constants: Optional[PaperConstants] = None,
                     slots: int = 64):
    """Price one mean-field cell's *cloud-bound load* as weighted
    synthetic arrival streams for the sharded cloud tier (hybrid runs).

    Instead of simulating the cell's ``n_devices * B`` tasks, the cell's
    mission-long demand is compressed into at most ``slots`` synthetic
    cloud calls (:class:`~repro.serverless.wire.Calls` rows), each carrying
    ``weight = total_tasks / slots`` tasks' worth of service time and
    payload — total core-seconds, storage bytes, and wireless megabytes
    are conserved exactly, while per-call granularity is coarse (the
    point: a 100k-device background fleet prices into a few thousand
    calls). The cloud/edge admission split, edge filtering, and the
    dedup-only shape of edge-executed batches all mirror the exact
    runner's boundary-submit sites.

    Returns ``(calls, meter_events)``: the calls in canonical
    (arrival, cell, seq) order flagged ``synthetic`` (the region
    gateway serves them without straggler mitigation and counts them as
    background completions), and the wireless-meter events
    ``(time, megabytes)`` the cell's uploads/result pushes would have
    recorded.
    """
    from ..platforms import platform_config
    from ..serverless.wire import Calls
    config = (platform_config(platform) if isinstance(platform, str)
              else platform)
    if isinstance(scenario, str):
        from ..apps import SCENARIO_A, SCENARIO_B
        scenario = {s.key: s for s in (SCENARIO_A, SCENARIO_B)}[scenario]
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    if slots <= 0:
        raise ValueError("slots must be positive")
    base = constants if constants is not None else DEFAULT
    cst = base.scaled_for_swarm(total_devices)
    profile = flight_profile(cst)
    B = max(1, profile.batches)
    _, f_cloud = _admission(config, scenario, total_devices, cst)

    app = scenario.recognition
    dedup = scenario.dedup
    upload_mb = config.upload_mb(app, app.input_mb)
    total_tasks = n_devices * B
    K = max(1, min(int(slots), total_tasks))
    weight = total_tasks / K
    n_cloud = round(K * f_cloud)

    rng = np.random.default_rng([_RNG_SEED, seed, device_id_base])
    # Stratified arrivals over the capture span: one slot per stratum,
    # jittered inside it, so the aggregate stream has the mission's
    # arrival envelope at any slot count.
    span = max(profile.last_capture_s - profile.first_capture_s, 0.0)
    arrivals = np.sort(profile.first_capture_s
                       + (np.arange(K) + rng.random(K)) / K * span)
    is_cloud = rng.permutation(
        np.arange(K) < n_cloud) if 0 < n_cloud < K else (
        np.full(K, n_cloud >= K))

    # One (arrival, recognition draw, dedup draw, input MB, output MB)
    # row per call; a dedup-only call has no recognition draw.
    rows = []
    meter_events = []
    for slot in range(K):
        arrival = float(arrivals[slot])
        if is_cloud[slot]:
            recognition_s = weight * float(rng.lognormal(
                math.log(app.cloud_service_s), app.service_sigma))
            dedup_s = (weight * float(rng.lognormal(
                math.log(dedup.cloud_service_s), dedup.service_sigma))
                if dedup is not None else None)
            rows.append((arrival, recognition_s, dedup_s,
                         upload_mb * weight, app.output_mb * weight))
            meter_events.append((arrival, upload_mb * weight))
        else:
            # Edge-executed batch: the result push still crosses the
            # wireless medium, and (for scenarios with an aggregate
            # stage) a dedup-only message still lands at the cloud tier.
            meter_events.append((arrival, app.output_mb * weight))
            if dedup is not None:
                dedup_s = weight * float(rng.lognormal(
                    math.log(dedup.cloud_service_s), dedup.service_sigma))
                rows.append((arrival, None, dedup_s, 0.1 * weight,
                             0.05 * weight))
    calls = Calls.build(cell_index, range(len(rows)),
                        *Calls.float_columns(rows), weight=weight,
                        synthetic=True)
    return calls, meter_events


def validate_cells(sizes: Sequence[int] = (16, 64, 256),
                   platforms: Sequence[str] = ("hivemind",
                                               "centralized_faas"),
                   scenario_keys: Sequence[str] = ("ScA", "ScB"),
                   tolerance_pct: float = 25.0,
                   seed: int = 0) -> List[Dict[str, object]]:
    """Compare aggregate cells against the exact runner (small N).

    Returns one row per (platform, scenario, size) with per-observable
    deviations; ``within`` is True when every observable lands inside
    ``tolerance_pct`` (the sweep-validation band).
    """
    # The exact leg bypasses the fig17 cell router on purpose: under
    # REPRO_MEANFIELD=1 the router returns this module's own estimates,
    # and a model-vs-itself comparison would validate nothing.
    from ..apps import SCENARIO_A, SCENARIO_B
    from ..platforms import ScenarioRunner, platform_config
    scenarios = {s.key: s for s in (SCENARIO_A, SCENARIO_B)}

    def exact_cell(platform: str, key: str, n: int):
        result = ScenarioRunner(
            platform_config(platform), scenarios[key], seed=seed,
            n_devices=n).run()
        bw_mean, _ = result.bandwidth_summary()
        return (bw_mean, result.task_latencies.p99,
                result.extras["makespan_s"])

    rows: List[Dict[str, object]] = []
    for platform in platforms:
        for key in scenario_keys:
            for n in sizes:
                exact = exact_cell(platform, key, n)
                model = predict_cell(platform, key, n).triple
                devs = [100.0 * (m - e) / e if e else 0.0
                        for m, e in zip(model, exact)]
                rows.append({
                    "platform": platform, "scenario": key, "devices": n,
                    "exact": exact, "model": model,
                    "deviation_pct": devs,
                    "within": all(abs(d) <= tolerance_pct for d in devs),
                })
    return rows
