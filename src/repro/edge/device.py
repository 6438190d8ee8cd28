"""Edge device base: CPU, battery, radio accounting, liveness.

Both drones and robotic cars share this structure; the constants differ
(:class:`~repro.config.DroneConstants` vs :class:`~repro.config.
CarConstants`). Energy use is attributed to the paper's categories —
motion, on-board compute, radio TX/RX, idle — which is what Figs 1/14a/16b
aggregate.
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..sim import Environment, Timeout
from ..sim.accounting import tally
from ..telemetry import EnergyAccount

__all__ = ["EdgeDevice"]

Point = Tuple[float, float]


class EdgeDevice:
    """One battery-powered swarm member."""

    def __init__(self, env: Environment, device_id: str, *,
                 cpu_cores: int, battery_wh: float, motion_power_w: float,
                 compute_power_w: float, compute_idle_w: float,
                 radio_tx_w: float, radio_rx_w: float, radio_idle_w: float,
                 cloud_to_edge_slowdown: float,
                 rng: Optional[np.random.Generator] = None):
        if cpu_cores <= 0:
            raise ValueError("device needs at least one core")
        if cloud_to_edge_slowdown <= 0:
            raise ValueError("slowdown factor must be positive")
        self.env = env
        self.device_id = device_id
        #: On-board CPU contention runs on virtual clocks: a
        #: ``cpu_cores``-entry min-heap of core-free times yields each
        #: task's start instant in O(log cores) and one ``timeout_at``
        #: completes it. Exact because the service time is drawn
        #: *before* the core claim and FIFO multi-server grant order
        #: equals arrival order (same argument as the CouchDB store —
        #: see DESIGN.md, "Virtual-clock queueing").
        self._core_free: List[float] = [0.0] * cpu_cores
        self.energy = EnergyAccount(battery_wh, device=device_id)
        self.motion_power_w = motion_power_w
        self.compute_power_w = compute_power_w
        self.compute_idle_w = compute_idle_w
        self.radio_tx_w = radio_tx_w
        self.radio_rx_w = radio_rx_w
        self.radio_idle_w = radio_idle_w
        self.slowdown = cloud_to_edge_slowdown
        self._rng = rng
        self.position: Point = (0.0, 0.0)
        self.alive = True
        # Activity accounting for the lazy idle-draw settlement.
        self.busy_compute_s = 0.0
        self.radio_active_s = 0.0
        self.motion_s = 0.0
        self._mission_start: Optional[float] = None

    # -- lifecycle ------------------------------------------------------------
    def start_mission(self) -> None:
        self._mission_start = self.env.now

    def fail(self) -> None:
        """Device failure (crash, dead battery, lost link)."""
        self.alive = False

    def finalize_mission(self, end_time: Optional[float] = None) -> float:
        """Settle idle energy draws for the mission window; returns span.

        Charged lazily (rather than with per-second ticks) so that
        thousand-device simulations stay cheap: idle compute and idle radio
        power apply to whatever part of the mission the device was not busy.
        """
        if self._mission_start is None:
            raise RuntimeError(f"{self.device_id}: mission never started")
        end = end_time if end_time is not None else self.env.now
        span = max(0.0, end - self._mission_start)
        compute_idle_s = max(0.0, span - self.busy_compute_s)
        radio_idle_s = max(0.0, span - self.radio_active_s)
        self.energy.draw_power("idle",
                               self.compute_idle_w, compute_idle_s)
        self.energy.draw_power("idle", self.radio_idle_w, radio_idle_s)
        self._mission_start = None
        return span

    # -- compute ------------------------------------------------------------
    def edge_service_time(self, cloud_service_s: float,
                          slowdown: Optional[float] = None) -> float:
        """On-board duration of work that takes ``cloud_service_s`` on one
        cloud core, including mild device-side jitter (thermal throttling,
        background OS activity). ``slowdown`` overrides the device default
        for per-application slowdowns (a CNN suffers more than an SVM)."""
        base = cloud_service_s * (slowdown if slowdown is not None
                                  else self.slowdown)
        if self._rng is None:
            return base
        return base * float(self._rng.lognormal(0.0, 0.18))

    def reserve(self, cloud_service_s: float,
                slowdown: Optional[float] = None) -> Timeout:
        """Claim a core for a task now; return its completion timeout.

        Draws the task's service time, takes the earliest-free core and
        returns the ``timeout_at`` that fires when the task ends, valued
        with the edge seconds spent. The task's compute energy and
        ``busy_compute_s`` are charged by the timeout's first callback,
        ahead of whatever waits on it.
        """
        if cloud_service_s < 0:
            raise ValueError("service time must be non-negative")
        service = self.edge_service_time(cloud_service_s, slowdown)
        now = self.env.now
        free_at = heapq.heappop(self._core_free)
        end = (free_at if free_at > now else now) + service
        heapq.heappush(self._core_free, end)
        tally("edge")
        done = self.env.timeout_at(end, service)
        done.callbacks.append(self._charge_compute)
        return done

    def _charge_compute(self, done: Timeout) -> None:
        # A device that failed mid-service produced nothing; charging its
        # battery (and its busy-compute ledger) for the aborted work would
        # double-bill the post-mortem idle settlement.
        if self.alive:
            service = done.value
            self.busy_compute_s += service
            self.energy.draw_power(
                "compute", self.compute_power_w - self.compute_idle_w,
                service)

    def execute(self, cloud_service_s: float,
                slowdown: Optional[float] = None) -> Generator:
        """Process: run a task on-board; returns the edge seconds spent."""
        return (yield self.reserve(cloud_service_s, slowdown))

    # -- radio ------------------------------------------------------------
    def account_tx(self, airtime_s: float) -> None:
        """Charge transmit energy for ``airtime_s`` on the air."""
        if airtime_s < 0:
            raise ValueError("airtime must be non-negative")
        self.radio_active_s += airtime_s
        self.energy.draw_power("radio_tx",
                               self.radio_tx_w - self.radio_idle_w,
                               airtime_s)

    def account_rx(self, airtime_s: float) -> None:
        if airtime_s < 0:
            raise ValueError("airtime must be non-negative")
        self.radio_active_s += airtime_s
        self.energy.draw_power("radio_rx",
                               self.radio_rx_w - self.radio_idle_w,
                               airtime_s)

    # -- motion ------------------------------------------------------------
    def account_motion(self, seconds: float) -> None:
        """Charge motion power for ``seconds`` of movement."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.motion_s += seconds
        self.energy.draw_power("motion", self.motion_power_w, seconds)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "failed"
        return f"<EdgeDevice {self.device_id} {state}>"
