"""Batched swarm stepping: one action heap, one kernel wake per instant.

The flight model is 1-second ticks along straight legs with a turn
penalty between legs. Run as one generator process per drone, it pushes
one kernel event through the heap per drone per simulated second; at
fig17 scale (hundreds to thousands of drones, all released at t=0 and
therefore tick-synchronized) that is O(N) events per instant carrying
O(1) of actual work each.

:class:`SwarmEngine` runs the same model off a single action heap:

- Each engine *wake* lands every device due at that instant, then steps
  each survivor with the one scalar kinematics helper,
  :func:`_step_toward`, that every leg start and tick uses.
- One kernel event is armed per **distinct** due instant, not per device:
  a synchronized 256-drone cohort costs one wake instead of 256 timeout
  dispatches.
- Every tick captures a frame batch: the paper's drones film the whole
  route, so there is no capture-free flight mode.
- The engine itself draws no randomness — drone jitter lognormals are
  scalar draws from the per-device ``runner.drone{i}`` streams
  (:meth:`~repro.sim.rng.RandomStreams.stream`), made by the devices, so
  engine wakes never touch a Generator.

Determinism contract: at fixed seeds a flight matches the digests pinned
from the retired per-tick path (``tests/edge/test_engine_parity.py``):
positions, timings, batch counts, energy ledgers and full scenario rows.
The engine holds them by

1. replaying the exact scalar arithmetic of the tick loop in
   :func:`_step_toward`: the same float expressions in the same order
   (leg distances are ``sqrt(dx*dx + dy*dy)``, not ``math.hypot``, which
   rounds differently);
2. assigning every armed action a monotone sequence number at arm time —
   the engine-internal mirror of the kernel's event id — and dispatching
   same-instant actions in sequence order, which reproduces per-process
   creation-order semantics (a turn armed before a tick keeps preceding
   it, ...);
3. arming each kernel wake with the same *delay* float a per-device
   ``timeout()`` would take, so wake instants are the exact same doubles
   as per-device arrival instants;
4. keeping every observable side effect — ``account_motion`` draws,
   ``world.advance`` calls, ``capture_batch``/``on_batch`` invocations,
   shared-RNG draw order, resource request order — in the same per-device
   order as a per-process dispatch sequence.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

from ..sim import Environment
from ..sim.accounting import tally
from .. import obs
from .drone import Drone
from .field import FieldWorld
from .sensors import FrameBatch

__all__ = ["SwarmEngine"]

Point = Tuple[float, float]
BatchCallback = Callable[[FrameBatch], None]

#: Action kinds on the engine heap. A tick is the landing of an in-flight
#: 1-second step; a turn is the end of an inter-leg turn penalty.
_TICK, _TURN = 0, 1

#: Distance below which a leg counts as complete.
_EPS = 1e-9


def _step_toward(position: Point, target: Point, speed: float):
    """One tick of flight from ``position`` toward ``target``.

    Returns ``(step_s, x, y)``: the tick's duration and the position it
    lands on, or ``None`` when the leg is already complete.
    """
    px, py = position
    dx = target[0] - px
    dy = target[1] - py
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < _EPS:
        return None
    step_s = min(1.0, dist / speed)
    step_m = speed * step_s
    frac = min(1.0, step_m / dist)
    return step_s, px + frac * dx, py + frac * dy


class _Flight:
    """Mutable per-route state for one device flown by the engine."""

    __slots__ = ("drone", "world", "on_batch", "waypoints", "wp_index",
                 "target", "event", "batches", "pending_s", "trace")

    def __init__(self, drone: Drone, world: FieldWorld,
                 on_batch: Optional[BatchCallback],
                 waypoints: List[Point], event) -> None:
        self.drone = drone
        self.world = world
        self.on_batch = on_batch
        self.waypoints = waypoints
        self.wp_index = 0
        #: Waypoint the current leg flies toward.
        self.target = waypoints[0]
        self.event = event
        self.batches = 0
        #: Duration of the step currently in flight (armed as a _TICK).
        self.pending_s = 0.0
        #: Causal trace handle for the whole route (NULL_CONTEXT when
        #: tracing is off).
        self.trace = obs.NULL_CONTEXT


class SwarmEngine:
    """Swarm stepper sharing one action heap per environment."""

    def __init__(self, env: Environment):
        self.env = env
        #: Pending actions: (time, seq, kind, flight). ``seq`` is unique,
        #: so heap order is exactly (time, seq) — the engine's mirror of
        #: the kernel's (time, priority, eid) dispatch order.
        self._actions: List = []
        self._seq = count()
        #: Absolute instants that already have a kernel wake scheduled.
        self._armed = set()

    # -- public API ---------------------------------------------------------
    def fly_route(self, drone: Drone, waypoints: List[Point],
                  world: FieldWorld,
                  on_batch: Optional[BatchCallback] = None):
        """Fly ``waypoints`` through the engine, capturing one batch per
        1-second tick and turning between legs.

        Returns an :class:`~repro.sim.Event` that succeeds with the number
        of batches captured when the final turn completes, or at the first
        tick landing after the drone fails.
        """
        event = self.env.event()
        if not waypoints:
            event.succeed(0)
            return event
        flight = _Flight(drone, world, on_batch, waypoints, event)
        flight.trace = obs.root_span("flight", "edge", self.env.now,
                                     device=drone.device_id,
                                     waypoints=len(waypoints))
        drone.position = waypoints[0]
        self._next_leg(flight)
        return event

    # -- scheduling ----------------------------------------------------------
    def _arm(self, delay: float, kind: int, flight: _Flight) -> None:
        """Arm one action ``delay`` seconds from now.

        The wake instant is computed with the same ``now + delay`` float
        expression the kernel uses, so engine actions land on exactly the
        doubles per-device timeouts would land on — and all actions
        sharing an instant share one kernel event.
        """
        time = self.env.now + delay
        heappush(self._actions, (time, next(self._seq), kind, flight))
        if time not in self._armed:
            self._armed.add(time)
            tally("edge", 1)
            wake = self.env.timeout(delay)
            wake.callbacks.append(self._wake)

    def _wake(self, _event) -> None:
        now = self.env.now
        self._armed.discard(now)
        actions = self._actions
        due = []
        while actions and actions[0][0] <= now:
            due.append(heappop(actions))
        index, n = 0, len(due)
        while index < n:
            if due[index][2] == _TURN:
                self._end_turn(due[index][3])
                index += 1
                continue
            stop = index + 1
            while stop < n and due[stop][2] == _TICK:
                stop += 1
            self._tick_cohort([entry[3] for entry in due[index:stop]])
            index = stop

    # -- ticks ------------------------------------------------------------
    def _tick_cohort(self, flights: List[_Flight]) -> None:
        """Land the in-flight step of every due flight, then arm the next.

        Phase 1 runs the per-tick landing sequence per device, in arm
        order: motion accounting, world clock, capture + callback. Phase 2
        then steps every survivor (or handles its leg boundary), again in
        arm order.
        """
        env = self.env
        now = env.now
        for flight in flights:
            drone = flight.drone
            step = flight.pending_s
            drone.account_motion(step)
            flight.world.advance(now)
            if step >= 0.5:
                batch = drone.camera.capture_batch(
                    drone.device_id, flight.world, drone.position, now,
                    duration_s=step)
                flight.batches += 1
                if flight.on_batch is not None:
                    flight.on_batch(batch)
        for flight in flights:
            if not flight.drone.alive:
                # Legacy loop-top `while self.alive` break: the landed tick
                # was accounted above, no turn follows, the route ends now.
                self._complete(flight)
                continue
            drone = flight.drone
            step = _step_toward(drone.position, flight.target,
                                drone.speed_mps)
            if step is None:
                self._end_of_leg(flight)
            else:
                self._advance_tick(flight, *step)

    def _advance_tick(self, flight: _Flight, step_s: float,
                      new_x: float, new_y: float) -> None:
        # Position moves at arm time, before the wait, so a capture at
        # the landing instant sees the already-moved position.
        flight.drone.position = (new_x, new_y)
        flight.pending_s = step_s
        self._arm(step_s, _TICK, flight)

    # -- leg boundaries ---------------------------------------------------
    def _end_of_leg(self, flight: _Flight) -> None:
        """Leg finished with the device alive: pay the turn penalty."""
        turn = flight.drone.constants.turn_time_s
        if turn > 0:
            self._arm(turn, _TURN, flight)
        else:
            self._next_leg(flight)

    def _end_turn(self, flight: _Flight) -> None:
        drone = flight.drone
        turn = drone.constants.turn_time_s
        # The turn completes (and is charged) even if the device died
        # mid-turn.
        drone.account_motion(turn)
        flight.world.advance(self.env.now)
        self._next_leg(flight)

    def _next_leg(self, flight: _Flight) -> None:
        """Enter the next leg, or finish the route."""
        drone = flight.drone
        waypoints = flight.waypoints
        while True:
            flight.wp_index += 1
            if flight.wp_index >= len(waypoints) or not drone.alive:
                self._complete(flight)
                return
            target = flight.target = waypoints[flight.wp_index]
            step = _step_toward(drone.position, target, drone.speed_mps)
            if step is None:
                # Zero-length leg: no tick, but the turn still applies.
                turn = drone.constants.turn_time_s
                if turn > 0:
                    self._arm(turn, _TURN, flight)
                    return
                continue
            self._advance_tick(flight, *step)
            return

    # -- completion --------------------------------------------------------
    def _complete(self, flight: _Flight) -> None:
        flight.trace.close(self.env.now, batches=flight.batches)
        flight.event.succeed(flight.batches)
