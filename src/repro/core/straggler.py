"""Straggler mitigation (paper section 4.6).

HiveMind tracks function progress; a function running past the 90th
percentile of its job's history is flagged and duplicated on a new server,
and whichever replica finishes first wins. Servers that repeatedly produce
stragglers go on probation for a few minutes.

:class:`StragglerMitigator` wraps the serverless platform's ``invoke``: it
keeps per-function latency history, arms a watchdog at the p90 threshold,
launches a duplicate when the watchdog fires, and returns the earliest
completion.

The primary, and later the duplicate, run as replicas started in place
(``Environment.start``); each settles a plain race event when its
activation returns, and the watchdog settles the first one if it fires
first (``Environment.settle``). The caller resumes inside the dispatch
where the winner returned, as ``yield from platform.invoke`` would
resume it.

The watchdogs cost no kernel event per activation. Each race files its
deadline under a reserved id, the key a per-activation watchdog timeout
would have had, on one heap per mitigator, and one alarm is armed at
the first key. When it rings it drops the races already decided, arms
at the next open one and settles its own race if that is still open.
So an alarm fires where its watchdog would have, and the watchdogs of
races decided in time never fire. One bare alarm at the latest deadline
ever filed, armed when no deadline is left open, ends a run at the
instant its last watchdog would have.
"""

from __future__ import annotations

import heapq
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..config import ControlConstants
from ..serverless import Invocation, InvocationRequest, OpenWhiskPlatform
from ..sim import Environment, Event
from ..sim.accounting import tally
from ..telemetry import MetricSeries

__all__ = ["StragglerMitigator"]


class StragglerMitigator:
    """p90 watchdog + duplicate-launch wrapper around a platform."""

    #: History needed before the watchdog arms (too little history makes
    #: p90 meaningless and would duplicate half the early tasks).
    MIN_HISTORY = 20
    #: Stragglers from one server within the window before probation.
    PROBATION_THRESHOLD = 3
    #: Multiplier on the p90 before the watchdog fires: by construction
    #: ~10% of healthy tasks exceed the p90, so a bare threshold would
    #: duplicate a tenth of all work (the paper notes the exact percentile
    #: is tuned per job importance).
    THRESHOLD_SLACK = 1.5

    def __init__(self, env: Environment, platform: OpenWhiskPlatform,
                 constants: Optional[ControlConstants] = None,
                 harden_races: bool = False):
        self.env = env
        self.platform = platform
        self.constants = constants or ControlConstants()
        #: Arm the race-hygiene fixes: strike the server that actually ran
        #: the losing primary (instead of the legacy scan over completed
        #: invocations, which misattributes under concurrency) and cancel
        #: the losing replica instead of letting it hold a container — and
        #: its memory — for the rest of a possibly very slow straggling
        #: execution. Off by default: both change which servers go on
        #: probation and hence the simulation's event stream, and the
        #: fault-free figures are pinned byte-for-byte; chaos runs arm
        #: them together with the rest of the recovery machinery.
        self.harden_races = harden_races
        self._history: Dict[str, MetricSeries] = {}
        self._strikes: Dict[str, int] = {}
        self.duplicates_launched = 0
        self.stragglers_detected = 0
        #: Every open race's (deadline, reserved id, race), decided ones
        #: dropped lazily when an alarm rings.
        self._deadlines: List[Tuple[float, int, Event]] = []
        #: Reserved ids with an alarm armed and not yet rung.
        self._armed: Set[int] = set()
        #: Latest deadline ever filed, and latest instant ever armed.
        self._last_deadline = float("-inf")
        self._alarm_horizon = float("-inf")

    def _series(self, function_name: str) -> MetricSeries:
        series = self._history.get(function_name)
        if series is None:
            series = MetricSeries(function_name)
            self._history[function_name] = series
        return series

    def threshold_for(self, function_name: str) -> Optional[float]:
        """The straggler threshold, or None while history is thin."""
        series = self._series(function_name)
        if len(series) < self.MIN_HISTORY:
            return None
        return (series.percentile(self.constants.straggler_percentile) *
                self.THRESHOLD_SLACK)

    def _record(self, invocation: Invocation) -> None:
        self._series(invocation.spec.name).add(invocation.latency_s)

    def _strike(self, server_id: str) -> None:
        """Count a straggler against its server; probation on repeat."""
        if not server_id:
            return
        self._strikes[server_id] = self._strikes.get(server_id, 0) + 1
        if self._strikes[server_id] >= self.PROBATION_THRESHOLD:
            for invoker in self.platform.invokers:
                if invoker.server.server_id == server_id:
                    invoker.server.put_on_probation(
                        self.constants.probation_s)
            self._strikes[server_id] = 0

    def invoke(self, request: InvocationRequest) -> Generator:
        """Invoke with straggler detection (``yield from`` it); returns
        the winning invocation."""
        threshold = self.threshold_for(request.spec.name)
        if threshold is None:
            result = yield from self.platform.invoke(request)
            self._record(result)
            return result
        env = self.env
        race = env.event()
        races = [race]
        # The deadline takes its id before the primary starts, where the
        # process race drew its watchdog timeout's: a tie at the
        # threshold keeps its dispatch order.
        self._watch(env.now + threshold, env.reserve_eid(), race)
        env.start(self._replica(request, races))
        result = yield race
        if result is not None:
            self._record(result)
            return result
        # Straggler: fire a duplicate on a different server and keep both
        # racing; use whichever finishes first (section 4.6).
        self.stragglers_detected += 1
        self.duplicates_launched += 1
        if request.trace:
            request.trace.emit("straggler_detected", "serverless",
                               self.env.now, self.env.now,
                               threshold_s=threshold)
        duplicate_request = InvocationRequest(
            spec=request.spec, service_s=request.service_s,
            input_mb=request.input_mb, output_mb=request.output_mb,
            parent=request.parent,
            colocate_with_parent=False,  # new server on purpose
            trace=request.trace)
        races.append(env.event())
        env.start(self._replica(duplicate_request, races))
        winner: Invocation = yield races[-1]
        self._record(winner)
        if winner.request is request:
            # The duplicate lost; the primary's server was fine after all.
            loser_request = duplicate_request
            loser_server = None
        else:
            # The duplicate won; the primary's placement was the straggler.
            # The request carries its own in-flight invocation record, so
            # the strike lands on the server that actually ran it (not on
            # whichever server last finished a same-named function).
            loser_request = request
            loser_server = (self._primary_server_hint(request)
                            if self.harden_races
                            else self._legacy_server_hint(request))
        if loser_server:
            self._strike(loser_server)
        self._reap_loser(loser_request)
        return winner

    def _watch(self, deadline: float, eid: int, race: Event) -> None:
        """File ``race``'s deadline under the key ``(deadline, eid)``; a
        new first key gets its own alarm."""
        deadlines = self._deadlines
        heapq.heappush(deadlines, (deadline, eid, race))
        if deadline > self._last_deadline:
            self._last_deadline = deadline
        if deadlines[0][1] == eid:
            self._arm(deadline, eid)

    def _arm(self, deadline: float, eid: int) -> None:
        """One kernel event at the key ``(deadline, eid)`` exactly, even
        when ``deadline`` is now: every key armed sorts after the event
        being dispatched (a later instant, or an id drawn after it)."""
        env = self.env
        alarm = env.event()
        alarm.callbacks.append(lambda _: self._ring(eid))
        tally("serverless", 1)
        env.succeed_at_key(alarm, deadline, eid)
        self._armed.add(eid)
        if deadline > self._alarm_horizon:
            self._alarm_horizon = deadline

    def _ring(self, eid: int) -> None:
        """The alarm armed at key ``eid`` rings: drop the decided
        deadlines ahead of the first live one, arm at that one, and
        settle the race the alarm was armed for if it is still open.

        No live deadline precedes the ringing key (each got its own
        alarm as the first key), so the ringing race, if still filed,
        is the first live entry. When no deadline is left, one bare
        alarm at the latest deadline ever filed keeps the run's last
        instant where one watchdog per activation left it. Settling is
        the last act: the caller's continuation runs beneath it.
        """
        self._armed.discard(eid)
        deadlines = self._deadlines
        fired = None
        while deadlines and (deadlines[0][1] == eid
                             or deadlines[0][2].triggered):
            _, head, race = heapq.heappop(deadlines)
            if head == eid and not race.triggered:
                fired = race
        if deadlines:
            deadline, head, _ = deadlines[0]
            if head not in self._armed:
                self._arm(deadline, head)
        elif self._last_deadline > max(self._alarm_horizon, self.env.now):
            tally("serverless", 1)
            self.env.timeout_at(self._last_deadline)
            self._alarm_horizon = self._last_deadline
        if fired is not None:
            self.env.settle(fired, True, None)

    def _replica(self, request: InvocationRequest,
                 races: List[Event]) -> Generator:
        """One replica of a raced activation, started in place: run it,
        then settle the race still open with its outcome.

        A decided race drops the outcome: a loser's result, or its
        failure (say ``ActivationCancelled`` from :meth:`_reap_loser`),
        reaches no one. Only ``Exception`` is caught, so a replica the
        garbage collector closes (``GeneratorExit``) resumes no one.
        Settling is the last act, so the waiter's continuation, which
        runs inside it, never re-enters a live replica frame.
        """
        try:
            outcome = yield from self.platform.invoke(request)
            ok = True
        except Exception as exc:
            outcome, ok = exc, False
        race = races[-1]
        if not race.triggered:
            self.env.settle(race, ok, outcome)

    def _reap_loser(self, loser_request: InvocationRequest) -> None:
        """Cancel the losing replica (when armed): its result is redundant,
        and letting it run to completion holds a container (and its
        memory) hostage for the rest of a possibly very slow straggling
        execution. Best-effort — a loser still upstream of its invoker
        just drains."""
        if not self.harden_races:
            return
        loser = loser_request.inflight
        if loser is None or loser.t_complete:
            return  # nothing in flight, or it finished in the same instant
        self.platform.cancel_invocation(loser)

    def _primary_server_hint(self, request: InvocationRequest
                             ) -> Optional[str]:
        """The server the primary actually landed on, once placed."""
        invocation = request.inflight
        if invocation is not None and invocation.server_id:
            return invocation.server_id
        return None

    def _legacy_server_hint(self, request: InvocationRequest
                            ) -> Optional[str]:
        """The original best-effort attribution: the most recent completed
        same-named invocation's server. Misattributes under concurrent
        invocations of one function, but the pinned fault-free figures
        encode the probation schedule it produces, so it stays the
        default until ``harden_races`` is armed."""
        for invocation in reversed(self.platform.invocations):
            if invocation.spec.name == request.spec.name and \
                    invocation.server_id:
                return invocation.server_id
        return None
