"""Straggler mitigation (paper section 4.6).

HiveMind tracks function progress; a function running past the 90th
percentile of its job's history is flagged and respawned on a new server,
and whichever replica finishes first wins. Servers that repeatedly produce
stragglers go on probation for a few minutes.

:class:`StragglerMitigator` wraps the serverless platform's ``invoke``: it
keeps per-function latency history, arms a watchdog at the p90 threshold,
launches a duplicate when the watchdog fires, and returns the earliest
completion.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..config import ControlConstants
from ..serverless import Invocation, InvocationRequest, OpenWhiskPlatform
from ..sim import Environment
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
        """Process: invoke with straggler detection; returns the winning
        invocation."""
        threshold = self.threshold_for(request.spec.name)
        primary = self.env.process(self.platform.invoke(request))
        if threshold is None:
            result = yield primary
            self._record(result)
            return result
        watchdog = self.env.timeout(threshold)
        outcome = yield self.env.any_of([primary, watchdog])
        if primary in outcome:
            result = outcome[primary]
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
        duplicate = self.env.process(
            self.platform.invoke(duplicate_request))
        final = yield self.env.any_of([primary, duplicate])
        winner: Invocation = next(iter(final.values()))
        self._record(winner)
        if primary in final:
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
