"""Point-to-point serialized links.

A :class:`Link` is a one-way channel with finite bandwidth and a fixed
propagation/processing latency. Transfers serialize through the link FIFO,
so offered load beyond capacity queues — this is what produces the
saturation knees in Figs 3b and 17. Random loss is modeled as an expected
retransmission inflation of the serialization time (adequate for the
throughput/latency shapes the paper reports; we do not model per-packet
ARQ state).

The FIFO runs on a virtual clock (see DESIGN.md, "Virtual-clock
queueing"): the link keeps a ``free_at`` clock and computes each
transfer's queueing + serialization + propagation in closed form,
scheduling **one** kernel event per transfer (two for a queued transfer
on a lossy link, where the retry draw must wait for the grant instant to
preserve the shared RNG stream's draw order). Exact departure floats go
on the heap via ``Environment.timeout_at``, and the digest pins in
``tests/network/test_analytic_parity.py`` hold every departure exact.

The bandwidth meter records at **serialization end** (when the payload
leaves the wire), so utilization windows line up with the wire's busy
time instead of lagging it by the propagation latency.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from ..sim import Environment
from ..sim.accounting import tally
from ..telemetry import BandwidthMeter

__all__ = ["Link"]


class Link:
    """One-way channel: FIFO serialization at ``bandwidth_mbs`` + latency."""

    def __init__(self, env: Environment, name: str, bandwidth_mbs: float,
                 latency_s: float = 0.0, loss_rate: float = 0.0,
                 meter: Optional[BandwidthMeter] = None,
                 rng: Optional[np.random.Generator] = None,
                 contention_penalty: float = 0.0,
                 max_collapse: float = 2.5):
        if bandwidth_mbs <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not 0 <= loss_rate < 1:
            raise ValueError("loss rate must be in [0, 1)")
        if contention_penalty < 0 or max_collapse < 1:
            raise ValueError("invalid contention parameters")
        self.env = env
        self.name = name
        self.bandwidth_mbs = bandwidth_mbs
        #: Rated capacity; ``scale_capacity`` (chaos link degradation)
        #: derates ``bandwidth_mbs`` relative to this.
        self._nominal_mbs = bandwidth_mbs
        self.latency_s = latency_s
        self.loss_rate = loss_rate
        self.meter = meter
        self._rng = rng
        #: CSMA congestion collapse: with many stations backlogged the
        #: effective goodput degrades (collisions, exponential backoff).
        #: Each queued transfer inflates service by this fraction, capped
        #: at ``max_collapse``. Zero for wired links.
        self.contention_penalty = contention_penalty
        self.max_collapse = max_collapse
        #: Virtual clock: when the wire finishes its last accepted
        #: serialization.
        self._free_at = 0.0
        #: Deterministic links: pending serialization-start times, for
        #: the backlog (the wait-queue length) at each arrival.
        self._grants: deque = deque()
        #: Stochastic links: the gate armed for the next grant instant
        #: plus the unarmed FIFO behind it, and the current serializer's
        #: release slot — (serialization end, insertion id reserved at
        #: its grant) — where that gate fires.
        self._armed = None
        self._waiting: deque = deque()
        self._release = (0.0, 0)

    def scale_capacity(self, factor: float) -> None:
        """Derate (or restore) the link to ``factor`` × nominal bandwidth.

        Chaos link-degradation hook. Applies to transfers *granted* from
        now on; payloads already on the wire keep their committed
        serialization schedule (their service time was computed at grant).
        """
        if factor <= 0:
            raise ValueError("capacity factor must be positive")
        self.bandwidth_mbs = self._nominal_mbs * factor

    def serialization_time(self, megabytes: float) -> float:
        """Time on the wire for ``megabytes``, including expected loss."""
        base = megabytes / self.bandwidth_mbs
        if self.loss_rate:
            base /= (1.0 - self.loss_rate)
        return base

    def transfer(self, megabytes: float,
                 extra_delay_s: float = 0.0, trace=None) -> Generator:
        """Process: queue for the link, serialize, then propagate.

        Yields until the payload is fully delivered; returns the total
        seconds the transfer took (queueing + serialization + latency).
        ``extra_delay_s`` is a fixed post-propagation delay (e.g. the
        wireless base RTT) folded into the completion event so the
        caller does not pay a separate timeout.
        ``trace`` is an optional causal-trace context (``repro.obs``);
        when set, the transfer emits queue/serialize/propagate child
        spans at its (possibly closed-form) instants.
        """
        if megabytes < 0:
            raise ValueError("megabytes must be non-negative")
        if self._rng is not None and self.loss_rate:
            result = yield from self._transfer_stochastic(
                megabytes, extra_delay_s, trace)
            return result
        result = yield from self._transfer_deterministic(
            megabytes, extra_delay_s, trace)
        return result

    def _emit_transfer_spans(self, trace, start: float, grant_at: float,
                             ser_end: float, completion: float) -> None:
        """Record the queue/serialize/propagate split of one transfer.

        Called after the completion yield; the instants are known in
        closed form before the payload ever 'moves'.
        """
        if grant_at > start:
            trace.emit("queue", "network", start, grant_at, link=self.name)
        trace.emit("serialize", "network", grant_at, ser_end,
                   link=self.name)
        if completion > ser_end:
            trace.emit("propagate", "network", ser_end, completion,
                       link=self.name)

    # -- the two FIFO shapes ------------------------------------------------
    def _transfer_deterministic(self, megabytes: float,
                                extra_delay_s: float,
                                trace=None) -> Generator:
        """Closed-form FIFO: no RNG involved, so the grant instant is
        computable at arrival and one completion event suffices."""
        tally("network", 1)
        env = self.env
        start = env.now
        grants = self._grants
        while grants and grants[0] <= start:
            grants.popleft()
        backlog = len(grants)
        grant_at = self._free_at
        if grant_at < start:
            grant_at = start
        else:
            grants.append(grant_at)
        service = self.serialization_time(megabytes)
        if self.contention_penalty:
            service *= min(self.max_collapse,
                           1.0 + self.contention_penalty * backlog)
        ser_end = grant_at + service
        self._free_at = ser_end
        completion = ser_end + self.latency_s
        if extra_delay_s:
            completion = completion + extra_delay_s
        yield env.timeout_at(completion)
        if self.meter is not None:
            self.meter.record(ser_end, megabytes)
        if trace:
            self._emit_transfer_spans(trace, start, grant_at, ser_end,
                                      completion)
        return env.now - start

    def _transfer_stochastic(self, megabytes: float,
                             extra_delay_s: float, trace=None) -> Generator:
        """Lossy links draw their retry count from a stream *shared with
        the other wireless links*, so draws must happen at the grant
        instant in global grant order. A queued transfer parks on a gate
        event armed at the predecessor's *release slot* — its
        serialization end under an insertion id reserved at its grant
        dispatch, the heap position a service timeout scheduled there
        would occupy — so same-instant grants across links keep one
        fixed order. An idle link grants (and draws) inline at
        arrival."""
        env = self.env
        start = env.now
        backlog = ((1 if self._armed is not None else 0) +
                   len(self._waiting))
        if (self._armed is None and not self._waiting and
                self._free_at <= start):
            tally("network", 1)
            grant_at = start
        else:
            tally("network", 2)
            gate = env.event()
            if self._armed is None:
                # The current serializer's release slot is known: arm there.
                self._armed = gate
                when, eid = self._release
                env.succeed_at_key(gate, when, eid)
            else:
                self._waiting.append(gate)
            yield gate
            self._armed = None
            grant_at = env.now
        release_eid = env.reserve_eid()
        retries = self._rng.geometric(1.0 - self.loss_rate) - 1
        service = (megabytes / self.bandwidth_mbs) * (1 + retries)
        if self.contention_penalty:
            service *= min(self.max_collapse,
                           1.0 + self.contention_penalty * backlog)
        ser_end = grant_at + service
        self._free_at = ser_end
        self._release = (ser_end, release_eid)
        if self._waiting:
            follower = self._waiting.popleft()
            self._armed = follower
            env.succeed_at_key(follower, ser_end, release_eid)
        completion = ser_end + self.latency_s
        if extra_delay_s:
            completion = completion + extra_delay_s
        yield env.timeout_at(completion)
        if self.meter is not None:
            self.meter.record(ser_end, megabytes)
        if trace:
            self._emit_transfer_spans(trace, start, grant_at, ser_end,
                                      completion)
        return env.now - start
