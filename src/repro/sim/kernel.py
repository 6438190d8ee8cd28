"""Discrete-event simulation kernel.

This module is the substrate every HiveMind model runs on. It implements a
generator-based process model in the style of SimPy (which is not available
offline), with the pieces the rest of the repository needs:

- :class:`Environment` — event loop with a virtual clock.
- :class:`Event` — one-shot occurrence with callbacks and a value.
- :class:`Timeout` — event that fires after a virtual-time delay.
- :class:`Process` — wraps a generator; ``yield``-ing an event suspends the
  process until that event fires. A process is itself an event that succeeds
  with the generator's return value. :meth:`Environment.start` runs a
  generator nothing waits on through the same resume loop, without the
  start and completion events.
- :class:`Condition` / :func:`Environment.all_of` / :func:`Environment.any_of`
  — composite waits.
- :class:`Interrupt` — exception thrown into a process by
  :meth:`Process.interrupt`.

Time is a ``float`` in **seconds**. Determinism: events scheduled for the
same instant fire in (priority, insertion-order) order, so repeated runs with
the same seeds produce identical traces.

Fast paths
----------
The kernel is the hot loop of every experiment, so it trades a little
internal complexity for throughput while keeping the exact
(time, priority, insertion-order) dispatch order:

- All event classes use ``__slots__``; hot checks read ``_value``/``_ok``
  directly instead of going through properties.
- Zero-delay schedules (process starts, ``succeed``/``fail``, resource
  grants — the overwhelming majority) bypass the heap entirely: they land on
  per-priority FIFOs for the *current instant*. Insertion ids are still
  drawn from the same counter as heap entries, so merging the FIFOs with
  the heap reproduces the heap-only order bit for bit while cutting
  ``heapq`` traffic to the genuinely delayed events.
- Processed :class:`Timeout` objects and spent callback lists are recycled
  through small per-environment pools when (and only when) nothing else
  holds a reference, so the dominant yield-timeout-resume cycle allocates
  nothing in steady state.
- :meth:`Environment.run` executes one *monomorphic inlined dispatch
  loop*: pop-next, dispatch and recycling fused into one frame with a
  single merged decision tree per event, so an event costs no Python
  call of its own and the FIFOs/heap are inspected once.

:func:`events_consumed` exposes a process-wide dispatch counter for
events/sec accounting in the benchmark harness.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "events_consumed",
]

#: Scheduling priority for interrupts and other must-run-first events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_PENDING = object()

#: Maximum number of recycled callback lists / Timeout objects kept per
#: environment. Small: pools only need to cover the events in flight at
#: one instant.
_POOL_LIMIT = 128

#: Process-wide count of dispatched events (all environments). A plain
#: one-element list so the per-event increment is a cheap item write.
_CONSUMED = [0]


def events_consumed() -> int:
    """Total events dispatched in this process since import.

    Monotone counter across all :class:`Environment` instances; the
    benchmark harness samples it before/after a run to derive events/sec.
    """
    return _CONSUMED[0]


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupt ``cause`` (an arbitrary object supplied by the caller of
    :meth:`Process.interrupt`) is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once a value (or an
    exception) is attached and it is scheduled, and *processed* after its
    callbacks have run. Callbacks are ``callable(event)``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        pool = env._list_pool
        self.callbacks: Optional[List[Callable[["Event"], None]]] = (
            pool.pop() if pool else [])
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = True

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded; valid only once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception raised at its ``yield``.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._defused = False
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires ``delay`` seconds of virtual time in the future."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        pool = env._list_pool
        self.callbacks = pool.pop() if pool else []
        self._ok = True
        self._value = value
        self._defused = True
        self._delay = delay
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


#: Outcome a started generator is first resumed with: ``send(None)``.
_GO = Event.__new__(Event)
_GO.callbacks = None
_GO._ok = True
_GO._value = None
_GO._defused = True


class Initialize(Event):
    """Immediate event that starts a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        pool = env._list_pool
        if pool:
            callbacks = pool.pop()
            callbacks.append(process._resume)
        else:
            callbacks = [process._resume]
        self.callbacks = callbacks
        self._ok = True
        self._value = None
        self._defused = True
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator advances whenever the event it yielded fires; yielding a
    failed event re-raises the failure inside the generator. The process is
    itself an event: it succeeds with the generator's ``return`` value, or
    fails with its uncaught exception (unless another process is waiting on
    it, the exception propagates and crashes the simulation, which keeps bugs
    loud).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        pool = env._list_pool
        self.callbacks = pool.pop() if pool else []
        self._value = _PENDING
        self._ok = None
        self._defused = True
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None or isinstance(self._target, Initialize):
            raise RuntimeError("cannot interrupt a process before it starts")
        # Detach from whatever the process is waiting on, then resume it
        # urgently with the interrupt as a failure.
        if self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        hoax = Event(self.env)
        hoax._ok = False
        hoax._value = Interrupt(cause)
        hoax._defused = True
        hoax.callbacks.append(self._resume)
        self.env._schedule(hoax, URGENT)
        self._target = hoax

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._end(True, stop.value)
                break
            except BaseException as exc:
                self._end(False, exc)
                break
            if not isinstance(next_event, Event):
                # Thrown through the handlers above, so a generator that
                # catches it resumes with what it yields next, and one
                # that does not ends with it like any uncaught error.
                event = Event.__new__(Event)
                event._ok = False
                event._value = TypeError(
                    f"process yielded a non-event: {next_event!r}")
                continue
            if next_event.callbacks is not None:
                # Pending (or triggered-but-unprocessed): wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: loop immediately with its outcome.
            event = next_event

    def _end(self, returned: bool, value: Any) -> None:
        """The generator returned ``value`` (``returned``) or raised it:
        fire the process as an event so waiters resume."""
        self._ok = returned
        self._value = value
        self._defused = returned
        self.env._schedule(self, NORMAL)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} {'alive' if self.is_alive else 'dead'}>"


class _NoWaiters:
    """Callback list of a started process: adding a waiter raises.

    A started process fires no completion event, so a process yielding
    it, a condition over it or ``run(until=...)`` on it would never
    resume; each of them appends a callback first, and this refuses it.
    """

    __slots__ = ()

    def append(self, callback: Callable[[Event], None]) -> None:
        raise RuntimeError(
            "a started process fires no completion event; "
            "use Environment.process to wait on it")


_NO_WAITERS = _NoWaiters()


class _Started(Process):
    """A process nothing waits on, started by :meth:`Environment.start`.

    It shares :class:`Process`'s resume loop and :meth:`~Process.interrupt`
    but costs no kernel event of its own: the first segment runs at the
    call instead of at an ``Initialize`` event, and the end fires
    nothing; it only clears :attr:`~Process.is_alive`. With no waiter to
    hand it to, an uncaught exception raises where the generator raised
    it, inside ``start`` or the dispatch loop, which is as loud as an
    undefused failed process.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = _NO_WAITERS
        self._value = _PENDING
        self._ok = None
        self._defused = True
        self._generator = generator
        self._target = None

    def _end(self, returned: bool, value: Any) -> None:
        self._ok = returned
        self._value = value
        if not returned:
            raise value


class Condition(Event):
    """Waits on multiple events; fires per ``evaluate(events, count)``.

    The condition's value is an ordered ``dict`` mapping each *triggered*
    constituent event to its value.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env: "Environment",
                 evaluate: Callable[[List[Event], int], bool],
                 events: Iterable[Event]):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            # Already triggered (e.g. an any_of that picked a winner), but a
            # late-failing constituent still needs defusing or its failure
            # would crash the whole simulation with nobody left to catch it.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # Only events that have actually *fired* (callbacks ran) belong in
        # the result; a Timeout carries its value from creation but has not
        # occurred until processed.
        return {e: e._value for e in self._events
                if e.callbacks is None and e._ok}


class Environment:
    """The simulation environment: clock plus event loop.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    """

    #: Pops the next delayed event off the heap; :meth:`run` binds it
    #: once per call. The clock only moves here, so an observer that
    #: replaces it on an instance (``InvariantChecker.attach_kernel``)
    #: sees every clock change, and an unobserved run pays nothing.
    _heappop = staticmethod(heapq.heappop)

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Heap of (time, priority, eid, event) — *delayed* events only.
        self._queue: List = []
        #: Per-priority FIFOs of (eid, event) due at the current instant.
        #: Zero-delay schedules always carry the largest eid issued so far,
        #: so appending keeps each FIFO sorted by eid and the three sources
        #: merge back into exact (time, priority, eid) order.
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._eid = itertools.count()
        #: Recycled callback lists / Timeout objects (see module docstring).
        self._list_pool: List[list] = []
        self._timeout_pool: List[Timeout] = []
        #: Events dispatched by this environment.
        self.dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool and delay >= 0:
            timeout = pool.pop()
            lpool = self._list_pool
            timeout.callbacks = lpool.pop() if lpool else []
            timeout._ok = True
            timeout._value = value
            timeout._defused = True
            timeout._delay = delay
            self._schedule(timeout, NORMAL, delay)
            return timeout
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Timeout firing at the *absolute* time ``when`` with ``value``.

        ``timeout(when - now)`` re-derives the target as ``now + (when -
        now)``, which need not equal ``when`` in float64; analytic models
        that precompute exact departure instants (virtual-clock queues)
        need the exact float on the heap. ``when`` at or before ``now``
        fires at the current instant, in FIFO order.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            lpool = self._list_pool
            timeout.callbacks = lpool.pop() if lpool else []
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
        timeout._ok = True
        timeout._value = value
        timeout._defused = True
        timeout._delay = when - self._now
        self._schedule_at(timeout, NORMAL, when)
        return timeout

    def reserve_eid(self) -> int:
        """Draw an insertion id *now* for an event scheduled later.

        The virtual-clock queue models use this to pin a wake-up to the
        heap position a service timeout scheduled here would occupy,
        which fixes the same-instant dispatch order the queueing digest
        pins record. Reserving without scheduling is harmless: ordering
        depends only on relative ids, so gaps in the sequence never
        reorder anything.
        """
        return next(self._eid)

    def succeed_at_eid(self, event: Event, when: float, eid: int) -> Event:
        """Trigger ``event`` at ``when`` under a *reserved* insertion id.

        ``when`` at or before ``now`` falls back to a fresh zero-delay
        schedule — the current-instant FIFOs require monotone ids.
        """
        if event._value is not _PENDING:
            raise RuntimeError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = None
        if when <= self._now:
            self._schedule(event, NORMAL)
        else:
            heapq.heappush(self._queue, (when, NORMAL, eid, event))
        return event

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def start(self, generator: Generator) -> Process:
        """Run ``generator`` as a process that nothing waits on.

        It runs now, up to its first ``yield``, and then resumes exactly
        as a :class:`Process` would, but it schedules no ``Initialize``
        and no completion event. The returned handle can be interrupted
        and reports :attr:`~Process.is_alive`, but it is not an event
        anyone can wait on: yielding it, putting it in a condition or
        running until it raises ``RuntimeError``. An uncaught exception
        propagates at once: out of this call during the first segment,
        out of :meth:`run` after it.

        Starting at the call instead of at an ``Initialize`` event draws
        every id and random number of the first segment earlier, so a
        spawn site may switch from :meth:`process` only where that
        leaves its dispatch order unchanged (see DESIGN.md, kernel
        determinism contract).
        """
        process = _Started(self, generator)
        process._resume(_GO)
        return process

    def all_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, Condition.all_events, events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, Condition.any_events, events)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay == 0.0:
            if priority == NORMAL:
                self._normal.append((next(self._eid), event))
            elif priority == URGENT:
                self._urgent.append((next(self._eid), event))
            else:
                # Exotic priorities go through the heap, whose comparison
                # against the FIFOs preserves the total order.
                heapq.heappush(self._queue,
                               (self._now, priority, next(self._eid), event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, priority, next(self._eid),
                            event))

    def _schedule_at(self, event: Event, priority: int, when: float) -> None:
        """Schedule ``event`` at the absolute instant ``when`` (exact
        float; no ``now + delay`` round trip). Past instants clamp to the
        current-instant FIFOs."""
        if when <= self._now:
            self._schedule(event, priority)
        else:
            heapq.heappush(self._queue,
                           (when, priority, next(self._eid), event))

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        Returns the event's value when ``until`` is an event.
        """
        if until is None:
            stop_at = float("inf")
        elif isinstance(until, Event):
            if until.callbacks is None:
                return until.value
            until.callbacks.append(self._stop_callback)
            stop_at = float("inf")
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})")
        try:
            self._run_loop(stop_at)
        except StopSimulation as stop:
            return stop.args[0]
        if not isinstance(until, Event):
            # Advance the clock to the requested horizon even if the event
            # queue drained earlier, so `run(120)` always ends at t=120.
            if stop_at != float("inf"):
                self._now = max(self._now, stop_at)
            return None
        if until._value is _PENDING:
            raise RuntimeError("run() ran out of events before `until` fired")
        return until.value

    def _run_loop(self, stop_at: float) -> None:
        """Dispatch events in (time, priority, eid) order until the
        queues drain or the heap head passes ``stop_at``.

        Processed :class:`Timeout` objects and spent callback lists are
        recycled when, by refcount, only this frame still holds them:
        nothing else can observe a pooled object.
        """
        urgent = self._urgent
        normal = self._normal
        queue = self._queue
        timeout_pool = self._timeout_pool
        list_pool = self._list_pool
        consumed = _CONSUMED
        heappop = self._heappop
        while True:
            # -- pop next (merged stop test + source selection) ----------
            if urgent:
                fifo = urgent
                fifo_priority = URGENT
            elif normal:
                fifo = normal
                fifo_priority = NORMAL
            else:
                fifo = None
            if queue:
                head = queue[0]
                if fifo is None:
                    if head[0] > stop_at:
                        break
                    # `head = None` drops the alias to the popped heap
                    # tuple so the recycling refcount checks below see
                    # only this frame's reference.
                    self._now, _, _, event = heappop(queue)
                    head = None
                elif (head[0] == self._now and
                        (head[1] < fifo_priority or
                         (head[1] == fifo_priority and
                          head[2] < fifo[0][0]))):
                    self._now, _, _, event = heappop(queue)
                    head = None
                else:
                    head = None
                    event = fifo.popleft()[1]
            elif fifo is None:
                break
            else:
                event = fifo.popleft()[1]
            # -- dispatch ------------------------------------------------
            callbacks = event.callbacks
            event.callbacks = None
            self.dispatched += 1
            consumed[0] += 1
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # Nobody caught this failure: crash loudly.
                raise event._value
            # -- recycling: refs here are the loop local plus
            # getrefcount's argument.
            if len(list_pool) < _POOL_LIMIT and getrefcount(callbacks) == 2:
                callbacks.clear()
                list_pool.append(callbacks)
            if (type(event) is Timeout and
                    len(timeout_pool) < _POOL_LIMIT and
                    getrefcount(event) == 2):
                event._value = _PENDING
                timeout_pool.append(event)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = True
        raise event._value
