"""Regression tests for the kernel's dispatch contract.

Every event fires in (time, priority, insertion order) order, including
the primitives that pick their own heap position: ``timeout_at``,
``reserve_eid``/``succeed_at_key`` and ``URGENT``
interrupts; ``succeed_next`` resumes in place exactly where the
dispatch it saves would have. These tests pin that contract, that only
the run loop sets the clock, and condition defusing of late constituent
failures (double-trigger detection is in ``test_kernel.py``).
"""

import ast
import pathlib

import pytest

from repro.sim import Environment, Event, Interrupt, Timeout
from repro.sim import kernel


pytestmark = pytest.mark.quick


class TestConditionDefuse:
    def test_late_loser_failure_does_not_crash_run(self):
        # all_of fails on the first failing constituent; a second one
        # then fails *after* the condition was decided. That failure
        # must be defused (the condition's result already propagated),
        # not crash the whole simulation as an unhandled failed event.
        env = Environment()
        first = Event(env)
        late = Event(env)

        def fail_both():
            yield env.timeout(1)
            first.fail(RuntimeError("first failure"))
            yield env.timeout(5)
            late.fail(RuntimeError("late failure"))

        def waiter():
            try:
                yield env.all_of([first, late])
            except RuntimeError as error:
                return str(error)

        env.process(fail_both())
        process = env.process(waiter())
        env.run()  # must not raise the late RuntimeError
        assert process.value == "first failure"
        assert env.now == 6

    def test_failure_before_decision_still_propagates(self):
        env = Environment()
        done = env.timeout(1, value="done")
        failing = Event(env)

        def fail_now():
            yield env.timeout(2)
            failing.fail(RuntimeError("boom"))

        def waiter():
            yield env.all_of([done, failing])

        env.process(fail_now())
        env.process(waiter())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()


class TestTimeouts:
    def test_each_timeout_resumes_with_its_own_value(self):
        env = Environment()

        def ticker():
            for index in range(10):
                value = yield env.timeout(1.0, value=index)
                assert value == index
            return env.now

        assert env.run(env.process(ticker())) == 10.0


def _marker(env, order, event, tag):
    """Log ``(now, tag)`` when ``event`` is dispatched."""
    event.callbacks.append(lambda _: order.append((env.now, tag)))
    return event


class TestDispatchOrderContract:
    def test_zero_delay_fifo_matches_insertion_order(self):
        env = Environment()
        order = []
        events = [Event(env) for _ in range(5)]
        # Succeed out of storage order: dispatch must follow trigger
        # (insertion) order, not creation order.
        for index in (3, 0, 4, 1, 2):
            events[index].callbacks.append(
                lambda e, i=index: order.append(i))
            events[index].succeed()
        env.run()
        assert order == [3, 0, 4, 1, 2]

    def test_same_instant_heap_and_fifo_interleave_by_insertion(self):
        env = Environment()
        order = []

        def schedule():
            # A delayed timeout landing at t=1 ...
            def late():
                yield env.timeout(1)
                order.append("heap")
            env.process(late())

            def zero_after():
                yield env.timeout(1)
                yield env.timeout(0)
                order.append("fifo")
            env.process(zero_after())
            yield env.timeout(0)

        env.process(schedule())
        env.run()
        # Both resume at t=1; the zero-delay leg was scheduled *at* t=1
        # and therefore dispatches after the pre-scheduled heap event.
        assert order == ["heap", "fifo"]

    def test_events_consumed_counter_advances(self):
        before = kernel.events_consumed()
        env = Environment()

        def proc():
            yield env.timeout(1)
            yield env.timeout(1)

        env.run(env.process(proc()))
        assert kernel.events_consumed() - before >= 3

    def test_timeout_at_now_or_past_fires_after_events_due_now(self):
        env = Environment()
        order = []

        def proc():
            wake = env.timeout(2.0)
            _marker(env, order, env.timeout(2.0), "due-delayed")
            yield wake
            _marker(env, order, env.timeout(0), "due-zero")
            _marker(env, order, env.timeout_at(1.0), "past")
            _marker(env, order, env.timeout_at(2.0), "present")
            _marker(env, order, env.timeout(0), "zero-after")
            _marker(env, order, env.timeout(0.5), "later")

        env.process(proc())
        env.run()
        assert order == [(2.0, "due-delayed"), (2.0, "due-zero"),
                         (2.0, "past"), (2.0, "present"),
                         (2.0, "zero-after"), (2.5, "later")]

    def test_reserved_eid_fires_between_neighbours_of_its_reservation(self):
        env = Environment()
        order = []
        first = _marker(env, order, env.timeout(1.0), "before")
        # Scheduled at t=1, so after everything reserved before t=1.
        first.callbacks.append(
            lambda _: _marker(env, order, env.timeout(0), "zero-at-1"))
        eid = env.reserve_eid()
        _marker(env, order, env.timeout(1.0), "after")
        gate = _marker(env, order, env.event(), "reserved")
        env.succeed_at_key(gate, 1.0, eid)
        env.run()
        assert order == [(1.0, "before"), (1.0, "reserved"),
                         (1.0, "after"), (1.0, "zero-at-1")]

    def test_reserved_key_at_now_keeps_its_id(self):
        # Reserved at t=0 between two timeouts due at t=1; armed at t=1,
        # during the first one's dispatch: it keeps the reserved id, so
        # it fires before the second timeout.
        env = Environment()
        order = []
        first = _marker(env, order, env.timeout(1.0), "first")
        eid = env.reserve_eid()
        _marker(env, order, env.timeout(1.0), "second")
        gate = _marker(env, order, env.event(), "reserved")
        first.callbacks.append(
            lambda _: env.succeed_at_key(gate, 1.0, eid))
        env.run()
        assert order == [
            (1.0, "first"), (1.0, "reserved"), (1.0, "second")]

    def test_reserved_key_in_the_past_raises(self):
        env = Environment()
        eid = env.reserve_eid()
        env.run(until=1.0)
        with pytest.raises(ValueError):
            env.succeed_at_key(env.event(), 0.5, eid)

    @staticmethod
    def _signal_run(signal, due_now):
        """Two waiters on a gate, signalled at t=1 as the last act of a
        timeout's dispatch, with (``due_now``) or without another event
        already due then. Returns the dispatch log, the events the run
        dispatched, and what ``signal`` returned."""
        env = Environment()
        order = []
        gate = env.event()
        returned = []

        def waiter(tag):
            value = yield gate
            order.append((env.now, tag, value))
            _marker(env, order, env.timeout(0), f"{tag}-zero")

        def signaller():
            wake = env.timeout(1.0)
            if due_now:
                _marker(env, order, env.timeout(1.0), "due")
            _marker(env, order, env.timeout(2.0), "later")
            yield wake
            returned.append(signal(env, gate))

        env.start(waiter("a"))
        env.start(waiter("b"))
        env.start(signaller())
        before = kernel.events_consumed()
        env.run()
        return order, kernel.events_consumed() - before, returned[0]

    def test_succeed_next_with_nothing_due_resumes_in_place(self):
        # The same log as the scheduled twin, one event fewer.
        order, events, scheduled = self._signal_run(
            lambda env, gate: env.succeed_next(gate, "v"), due_now=False)
        twin, twin_events, _ = self._signal_run(
            lambda env, gate: gate.succeed("v"), due_now=False)
        assert scheduled is False
        assert order == twin == [
            (1.0, "a", "v"), (1.0, "b", "v"), (1.0, "a-zero"),
            (1.0, "b-zero"), (2.0, "later")]
        assert events == twin_events - 1

    def test_succeed_next_with_something_due_schedules_like_succeed(self):
        order, events, scheduled = self._signal_run(
            lambda env, gate: env.succeed_next(gate, "v"), due_now=True)
        twin, twin_events, _ = self._signal_run(
            lambda env, gate: gate.succeed("v"), due_now=True)
        assert scheduled is True
        assert order == twin
        assert order[:3] == [(1.0, "due"), (1.0, "a", "v"),
                             (1.0, "b", "v")]
        assert events == twin_events

    def test_urgent_interrupt_preempts_normal_events_due_now(self):
        env = Environment()
        order = []

        def victim():
            try:
                yield env.timeout(5.0)
            except Interrupt:
                order.append((env.now, "interrupted"))

        def killer(target):
            wake = env.timeout(1.0)
            _marker(env, order, env.timeout(1.0), "due-delayed")
            yield wake
            _marker(env, order, env.timeout(0), "due-zero")
            target.interrupt()

        env.process(killer(env.process(victim())))
        env.run()
        assert order == [(1.0, "interrupted"), (1.0, "due-delayed"),
                         (1.0, "due-zero")]


class TestSeedStability:
    @staticmethod
    def _trace(seed):
        """A workload touching timeouts, conditions and shared events."""
        from repro.sim import RandomStreams
        env = Environment()
        rng = RandomStreams(seed).stream("fastpath")
        trace = []

        def worker(wid):
            for _ in range(20):
                delay = float(rng.uniform(0, 2))
                yield env.timeout(delay)
                trace.append((round(env.now, 9), wid))

        for wid in range(5):
            env.process(worker(wid))
        env.run()
        return trace

    def test_same_seed_same_trace(self):
        assert self._trace(42) == self._trace(42)

    def test_different_seed_different_trace(self):
        assert self._trace(1) != self._trace(2)


class TestSlots:
    def test_events_reject_arbitrary_attributes(self):
        env = Environment()
        event = Event(env)
        with pytest.raises(AttributeError):
            event.arbitrary = 1
        timeout = Timeout(env, 1.0)
        with pytest.raises(AttributeError):
            timeout.arbitrary = 1


class TestClockOwner:
    ROOT = pathlib.Path(__file__).resolve().parents[2]
    #: Program files, as in ``tests/test_module_callers.py``.
    PROGRAM_DIRS = ("src", "examples", "bench", "scripts")

    def test_only_the_kernel_sets_the_clock(self):
        """``Environment.now`` is a plain attribute the run loop writes,
        so a store anywhere else would move the clock unseen by every
        dispatch-order guarantee."""
        kernel_file = self.ROOT / "src" / "repro" / "sim" / "kernel.py"
        stores = []
        for directory in self.PROGRAM_DIRS:
            for path in sorted((self.ROOT / directory).rglob("*.py")):
                if path == kernel_file:
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    stored = (isinstance(node, ast.Attribute)
                              and node.attr == "now"
                              and isinstance(node.ctx, (ast.Store, ast.Del)))
                    set_by_name = (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("setattr", "delattr")
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == "now")
                    if stored or set_by_name:
                        stores.append(
                            f"{path.relative_to(self.ROOT)}:{node.lineno}")
        assert stores == []
