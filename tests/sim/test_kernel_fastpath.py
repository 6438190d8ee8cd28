"""Regression tests for the kernel fast paths.

The fast paths (slotted events, zero-delay FIFO lanes, pooled timeouts,
recycled callback lists) must preserve the documented dispatch contract —
(time, priority, insertion order) — exactly. These tests pin that contract
plus the bug fix that rode along: condition defusing of late constituent
failures (double-trigger detection is in ``test_kernel.py``).
"""

import pytest

from repro.sim import Environment, Event, Timeout
from repro.sim import kernel


pytestmark = pytest.mark.quick


class TestConditionDefuse:
    def test_late_loser_failure_does_not_crash_run(self):
        # any_of triggers on the fast event; the slow constituent then
        # fails *after* the condition was decided. The failure must be
        # defused (the condition result already propagated), not crash
        # the whole simulation as an unhandled failed event.
        env = Environment()
        fast = env.timeout(1, value="fast")
        loser = Event(env)

        def fail_later():
            yield env.timeout(5)
            loser.fail(RuntimeError("late failure"))

        def waiter():
            results = yield env.any_of([fast, loser])
            return list(results.values())

        env.process(fail_later())
        process = env.process(waiter())
        env.run()  # must not raise the loser's RuntimeError
        assert process.value == ["fast"]

    def test_failure_before_decision_still_propagates(self):
        env = Environment()
        never = Event(env)
        failing = Event(env)

        def fail_now():
            yield env.timeout(1)
            failing.fail(RuntimeError("boom"))

        def waiter():
            yield env.any_of([never, failing])

        env.process(fail_now())
        env.process(waiter())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()


class TestTimeoutPooling:
    def test_timeouts_are_recycled(self):
        env = Environment()

        def ticker():
            for _ in range(50):
                yield env.timeout(0.5)

        env.run(env.process(ticker()))
        assert env._timeout_pool  # consumed timeouts returned to the pool
        pooled = env._timeout_pool[-1]
        fresh = env.timeout(1.0, value="reused")
        assert fresh is pooled  # reissued, not reallocated

    def test_recycled_timeout_behaves_like_new(self):
        env = Environment()

        def ticker():
            for index in range(10):
                value = yield env.timeout(1.0, value=index)
                assert value == index
            return env.now

        assert env.run(env.process(ticker())) == 10.0

    def test_pool_is_bounded(self):
        env = Environment()

        def burst():
            yield env.all_of([env.timeout(0) for _ in range(1000)])

        env.run(env.process(burst()))
        assert len(env._timeout_pool) <= kernel._POOL_LIMIT


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
        assert env.dispatched >= 3


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
