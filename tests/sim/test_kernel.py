"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        return env.now

    process = env.process(proc())
    assert env.run(process) == 3.0
    assert env.now == 3.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(1, value="payload")
        return value

    assert env.run(env.process(proc())) == "payload"


def test_run_until_time_advances_clock_past_last_event():
    env = Environment()

    def short():
        yield env.timeout(1)

    env.process(short())
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("slow", 2.0))
    env.process(worker("fast", 1.0))
    env.run()
    assert log == [(1.0, "fast"), (2.0, "slow")]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abc":
        env.process(worker(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 99

    def parent():
        result = yield env.process(child())
        return result + 1

    assert env.run(env.process(parent())) == 100


def test_process_waiting_on_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1)
        return "done"

    def parent(child_proc):
        yield env.timeout(5)
        result = yield child_proc
        return result

    child_proc = env.process(child())
    assert env.run(env.process(parent(child_proc))) == "done"
    assert env.now == 5


def test_uncaught_process_exception_propagates():
    env = Environment()

    def boom():
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(boom())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_caught_child_exception_does_not_crash():
    env = Environment()

    def boom():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(boom())
        except ValueError as exc:
            return str(exc)

    assert env.run(env.process(parent())) == "boom"


def test_event_succeed_and_value():
    env = Environment()
    event = env.event()

    def waiter():
        value = yield event
        return value

    def trigger():
        yield env.timeout(2)
        event.succeed("hello")

    env.process(trigger())
    assert env.run(env.process(waiter())) == "hello"


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter():
        try:
            yield event
        except KeyError:
            return "caught"

    def trigger():
        yield env.timeout(1)
        event.fail(KeyError("k"))

    env.process(trigger())
    assert env.run(env.process(waiter())) == "caught"


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_all_of_collects_all_values():
    env = Environment()
    timeouts = [env.timeout(t, value=t) for t in (1, 2, 3)]

    def waiter():
        results = yield env.all_of(timeouts)
        return sorted(results.values())

    assert env.run(env.process(waiter())) == [1, 2, 3]
    assert env.now == 3


def test_any_of_returns_on_first():
    env = Environment()
    fast = env.timeout(1, value="fast")
    slow = env.timeout(10, value="slow")

    def waiter():
        results = yield env.any_of([fast, slow])
        return list(results.values())

    assert env.run(env.process(waiter())) == ["fast"]
    assert env.now == 1


def test_all_of_empty_is_immediate():
    env = Environment()

    def waiter():
        results = yield env.all_of([])
        return results

    assert env.run(env.process(waiter())) == {}


def test_interrupt_raises_in_target():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def attacker(target):
        yield env.timeout(5)
        target.interrupt(cause="preempted")

    target = env.process(victim())
    env.process(attacker(target))
    assert env.run(target) == ("interrupted", "preempted", 5.0)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    process = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupted_process_can_rewait():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(3)
        return env.now

    def attacker(target):
        yield env.timeout(5)
        target.interrupt()

    target = env.process(victim())
    env.process(attacker(target))
    assert env.run(target) == 8.0


def test_run_until_event():
    env = Environment()
    event = env.event()

    def trigger():
        yield env.timeout(7)
        event.succeed("fired")

    env.process(trigger())
    assert env.run(until=event) == "fired"
    assert env.now == 7


def test_run_out_of_events_before_until_event():
    env = Environment()
    event = env.event()  # nobody will trigger it
    with pytest.raises(RuntimeError):
        env.run(until=event)


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(1)

    process = env.process(proc())
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(TypeError):
        env.run()


def test_nested_process_chain():
    env = Environment()

    def level(n):
        if n == 0:
            yield env.timeout(1)
            return 1
        result = yield env.process(level(n - 1))
        return result + 1

    assert env.run(env.process(level(10))) == 11


def test_caught_non_event_error_resumes_with_next_yield():
    env = Environment()
    seen = []

    def proc():
        try:
            yield 42
        except TypeError as error:
            seen.append(str(error))
        yield env.timeout(2.0)
        return env.now

    assert env.run(env.process(proc())) == 2.0
    assert seen == ["process yielded a non-event: 42"]


class TestStart:
    """``Environment.start``: a process with no start or end event."""

    def test_first_segment_runs_at_the_call(self):
        env = Environment()
        steps = []

        def proc():
            steps.append(("first", env.now))
            yield env.timeout(1.0)
            steps.append(("second", env.now))
            yield env.timeout(0.5)
            steps.append(("third", env.now))

        handle = env.start(proc())
        assert handle.is_alive
        assert steps == [("first", 0.0)]
        env.run()
        assert steps == [("first", 0.0), ("second", 1.0), ("third", 1.5)]
        assert not handle.is_alive
        # Only the two yielded timeouts: no Initialize, no completion.
        assert env.dispatched == 2

    def test_interrupt_runs_cleanup_as_a_process_would(self):
        """The same generator, interrupted as a Process and as a started
        handle, runs the same cleanup at the same instant; the started
        one saves exactly the Initialize and completion events."""

        def run(spawn):
            env = Environment()
            log = []

            def proc():
                try:
                    yield env.timeout(5.0)
                except Interrupt as interrupt:
                    log.append(("interrupted", interrupt.cause, env.now))
                    yield env.timeout(0.5)
                finally:
                    log.append(("cleanup", env.now))

            def killer(target):
                yield env.timeout(2.0)
                target.interrupt("crash")

            target = spawn(env, proc())
            env.process(killer(target))
            env.run()
            assert not target.is_alive
            return log, env.dispatched

        process_log, process_events = run(
            lambda env, gen: env.process(gen))
        started_log, started_events = run(
            lambda env, gen: env.start(gen))
        assert started_log == process_log == [
            ("interrupted", "crash", 2.0), ("cleanup", 2.5)]
        assert started_events == process_events - 2

    def test_is_alive_clears_at_the_end(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        handle = env.start(proc())
        env.run(until=0.5)
        assert handle.is_alive
        env.run()
        assert not handle.is_alive
        with pytest.raises(RuntimeError, match="terminated"):
            handle.interrupt()

    def test_ended_in_first_segment_is_dead(self):
        env = Environment()

        def proc():
            return
            yield

        assert not env.start(proc()).is_alive

    def test_waiting_on_the_handle_raises(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        handle = env.start(proc())

        def waiter():
            yield handle

        with pytest.raises(RuntimeError, match="no completion event"):
            env.process(waiter())
            env.run()
        with pytest.raises(RuntimeError, match="no completion event"):
            env.all_of([handle])
        with pytest.raises(RuntimeError, match="no completion event"):
            env.run(until=handle)

    def test_process_costs_two_more_events(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(0.5)

        env.process(proc())
        env.run()
        assert env.dispatched == 4

    def test_non_event_gets_type_error_thrown_in(self):
        env = Environment()
        seen = []

        def proc():
            try:
                yield "not an event"
            except TypeError as error:
                seen.append(str(error))
            yield env.timeout(1.0)
            seen.append(env.now)

        env.start(proc())
        assert seen == ["process yielded a non-event: 'not an event'"]
        env.run()
        assert seen[1:] == [1.0]

    def test_uncaught_non_event_error_raises_at_once(self):
        env = Environment()

        def proc():
            yield 42

        with pytest.raises(TypeError, match="non-event"):
            env.start(proc())

    def test_uncaught_exception_escapes_run(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.start(proc())
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 1.0

    def test_exception_before_first_yield_escapes_start(self):
        env = Environment()

        def proc():
            raise KeyError("early")
            yield env.timeout(1.0)

        with pytest.raises(KeyError):
            env.start(proc())
        assert env.dispatched == 0

    def test_processed_event_continues_at_once(self):
        env = Environment()
        done = env.timeout(1.0, value="payload")
        env.run()
        assert done.processed
        seen = []

        def proc():
            value = yield done
            seen.append((value, env.now))
            yield env.timeout(1.0)
            seen.append(env.now)

        env.start(proc())
        assert seen == [("payload", 1.0)]
        env.run()
        assert seen == [("payload", 1.0), 2.0]

    def test_failed_event_is_thrown_in_and_defused(self):
        env = Environment()
        caught = []

        def proc(event):
            try:
                yield event
            except RuntimeError as error:
                caught.append((str(error), env.now))

        event = env.event()
        env.start(proc(event))
        event.fail(RuntimeError("lost"))
        env.run()
        assert caught == [("lost", 0.0)]

    def test_rejects_non_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.start(lambda: None)
