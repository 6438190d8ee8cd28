"""Property-based tests for the simulation kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, RandomStreams, Resource


class TestClockInvariants:
    @settings(max_examples=40)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=30))
    def test_clock_is_monotone(self, delays):
        env = Environment()
        observed = []

        def proc():
            for delay in delays:
                yield env.timeout(delay)
                observed.append(env.now)

        env.run(env.process(proc()))
        assert observed == sorted(observed)
        assert env.now == sum(delays)

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.01, 50, allow_nan=False), min_size=1,
                    max_size=20))
    def test_parallel_processes_end_at_max(self, delays):
        env = Environment()
        for delay in delays:
            env.process(iter_timeout(env, delay))
        env.run()
        assert env.now == max(delays)


def iter_timeout(env, delay):
    yield env.timeout(delay)


class TestResourceInvariants:
    @settings(max_examples=40)
    @given(st.integers(1, 8),
           st.lists(st.floats(0.01, 5, allow_nan=False), min_size=1,
                    max_size=40))
    def test_capacity_never_exceeded(self, capacity, holds):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        violations = []

        def user(hold):
            with resource.request() as grant:
                yield grant
                if resource.count > resource.capacity:
                    violations.append(resource.count)
                yield env.timeout(hold)

        for hold in holds:
            env.process(user(hold))
        env.run()
        assert not violations
        assert resource.count == 0  # everything released

    @settings(max_examples=40)
    @given(st.integers(1, 4),
           st.lists(st.floats(0.01, 3, allow_nan=False), min_size=2,
                    max_size=20))
    def test_work_conserving_total_time(self, capacity, holds):
        """A FIFO resource must finish no later than serial execution."""
        env = Environment()
        resource = Resource(env, capacity=capacity)

        def user(hold):
            with resource.request() as grant:
                yield grant
                yield env.timeout(hold)

        for hold in holds:
            env.process(user(hold))
        env.run()
        assert env.now <= sum(holds) + 1e-9


class TestRandomStreams:
    @given(st.integers(0, 2**31), st.text(min_size=1, max_size=30))
    def test_same_name_same_stream(self, seed, name):
        a = RandomStreams(seed)
        b = RandomStreams(seed)
        assert a.stream(name).random() == b.stream(name).random()

    def test_order_independence(self):
        a = RandomStreams(7)
        b = RandomStreams(7)
        first_a = a.stream("x").random()
        b.stream("y")  # touch another stream first
        first_b = b.stream("x").random()
        assert first_a == first_b

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_cached_stream_identity(self):
        streams = RandomStreams(1)
        assert streams.stream("s") is streams.stream("s")
