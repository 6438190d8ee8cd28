"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        log = []

        def user(name):
            with res.request() as req:
                yield req
                log.append((env.now, name))
                yield env.timeout(1)

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [(0, "a"), (0, "b")]

    def test_queueing_beyond_capacity(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(name, hold):
            with res.request() as req:
                yield req
                log.append((env.now, name))
                yield env.timeout(hold)

        env.process(user("a", 5))
        env.process(user("b", 1))
        env.run()
        assert log == [(0, "a"), (5, "b")]

    def test_utilization_and_count(self, env):
        res = Resource(env, capacity=4)

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        for _ in range(3):
            env.process(user())
        env.run(until=1)
        assert res.count == 3
        assert res.utilization == 0.75

    def test_release_without_grant_rejected(self, env):
        res = Resource(env)
        req = res.request()
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert not second.triggered
        second.cancel()
        res.release(first)
        env.run()
        assert not second.triggered

    def test_resize_grows_grants_waiters(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        assert first.triggered and not second.triggered
        res.resize(2)
        assert second.triggered

    def test_resize_shrink_does_not_evict(self, env):
        res = Resource(env, capacity=2)
        first = res.request()
        second = res.request()
        res.resize(1)
        assert res.count == 2
        third = res.request()
        res.release(first)
        assert not third.triggered  # still at capacity 1 with one user
        res.release(second)
        assert third.triggered
