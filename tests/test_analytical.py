"""Tests for the closed-form queueing models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytical import (
    erlang_c,
    fork_join_response,
    lognormal_percentile,
    mm1_inflation,
    mmc_wait_time,
)


class TestMM1:
    def test_zero_load_no_inflation(self):
        assert mm1_inflation(0.0) == 1.0

    def test_half_load(self):
        assert mm1_inflation(0.5) == pytest.approx(2.0)

    def test_saturation_capped(self):
        assert mm1_inflation(0.999) == 50.0
        assert mm1_inflation(5.0) == 50.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mm1_inflation(-0.1)

    @given(st.floats(0, 0.97))
    def test_monotone_in_load(self, rho):
        assert mm1_inflation(rho + 0.01) >= mm1_inflation(rho)


class TestErlangC:
    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(4, -1.0)

    def test_single_server_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.6) == pytest.approx(0.6)

    def test_saturated_always_waits(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 9.0) == 1.0

    def test_known_value(self):
        # Classic table value: c=2, offered=1 Erlang -> P(wait)=1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    @given(st.integers(1, 40), st.floats(0.01, 0.95))
    def test_probability_bounds(self, servers, rho):
        probability = erlang_c(servers, rho * servers)
        assert 0.0 <= probability <= 1.0

    @given(st.integers(1, 20), st.floats(0.1, 0.9))
    def test_more_servers_less_waiting(self, servers, rho):
        offered = rho * servers
        assert erlang_c(servers + 1, offered) <= \
            erlang_c(servers, offered) + 1e-12


class TestMMcWait:
    def test_no_load_no_wait(self):
        assert mmc_wait_time(4, 0.0, 1.0) == 0.0
        assert mmc_wait_time(4, 1.0, 0.0) == 0.0

    def test_saturated_infinite(self):
        assert mmc_wait_time(2, 4.0, 1.0) == float("inf")

    def test_wait_positive_under_load(self):
        wait = mmc_wait_time(2, 1.5, 1.0)
        assert wait > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            mmc_wait_time(2, -1, 1)

    @given(st.integers(1, 10), st.floats(0.1, 0.8))
    def test_wait_decreases_with_servers(self, servers, rho):
        arrival = rho * servers
        assert mmc_wait_time(servers + 2, arrival, 1.0) <= \
            mmc_wait_time(servers, arrival, 1.0) + 1e-12


class TestForkJoin:
    def test_single_way_is_service(self):
        assert fork_join_response(4.0, 1) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fork_join_response(1.0, 0)

    def test_fanout_reduces_latency(self):
        assert fork_join_response(8.0, 8) < 8.0

    def test_straggle_term_grows_with_ways(self):
        # Normalized by the ideal shard time, the join penalty grows.
        penalty4 = fork_join_response(1.0, 4) * 4
        penalty16 = fork_join_response(1.0, 16) * 16
        assert penalty16 > penalty4

    @given(st.floats(0.01, 100), st.integers(1, 64))
    def test_never_worse_than_serial(self, service, ways):
        assert fork_join_response(service, ways) <= service * 1.0001 or \
            ways == 1


class TestLognormalPercentile:
    def test_median_is_median(self):
        assert lognormal_percentile(3.0, 0.5, 50) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_percentile(0, 0.5, 50)
        with pytest.raises(ValueError):
            lognormal_percentile(1, 0.5, 0)
        with pytest.raises(ValueError):
            lognormal_percentile(1, 0.5, 100)

    def test_p99_known_value(self):
        # exp(sigma * z99), z99 = 2.3263...
        assert lognormal_percentile(1.0, 1.0, 99) == pytest.approx(
            math.exp(2.3263478740408408), rel=1e-4)

    def test_extreme_tails(self):
        low = lognormal_percentile(1.0, 0.5, 1)
        high = lognormal_percentile(1.0, 0.5, 99.9)
        assert low < 1.0 < high

    @given(st.floats(0.1, 10), st.floats(0.05, 1.5),
           st.floats(1, 98.9))
    def test_monotone_in_percentile(self, median, sigma, q):
        assert lognormal_percentile(median, sigma, q + 1) >= \
            lognormal_percentile(median, sigma, q)
