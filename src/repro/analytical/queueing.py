"""Closed-form queueing approximations.

Two users:

1. The HiveMind compiler's placement estimator (section 4.2) — predicting
   each execution model's latency/power/bandwidth without running it.
2. The simulator-validation experiment (Fig 18) — the paper validates its
   event simulator against the real testbed; lacking hardware, we validate
   the event simulator against these independent analytical predictions.

The models are standard: M/M/1 and M/M/c waiting-time formulas, a
square-root tail inflation for lognormal service, and a fork-join
approximation for intra-task parallelism.
"""

from __future__ import annotations

import math

__all__ = [
    "mm1_inflation",
    "mmc_wait_time",
    "erlang_c",
    "fork_join_response",
    "lognormal_percentile",
]


#: Ceiling of :func:`mm1_inflation`.
MM1_CAP = 50.0


def mm1_inflation(utilization: float) -> float:
    """Mean response-time inflation 1/(1-rho) for an M/M/1 queue.

    Capped at :data:`MM1_CAP` so infeasible operating points stay finite
    and comparable instead of dividing by zero.
    """
    if utilization < 0:
        raise ValueError("utilization must be non-negative")
    if utilization >= 1.0 - 1.0 / MM1_CAP:
        return MM1_CAP
    return 1.0 / (1.0 - utilization)


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arrival waits (M/M/c).

    ``offered_load`` is lambda/mu in Erlangs; must be < servers for a
    stable queue (returns 1.0 at or beyond saturation).
    """
    if servers <= 0:
        raise ValueError("servers must be positive")
    if offered_load < 0:
        raise ValueError("offered load must be non-negative")
    if offered_load >= servers:
        return 1.0
    # Iterative Erlang-B then convert, numerically stable for large c.
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = (offered_load * blocking) / (k + offered_load * blocking)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mmc_wait_time(servers: int, arrival_hz: float,
                  service_s: float) -> float:
    """Mean queueing wait of an M/M/c system (excludes service)."""
    if arrival_hz < 0 or service_s < 0:
        raise ValueError("rates/times must be non-negative")
    if service_s == 0 or arrival_hz == 0:
        return 0.0
    offered = arrival_hz * service_s
    if offered >= servers:
        return float("inf")
    wait_probability = erlang_c(servers, offered)
    return wait_probability * service_s / (servers - offered)


def fork_join_response(service_s: float, ways: int,
                       sigma: float = 0.25) -> float:
    """Approximate response time of a task forked ``ways`` wide.

    Each shard takes service/ways; the join waits for the max of ``ways``
    lognormal shards, approximated with the classic sqrt(2 ln n) extreme-
    value growth term.
    """
    if ways < 1:
        raise ValueError("ways must be at least 1")
    shard = service_s / ways
    if ways == 1:
        return shard
    straggle = math.exp(sigma * math.sqrt(2.0 * math.log(ways)))
    return shard * straggle


def lognormal_percentile(median: float, sigma: float,
                         percentile: float) -> float:
    """Percentile of a lognormal distribution given its median."""
    if median <= 0:
        raise ValueError("median must be positive")
    if not 0 < percentile < 100:
        raise ValueError("percentile must be in (0, 100)")
    # Inverse CDF via the probit of the standard normal.
    z = _probit(percentile / 100.0)
    return median * math.exp(sigma * z)


def _probit(p: float) -> float:
    """Acklam's rational approximation of the standard normal inverse CDF."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) *
                             q + 1)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                r + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r +
                                   b[3]) * r + b[4]) * r + 1)
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
             q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) *
                          q + 1)
