"""Analytical queueing models for placement estimation and validation."""

from .queueing import (
    erlang_c,
    fork_join_response,
    lognormal_percentile,
    mm1_inflation,
    mmc_wait_time,
)

__all__ = [
    "mm1_inflation",
    "mmc_wait_time",
    "erlang_c",
    "fork_join_response",
    "lognormal_percentile",
]
