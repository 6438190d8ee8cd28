"""Cloud-bound calls cross every worker pipe as columns.

A sharded run moves calls on three legs: cell workers answer
``advance`` with the calls their cells submitted, the driver sends each
region worker a ``serve`` batch, and the region worker answers with the
served calls. Wrapping ``SupervisedConnection.send`` and ``collect``
records every message of two small cloud-sharded runs, one hybrid and
one with serving armed, and each leg must carry
:class:`~repro.serverless.wire.Calls` or
:class:`~repro.serverless.wire.Completions` made only of arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.platforms import platform_config
from repro.serverless.wire import Calls, Completions
from repro.sim import supervisor
from repro.sim.shard import run_sharded
from tests.sim.test_shard_determinism import scenario_variant


@pytest.fixture
def messages(monkeypatch):
    """``(command, argument, reply)`` of every request a run makes."""
    seen = []
    pending = {}  # handle -> its outstanding message
    send = supervisor.SupervisedConnection.send
    collect = supervisor.SupervisedConnection.collect

    def sending(self, command, argument):
        seen.append([command, argument, None])
        pending[self] = seen[-1]
        return send(self, command, argument)

    def collecting(self):
        reply = collect(self)
        pending.pop(self)[2] = reply
        return reply

    monkeypatch.setattr(supervisor.SupervisedConnection, "send", sending)
    monkeypatch.setattr(supervisor.SupervisedConnection, "collect",
                        collecting)
    return seen


def _columns(value, kind):
    assert type(value) is kind
    for name, column in zip(kind._fields, value):
        assert isinstance(column, np.ndarray), name
    return value


@pytest.mark.parametrize("arming", [
    {"exact_devices": 8},
    {"serving": "poisson:20"},
], ids=["hybrid", "serving"])
def test_every_leg_carries_columns(messages, arming):
    run_sharded(platform_config("hivemind"), scenario_variant("S1"), 16,
                seed=0, shards=2, cloud_shards=2, cell_devices=4,
                region_devices=8, **arming)
    legs = {"advance": 0, "serve": 0}
    for command, argument, reply in messages:
        if command == "advance":
            calls, _ = reply
            _columns(calls, Calls)
        elif command == "serve":
            assert argument, "a worker with nothing to serve gets no message"
            for _, calls in argument:
                assert len(_columns(calls, Calls).seq)
            _columns(reply, Completions)
        else:
            continue
        legs[command] += 1
    assert legs["advance"] and legs["serve"]
    synthetic = [calls.synthetic for command, argument, _ in messages
                 if command == "serve" for _, calls in argument]
    assert np.concatenate(synthetic).any()  # background load crossed too
