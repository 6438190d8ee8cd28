"""Platform assembly pins: every runner's rows, held to recorded digests.

The three runners, the two cloud gateways and the closed-form models
(mean-field, fig18, sweep) all turn a :class:`PlatformConfig` into the
same mechanisms: controller scale-out, the accelerated wireless MAC,
compiler placement, the filtered-upload cap, runtime remapping, and the
Cluster + remote memory + OpenWhisk + straggler stack. The md5 digests
below pin what each of those produced for all nine platforms at fixed
seeds, so any change to how a platform is assembled must leave every
row, breakdown, energy ledger, meter event and extra exactly where it
was.
"""

import hashlib
import math

import pytest

from repro.apps import (CAR_MAZE, SCENARIO_A, TREASURE_HUNT, all_apps,
                        app)
from repro.edge.meanfield import predict_cell, synthetic_stream
from repro.experiments import fig18_validation, sweep
from repro.faults import named_plan
from repro.platforms import (PLATFORMS, CarScenarioRunner, ScenarioRunner,
                             SingleTierRunner, platform_config)
from repro.telemetry import MetricSeries
from repro.telemetry.breakdown import COMPONENTS


def _plain(value):
    """A repr-stable stand-in for extras values (a bare MetricSeries
    repr carries its memory address)."""
    if isinstance(value, MetricSeries):
        return ("series", tuple(value.values), tuple(value.times))
    if isinstance(value, dict):
        return sorted((k, _plain(v)) for k, v in value.items())
    return value


def pin(result) -> str:
    """md5 of everything a run leaves behind."""
    records = result.breakdowns._records
    evidence = (
        tuple(result.task_latencies.values),
        tuple(result.task_latencies.times),
        tuple(sum(getattr(r, c) for r in records) for c in COMPONENTS),
        tuple(tuple(sorted(e.by_category().items()))
              for e in result.energy_accounts),
        tuple(result.wireless_meter.events),
        result.duration_s,
        repr(sorted((k, _plain(v)) for k, v in result.extras.items())),
    )
    return hashlib.md5(repr(evidence).encode()).hexdigest()


SINGLE_TIER_S4 = {
    "centralized_faas": "14c17cf2490478b076ca70f0b6af9c22",
    "centralized_iaas": "d03c21c88255e31c8b4526d13e41a268",
    "centralized_net_accel": "48f536e418bc5a62f2869759654eab7f",
    "centralized_net_remote": "48f536e418bc5a62f2869759654eab7f",
    "distributed_edge": "64a3c7fbbec2c1125e76163a7a5115d8",
    "distributed_net_accel": "dcb75ccd294a7e9a1d6ea5cabd5974b4",
    "hivemind": "3524c2a5b4c61c114f0f8674ae0094bd",
    "hivemind_no_accel": "8b2c71e04a4f50954d34f224ab837ac0",
    "hivemind_public_cloud": "8b2c71e04a4f50954d34f224ab837ac0",
}

SCENARIO_A_16 = {
    "centralized_faas": "54516c0aa25e0127f8be3a8835966a29",
    "centralized_iaas": "618806e68aa4f79525b4bfb284643166",
    "centralized_net_accel": "b627b29b91aa9024fbcd056fcc5cf389",
    "centralized_net_remote": "b627b29b91aa9024fbcd056fcc5cf389",
    "distributed_edge": "5594b6fa412bb8170c142ed38b4542b3",
    "distributed_net_accel": "a36dddbf1faa5acc01011b53bdc0da0d",
    "hivemind": "0596f192485c8d2148207d7c126ebe79",
    "hivemind_no_accel": "fc2fd3dea4542de10571cfa05021ea3b",
    "hivemind_public_cloud": "5598e4dd8da0115e68e8ffb4319ac883",
}

TREASURE_HUNT_PINS = {
    "centralized_faas": "030d156e2b1d93ed53e116c362273871",
    "centralized_iaas": "8d0905873424fdcb4c7f8d9335035ef0",
    "centralized_net_accel": "ffa5b4134a7c6a61c21a974643bb8cc6",
    "centralized_net_remote": "b3fe99f859bc979c6d844fe746dd6ee4",
    "distributed_edge": "a58ecedc6b1970b3b66069c9cb6c23b4",
    "distributed_net_accel": "a58ecedc6b1970b3b66069c9cb6c23b4",
    "hivemind": "74459a4fcad5be46745152c627ec59d6",
    "hivemind_no_accel": "23e30a5b0d4e3fac94585bb38e8dbde7",
    "hivemind_public_cloud": "199db956ee9abba059c32e95cfe75a7e",
}

CAR_MAZE_PINS = {
    "centralized_faas": "e7ea3b0fc8ae92d1a6f3ece087520664",
    "centralized_iaas": "66909edbb958d63a7aee75a529c6280b",
    "centralized_net_accel": "94135bbb2840fb43d00906a40447aba2",
    "centralized_net_remote": "94135bbb2840fb43d00906a40447aba2",
    "distributed_edge": "b13e9a8181d9622fd459bc8497274926",
    "distributed_net_accel": "b13e9a8181d9622fd459bc8497274926",
    "hivemind": "b82fa5aa0e5ae26f533a7ec1bd6468da",
    "hivemind_no_accel": "de7a78f5bf278b8cfb5661b4c6d4d9bd",
    "hivemind_public_cloud": "0899ef8fc02b384e8811809ff0c57f02",
}

CHAOS_S3_MIXED = "8184900a4e3c24999ee483e106b83a20"
CHAOS_S3_PARTITION_EDGE = "448ec93a24ec152a1ea62add12190218"
CHAOS_S3_PARTITION_IAAS = "1d0e6727b50868bf505e42463827b2fb"
FIG18_PREDICTIONS = "e8a2903c69e3584df34b42c1a45aba4e"
FIG18_ROWS = "ea7ef386cd74386b920f7a4fc84d0616"
SWEEP_ROWS = "5362a9153b690cd7bc155fbbf50f2728"
MEANFIELD_CELLS = "1826c63ef992887b058808516b02d924"
MEANFIELD_STREAMS = "eaa16cb0154941f789a4bcaab3ec1a79"


def test_every_platform_is_pinned():
    for table in (SINGLE_TIER_S4, SCENARIO_A_16, TREASURE_HUNT_PINS,
                  CAR_MAZE_PINS):
        assert sorted(table) == sorted(PLATFORMS)


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_single_tier_s4(name):
    result = SingleTierRunner(platform_config(name), app("S4"), seed=1,
                              duration_s=20).run()
    assert pin(result) == SINGLE_TIER_S4[name]


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_scenario_a_16(name):
    result = ScenarioRunner(platform_config(name), SCENARIO_A, seed=1,
                            n_devices=16).run()
    assert pin(result) == SCENARIO_A_16[name]


@pytest.mark.parametrize("name", sorted(PLATFORMS))
@pytest.mark.parametrize("scenario,pins", [
    (TREASURE_HUNT, TREASURE_HUNT_PINS), (CAR_MAZE, CAR_MAZE_PINS)],
    ids=["treasure_hunt", "maze"])
def test_car_scenarios(name, scenario, pins):
    result = CarScenarioRunner(platform_config(name), scenario,
                               seed=1).run()
    assert pin(result) == pins[name]


def test_chaos_run_with_hardened_straggler_races():
    """The one end-to-end run that arms the mitigator's race hardening."""
    result = SingleTierRunner(platform_config("hivemind"), app("S3"),
                              seed=0,
                              fault_plan=named_plan("mixed", 120.0)).run()
    assert result.extras["stragglers"] == 48
    assert result.extras["chaos"]["cancellations"] == 14
    assert result.extras["violations"] == 0
    assert pin(result) == CHAOS_S3_MIXED


@pytest.mark.parametrize("name,digest,recoveries", [
    # On-board tasks hold their computed result across the partition.
    ("distributed_edge", CHAOS_S3_PARTITION_EDGE, {"rpc_retry": 48}),
    # Reserved-pool tasks shed to the device once the retries run out.
    ("centralized_iaas", CHAOS_S3_PARTITION_IAAS,
     {"rpc_retry": 226, "shed": 106}),
])
def test_chaos_partition_paths(name, digest, recoveries):
    """The held edge upload and the shed after the IaaS-pool branch,
    which no fault-free digest and not the ``mixed`` run reach. The
    recovery counts, all above zero, prove the path ran."""
    result = SingleTierRunner(platform_config(name), app("S3"), seed=0,
                              duration_s=60,
                              fault_plan=named_plan("partition", 60.0)).run()
    assert result.extras["chaos"]["recoveries"] == recoveries
    assert result.extras["violations"] == 0
    assert pin(result) == digest


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


def _draw(seconds: float):
    """A service-draw column value; NaN (no such stage) reads as None."""
    return None if math.isnan(seconds) else seconds


def test_fig18_closed_form_predictions():
    predictions = [(spec.key, platform,
                    fig18_validation._predict(spec, platform))
                   for spec in all_apps()
                   for platform in fig18_validation.PLATFORMS]
    assert _digest(predictions) == FIG18_PREDICTIONS


def test_fig18_rows():
    """Simulated and predicted columns at a reduced sample count."""
    assert _digest(fig18_validation.run(min_samples=300).rows) == FIG18_ROWS


def test_sweep_rows():
    assert _digest(sweep.run().rows) == SWEEP_ROWS


def test_meanfield_cells():
    cells = []
    for name in sorted(PLATFORMS):
        if PLATFORMS[name].execution == "cloud_iaas":
            continue
        for key in ("ScA", "ScB"):
            for n in (16, 1024, 65536):
                cell = predict_cell(name, key, n)
                cells.append((name, key, n, cell.triple,
                              sorted(cell.details.items())))
    assert _digest(cells) == MEANFIELD_CELLS


def test_meanfield_synthetic_streams():
    streams = []
    for name in ("hivemind", "centralized_faas", "hivemind_public_cloud"):
        for key in ("ScA", "ScB"):
            calls, meter = synthetic_stream(name, key, 4096, 3, 12288,
                                            1 << 20, seed=2)
            # The tuples the object form carried: NaN draws were None.
            rows = zip(calls.cell.tolist(), calls.seq.tolist(),
                       calls.arrival_s.tolist(),
                       calls.recognition_s.tolist(),
                       calls.dedup_s.tolist(), calls.input_mb.tolist(),
                       calls.output_mb.tolist(), calls.weight.tolist())
            streams.append((name, key, [
                (cell, seq, arrival, _draw(recognition), _draw(dedup),
                 input_mb, output_mb, weight)
                for cell, seq, arrival, recognition, dedup, input_mb,
                output_mb, weight in rows], meter))
    assert _digest(streams) == MEANFIELD_STREAMS
