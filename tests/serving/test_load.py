"""Open-loop load generator: spec grammar, arrival shapes, determinism.

The contract (repro.serving.load): arrival streams are pure functions
of ``(seed, tenant spec, duration)`` — identical across process
restarts and independent of everything else in the run — and every
call is tenant-tagged synthetic traffic priced from the scenario's
recognition app.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.apps import SCENARIO_A
from repro.serving.load import (SERVING_CELL_BASE, TenantSpec,
                                arrival_times, generate_serving_calls,
                                parse_serving_spec)
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.quick


class TestSpecGrammar:
    def test_bare_arm_value_is_one_default_tenant(self):
        for spec in ("1", "on", "true"):
            tenants = parse_serving_spec(spec)
            assert len(tenants) == 1
            assert tenants[0].kind == "poisson"

    def test_full_grammar(self):
        tenants = parse_serving_spec(
            "poisson:200,onoff:80:flash:0.5,diurnal:40")
        assert [t.kind for t in tenants] == ["poisson", "onoff",
                                             "diurnal"]
        assert tenants[0].rate_rps == 200.0
        assert tenants[1].name == "flash"
        assert tenants[1].weight == 0.5

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_serving_spec("poisson:10:users,onoff:5:users")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_serving_spec("weibull:10")

    @pytest.mark.parametrize("spec, match", [
        ("poisson:nan", "rate must be a positive finite number"),
        ("poisson:inf", "rate must be a positive finite number"),
        ("poisson:10:a:nan", "weight must be a positive finite number"),
        ("poisson:abc", "could not convert"),
        ("poisson:0", "rate must be a positive finite number"),
        ("poisson:200:a:1:junk", "too many fields"),
    ])
    def test_bad_numbers_name_the_tenant_and_spec(self, spec, match):
        with pytest.raises(ValueError, match=match) as error:
            parse_serving_spec(f"onoff:5:crowd,{spec}")
        assert repr(spec) in str(error.value)
        assert repr(f"onoff:5:crowd,{spec}") in str(error.value)

    @pytest.mark.parametrize("field", ["rate_rps", "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_tenant_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="positive finite"):
            TenantSpec(name="users", **{field: value})

    def test_environment_path_rejects_non_finite(self, monkeypatch):
        from repro.platforms import platform_config
        from repro.sim.shard import run_sharded
        monkeypatch.setenv("REPRO_SERVING", "poisson:nan")
        with pytest.raises(ValueError, match="'poisson:nan'"):
            run_sharded(platform_config("hivemind"), SCENARIO_A, 16,
                        cell_devices=4, region_devices=8)

    def test_spec_errors_name_the_variable_on_the_environment_path(
            self, monkeypatch):
        from repro.platforms import platform_config
        from repro.sim.shard import run_sharded
        monkeypatch.setenv("REPRO_SERVING", "poisson:abc")
        with pytest.raises(ValueError, match=(
                r"^REPRO_SERVING=poisson:abc: bad tenant 'poisson:abc' "
                r"in serving spec")):
            run_sharded(platform_config("hivemind"), SCENARIO_A, 16,
                        cell_devices=4, region_devices=8)
        # An API argument keeps the grammar's own message.
        monkeypatch.delenv("REPRO_SERVING")
        with pytest.raises(ValueError, match=(
                r"^bad tenant 'poisson:abc' in serving spec")):
            run_sharded(platform_config("hivemind"), SCENARIO_A, 16,
                        cell_devices=4, region_devices=8,
                        serving="poisson:abc")


class TestSegments:
    def test_poisson_is_one_flat_segment(self):
        tenant = TenantSpec(name="u", rate_rps=40.0)
        assert tenant.segments(60.0) == [(0.0, 60.0, 40.0)]

    def test_onoff_mean_rate_is_preserved(self):
        tenant = TenantSpec(name="u", kind="onoff", rate_rps=40.0,
                            burst_mult=8.0, on_s=10.0, off_s=30.0)
        segments = tenant.segments(400.0)
        mass = sum((end - start) * rate for start, end, rate in segments)
        assert mass == pytest.approx(40.0 * 400.0, rel=1e-9)

    def test_onoff_burst_onset_is_deterministic(self):
        tenant = TenantSpec(name="u", kind="onoff", off_s=30.0)
        assert tenant.burst_start_s == 30.0
        with pytest.raises(ValueError):
            TenantSpec(name="u", kind="poisson").burst_start_s

    def test_diurnal_mean_rate_is_preserved(self):
        tenant = TenantSpec(name="u", kind="diurnal", rate_rps=40.0)
        segments = tenant.segments(240.0)
        assert len(segments) == 24
        mass = sum((end - start) * rate for start, end, rate in segments)
        assert mass == pytest.approx(40.0 * 240.0, rel=1e-9)


class TestDeterminism:
    def test_same_seed_same_arrivals(self):
        tenant = TenantSpec(name="u", rate_rps=50.0)
        draws = []
        for _ in range(2):
            rng = RandomStreams(7).stream("serving.u")
            times, truncated = arrival_times(tenant, 30.0, rng)
            draws.append((tuple(times), truncated))
        assert draws[0] == draws[1]
        assert len(draws[0][0]) > 0

    def test_different_tenants_draw_different_streams(self):
        a = arrival_times(TenantSpec(name="a", rate_rps=50.0), 30.0,
                          RandomStreams(7).stream("serving.a"))[0]
        b = arrival_times(TenantSpec(name="b", rate_rps=50.0), 30.0,
                          RandomStreams(7).stream("serving.b"))[0]
        assert tuple(a) != tuple(b)

    def test_calls_identical_across_process_restarts(self):
        """Fixed seed => the exact same calls in a fresh interpreter."""
        script = (
            "import hashlib, sys\n"
            "from repro.apps import SCENARIO_A\n"
            "from repro.serving.load import TenantSpec, "
            "generate_serving_calls\n"
            "tenants = (TenantSpec(name='u', rate_rps=40.0),"
            " TenantSpec(name='f', kind='onoff', rate_rps=10.0))\n"
            "calls, _ = generate_serving_calls(tenants, 20.0, 11,"
            " SCENARIO_A, n_regions=2)\n"
            "payload = repr([column.tolist() for column in calls])"
            ".encode()\n"
            "print(hashlib.md5(payload).hexdigest())\n")
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        digests = {
            subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True,
                           check=True, env=env).stdout.strip()
            for _ in range(2)}
        assert len(digests) == 1

    def test_calls_are_canonically_ordered_and_tagged(self):
        tenants = (TenantSpec(name="u", rate_rps=40.0),
                   TenantSpec(name="f", kind="onoff", rate_rps=10.0))
        calls, truncated = generate_serving_calls(
            tenants, 20.0, 11, SCENARIO_A, n_regions=2)
        assert truncated == []
        keys = list(zip(calls.arrival_s.tolist(), calls.cell.tolist(),
                        calls.seq.tolist()))
        assert keys == sorted(keys)
        assert set(calls.tenant.tolist()) == {0, 1}  # u, f
        assert calls.synthetic.all()
        assert (calls.cell >= SERVING_CELL_BASE).all()
        assert (calls.recognition_s > 0).all()
        assert set(calls.region.tolist()) == {0, 1}

    def test_per_tenant_cap_is_reported_not_silent(self):
        tenants = (TenantSpec(name="hot", rate_rps=500.0),)
        calls, truncated = generate_serving_calls(
            tenants, 10.0, 0, SCENARIO_A, max_calls=100)
        assert truncated == ["hot"]
        assert len(calls.seq) == 100
