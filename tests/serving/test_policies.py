"""Admission-control and autoscaler unit behavior.

These pin the decision rules directly (pure ``(t, backlog)`` /
``offer(...)`` sequences, no simulator), so a policy regression shows
up here before it perturbs the fig19 knee.
"""

import pytest

from repro.serving import (AdmissionConfig, AdmissionController,
                           AutoscaleConfig, InvokerAutoscaler,
                           ServingConfig, ServingPolicy, TenantSpec)
from repro.serving.autoscale import reaction_s

pytestmark = pytest.mark.quick


class TestAdmissionBounds:
    def test_default_bounds_derive_from_cores(self):
        assert AdmissionConfig().resolved(8) == (16, 32)
        # Tiny clusters still get a usable queue.
        assert AdmissionConfig().resolved(1) == (8, 16)

    def test_explicit_bounds_win(self):
        assert AdmissionConfig(queue_bound=5,
                               hard_bound=9).resolved(64) == (5, 9)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionConfig(queue_bound=10, hard_bound=10).resolved(8)


class TestAdmissionRegimes:
    def _gate(self, **kwargs):
        config = AdmissionConfig(queue_bound=4, hard_bound=8, **kwargs)
        return AdmissionController(config, cores=2)

    def test_underload_admits_everything(self):
        gate = self._gate()
        assert all(gate.offer(t, "users", 1.0, backlog=2,
                              est_delay_s=0.1)
                   for t in range(10))
        assert gate.total_shed == 0

    def test_hard_bound_sheds_background(self):
        gate = self._gate()
        assert not gate.offer(1.0, "users", 1.0, backlog=9,
                              est_delay_s=0.1)
        assert gate.shed == {"users": 1}
        assert gate.shed_samples == [(1.0, "users")]

    def test_delay_bound_sheds_background(self):
        gate = self._gate(delay_bound_s=0.5)
        assert not gate.offer(1.0, "users", 1.0, backlog=2,
                              est_delay_s=0.6)

    def test_swarm_calls_are_never_shed(self):
        gate = self._gate(delay_bound_s=0.5)
        for t in range(20):
            assert gate.offer(float(t), None, 1.0, backlog=10_000,
                              est_delay_s=1e9)
        assert gate.admitted == {"swarm": 20}
        assert gate.total_shed == 0

    def test_fair_trim_band_is_weight_proportional(self):
        """In the trim band a weight-3 tenant gets ~3x the slots of a
        weight-1 tenant, and the light tenant keeps its trickle."""
        gate = AdmissionController(
            AdmissionConfig(queue_bound=4, hard_bound=1000),
            cores=2, tenant_weights={"light": 1.0, "heavy": 3.0})
        for t in range(400):
            tenant = "light" if t % 2 == 0 else "heavy"
            gate.offer(float(t), tenant, 1.0, backlog=10,
                       est_delay_s=0.1)
        light, heavy = gate.admitted["light"], gate.admitted["heavy"]
        assert light > 0
        assert heavy / light == pytest.approx(3.0, rel=0.1)


class TestAutoscaler:
    def _scaler(self, **kwargs):
        defaults = dict(min_servers=1, scale_out_backlog=4,
                        scale_in_idle_s=30.0, cooldown_s=10.0,
                        provision_s=8.0)
        defaults.update(kwargs)
        return InvokerAutoscaler(AutoscaleConfig(**defaults),
                                 n_servers=4, cores_per_server=2)

    def test_scale_out_pays_provisioning_lag(self):
        scaler = self._scaler()
        scaler.observe(0.0, backlog=9)
        # Decided at t=0 (9 > 4*1): target = ceil(9/4) = 3 servers,
        # but capacity is only online after provision_s.
        assert scaler.stats()["target"] == 3
        assert scaler.active(0.0) == 1
        assert scaler.active(8.0) == 3
        assert reaction_s(scaler.stats()["events"], 0.0) == 8.0

    def test_cooldown_damps_repeat_decisions(self):
        scaler = self._scaler()
        scaler.observe(0.0, backlog=9)
        scaler.observe(1.0, backlog=500)
        assert scaler.stats()["scale_outs"] == 1
        scaler.observe(11.0, backlog=500)
        assert scaler.stats()["scale_outs"] == 2

    def test_scale_in_requires_sustained_idle(self):
        scaler = self._scaler()
        scaler.observe(0.0, backlog=9)
        scaler.observe(20.0, backlog=0)
        scaler.observe(40.0, backlog=0)
        assert scaler.stats()["scale_ins"] == 0  # only 20 s idle
        scaler.observe(51.0, backlog=0)
        assert scaler.stats()["scale_ins"] == 1
        assert scaler.stats()["target"] == 2

    def test_busy_sample_resets_the_idle_clock(self):
        scaler = self._scaler()
        scaler.observe(0.0, backlog=9)
        scaler.observe(20.0, backlog=0)
        scaler.observe(35.0, backlog=6)  # busy again
        scaler.observe(60.0, backlog=0)
        assert scaler.stats()["scale_ins"] == 0

    def test_reaction_ignores_pre_burst_events(self):
        scaler = self._scaler()
        scaler.observe(0.0, backlog=9)
        assert reaction_s(scaler.stats()["events"], 5.0) is None
        scaler.observe(12.0, backlog=500)
        assert reaction_s(scaler.stats()["events"], 5.0) == pytest.approx(
            12.0 + 8.0 - 5.0)

    def test_pool_bounds_are_clamped(self):
        scaler = InvokerAutoscaler(AutoscaleConfig(min_servers=10),
                                   n_servers=4, cores_per_server=2)
        assert scaler.min_servers == 4
        with pytest.raises(ValueError):
            InvokerAutoscaler(AutoscaleConfig(), n_servers=0,
                              cores_per_server=2)


class TestServingPolicy:
    def test_sub_switches_disarm_independently(self):
        tenants = (TenantSpec(name="u"),)
        both = ServingPolicy(
            ServingConfig(tenants=tenants), n_servers=2,
            cores_per_server=4)
        assert both.admission is not None
        assert both.autoscaler is not None
        neither = ServingPolicy(
            ServingConfig(tenants=tenants, admission_enabled=False,
                          autoscale_enabled=False),
            n_servers=2, cores_per_server=4)
        assert neither.admission is None
        assert neither.autoscaler is None
        # Disarmed policies are pass-through: everything admitted, a
        # static pool.
        assert neither.admit(0.0, "u", 1.0, backlog=10**6,
                             est_delay_s=1e9)
        assert neither.active_span(0.0) is None

    def test_stats_shape_follows_arming(self):
        tenants = (TenantSpec(name="u"),)
        policy = ServingPolicy(
            ServingConfig(tenants=tenants, autoscale_enabled=False),
            n_servers=2, cores_per_server=4)
        stats = policy.stats()
        assert stats["admission_enabled"] is True
        assert stats["autoscale_enabled"] is False
        assert "admission" in stats and "autoscale" not in stats
