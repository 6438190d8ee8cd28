"""Per-layer fault injection: a FaultPlan applied to a live simulation.

The :class:`FaultInjector` walks a plan's events in time order from one
driver process and applies each to the layer it targets:

- ``device_crash`` / ``battery_brownout`` — edge devices (``fail()`` /
  an immediate battery drain).
- ``link_degrade`` / ``cloud_partition`` — the wireless fabric
  (capacity derating / the partition flag the RPC retry layer observes).
- ``server_crash`` / ``invoker_crash`` — the cluster + serverless stack
  via the platform's crash hooks, which interrupt in-flight activations
  and requeue them.
- ``couchdb_outage`` / ``kafka_outage`` — service-delay windows on the
  stores.
- ``function_faults`` — the invokers' existing mid-execution fault +
  respawn machinery (Fig 5c), switched on at the event time.

Windowed events (``duration_s`` set) schedule their own restore.

Determinism: the injector schedules events only at the plan's instants
and draws randomness only from its own ``faults.injector`` stream (and
currently draws none — every fault in a plan is explicit). An injector is
never constructed unless a plan is armed.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from .plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultPlan` to the simulation's layers."""

    def __init__(self, env, plan: FaultPlan, *,
                 wireless=None, platform=None,
                 devices: Optional[Dict[str, object]] = None):
        if not plan.armed:
            raise ValueError("refusing to arm an empty fault plan")
        self.env = env
        self.plan = plan
        self.wireless = wireless
        self.platform = platform
        self.devices = devices or {}
        #: (time, kind, target) of every event actually applied.
        self.applied: List[tuple] = []
        self._driver = None

    def start(self) -> None:
        """Launch the driver process that walks the plan."""
        if self._driver is not None:
            raise RuntimeError("injector already started")
        self._driver = self.env.process(self._drive())

    # -- driver ------------------------------------------------------------
    def _drive(self) -> Generator:
        for event in self.plan.sorted_events():
            if event.time > self.env.now:
                yield self.env.timeout_at(event.time)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)
        self.applied.append((self.env.now, event.kind, event.target))

    def _schedule_restore(self, delay_s: float, restore) -> None:
        def _restorer() -> Generator:
            yield self.env.timeout(delay_s)
            restore()
        self.env.process(_restorer())

    # -- target resolution ---------------------------------------------------
    def _device(self, target: str):
        """A device by id, or by index into the sorted id order (the
        runner refuses a plan whose target names neither)."""
        found = self.devices.get(target)
        if found is not None:
            return found
        return self.devices[sorted(self.devices)[int(target)]]

    # -- edge layer ------------------------------------------------------------
    def _apply_device_crash(self, event: FaultEvent) -> None:
        self._device(event.target).fail()

    def _apply_battery_brownout(self, event: FaultEvent) -> None:
        device = self._device(event.target)
        account = device.energy
        # Drain `magnitude` of the *remaining* charge instantly (a cell
        # failure / voltage sag, not a steady draw). Charged to idle: the
        # lost charge did no useful work.
        lost_wh = event.magnitude * account.remaining_wh
        account.draw_energy("idle", lost_wh * 3600.0)
        if account.depleted:
            device.fail()

    # -- network layer ----------------------------------------------------------
    def _apply_link_degrade(self, event: FaultEvent) -> None:
        self.wireless.degrade(event.magnitude)
        if event.duration_s:
            self._schedule_restore(event.duration_s,
                                   self.wireless.restore_capacity)

    def _apply_cloud_partition(self, event: FaultEvent) -> None:
        self.wireless.set_partitioned(True)
        self._schedule_restore(
            event.duration_s, lambda: self.wireless.set_partitioned(False))

    # -- cluster / serverless layer ---------------------------------------------
    def _apply_server_crash(self, event: FaultEvent) -> None:
        self.platform.crash_server(event.target)

    def _apply_invoker_crash(self, event: FaultEvent) -> None:
        self.platform.crash_invoker(event.target)
        if event.duration_s:
            self._schedule_restore(
                event.duration_s,
                lambda: self.platform.restore_invoker(event.target))

    def _apply_couchdb_outage(self, event: FaultEvent) -> None:
        self.platform.couchdb.set_outage(self.env.now + event.duration_s)

    def _apply_kafka_outage(self, event: FaultEvent) -> None:
        self.platform.kafka.set_outage(self.env.now + event.duration_s)

    def _apply_function_faults(self, event: FaultEvent) -> None:
        for invoker in self.platform.invokers:
            invoker.fault_rate = event.magnitude
