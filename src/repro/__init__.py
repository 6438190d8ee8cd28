"""HiveMind (ISCA 2022) reproduction: serverless edge-swarm coordination.

Public API map:

- :mod:`repro.dsl` — task-graph DSL, directives, program synthesis,
  API codegen, the compiler.
- :mod:`repro.platforms` — the systems under test and mission runners
  (the top-level entry point for most users).
- :mod:`repro.core` — the controller's straggler watchdog and heartbeat
  failure detector.
- :mod:`repro.serverless` — the OpenWhisk-style platform emulation.
- :mod:`repro.edge`, :mod:`repro.routing`, :mod:`repro.learning`,
  :mod:`repro.network`, :mod:`repro.cluster`, :mod:`repro.hardware`
  — the substrates.
- :mod:`repro.experiments` — one harness per paper figure
  (``python -m repro.experiments --list``).

Quick taste::

    from repro.apps import SCENARIO_A
    from repro.platforms import ScenarioRunner, platform_config

    result = ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                            seed=42).run()
    print(result.extras["makespan_s"], result.battery_summary())
"""

from .config import DEFAULT, PaperConstants

__version__ = "1.0.0"

__all__ = ["DEFAULT", "PaperConstants", "__version__"]
