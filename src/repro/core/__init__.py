"""HiveMind core: the controller's straggler watchdog and failure detector.

The rest of the centralized controller (sections 4.2-4.7) lives where the
runs use it: the scheduler in :mod:`repro.serverless`, continuous learning
in :mod:`repro.learning.retraining` (driven by ``ScenarioRunner``) and
placement in :class:`~repro.platforms.PlatformConfig` and :mod:`repro.dsl`.
"""

from .fault_tolerance import FailureDetector
from .straggler import StragglerMitigator

__all__ = ["FailureDetector", "StragglerMitigator"]
