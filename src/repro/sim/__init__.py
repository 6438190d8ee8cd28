"""Discrete-event simulation substrate for the HiveMind reproduction.

Public surface:

- kernel: :class:`Environment`, :class:`Event`, :class:`Timeout`,
  :class:`Process`, :class:`Interrupt`
- resources: :class:`Resource`
- rng: :class:`RandomStreams`
"""

from .kernel import (
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    StopSimulation,
    Timeout,
)
from .resources import Resource
from .rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "StopSimulation",
    "Resource",
    "RandomStreams",
]
