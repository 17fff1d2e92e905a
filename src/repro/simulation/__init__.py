"""Discrete-event simulation substrate.

A minimal but complete event-driven simulator used by the MPPDB execution
model and the Thrifty runtime replay: a priority event queue
(:mod:`~repro.simulation.events`), an engine with a monotonic clock,
scheduling and interruption (:mod:`~repro.simulation.engine`) and
time-series metrics (:mod:`~repro.simulation.metrics`).  Run-time
telemetry (spans, counters) lives in :mod:`repro.obs`.
"""

from .engine import Simulator
from .events import Event, EventQueue, ScheduledEvent
from .metrics import StepSeries

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "ScheduledEvent",
    "StepSeries",
]
