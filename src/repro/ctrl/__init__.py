"""Pipelined multi-client control-plane service (RBFRT-style).

Layers an event-driven service between control-plane clients and the
synchronous :class:`~repro.switch.driver.Driver`:

- :mod:`repro.ctrl.channel` -- the simulated PCIe channel with request
  pipelining (bounded in-flight window, software prep overlapped with
  device-exclusive windows);
- :mod:`repro.ctrl.service` -- multi-client sessions with priority
  arbitration, bounded queues with backpressure, fairness accounting,
  and per-op completion callbacks in simulated time;
- :mod:`repro.ctrl.clients` -- canned clients (the bulk loader).
"""

from repro.ctrl.channel import ChannelSchedule, PipelinedChannel
from repro.ctrl.clients import BulkLoader
from repro.ctrl.service import (
    PRIORITY_CLASSES,
    CtrlService,
    CtrlSession,
    OpTicket,
    SessionDriver,
)

__all__ = [
    "BulkLoader",
    "ChannelSchedule",
    "CtrlService",
    "CtrlSession",
    "OpTicket",
    "PipelinedChannel",
    "PRIORITY_CLASSES",
    "SessionDriver",
]
