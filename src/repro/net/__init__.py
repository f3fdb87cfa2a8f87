"""Network simulation substrate.

Stands in for the paper's hardware testbed (Wedge switch + servers on
25 Gbps links):

- :mod:`repro.net.events` -- discrete-event queue sharing the switch's
  simulated clock; driver operations interleave with packet arrivals at
  operation granularity, so control-plane/data-plane concurrency is
  faithful.
- :mod:`repro.net.sim` -- the network: the emulated switch, per-port
  output queues with finite capacity, links, and attached hosts.
- :mod:`repro.net.hosts` -- traffic endpoints: sinks, UDP senders
  (the DoS flood), heartbeat generators (the gray-failure detector).
- :mod:`repro.net.tcp` -- simplified window-based TCP with ECN/DCTCP
  response, enough to reproduce the congestion-and-recovery shapes of
  Figures 15 and the RL use case.
- :mod:`repro.net.flows` -- synthetic CAIDA-like heavy-tailed traces
  for the Figure 14 estimation experiment.  Not re-exported here: it
  imports numpy, which the network simulation itself never needs.
"""

from repro.net.events import EventQueue
from repro.net.hosts import HeartbeatGenerator, Host, SinkHost, UdpSender
from repro.net.sim import NetworkSim, PortConfig
from repro.net.tcp import TcpFlow

__all__ = [
    "EventQueue",
    "HeartbeatGenerator",
    "Host",
    "NetworkSim",
    "PortConfig",
    "SinkHost",
    "TcpFlow",
    "UdpSender",
]
