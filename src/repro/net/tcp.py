"""Simplified window-based TCP with ECN/DCTCP response.

Enough congestion-control fidelity for the paper's experiments:

- slow start then AIMD congestion avoidance;
- per-ACK clocking (each delivered data packet generates an ACK event
  back at the source after the return latency);
- loss detection by retransmission timeout -> multiplicative decrease
  and slow-start restart (models Figure 15's collapse under the flood);
- ECN echo with a DCTCP-style fractional decrease driven by the
  fraction of marked packets per window (used by the RL use case to
  evaluate marking thresholds).

This is a rate/Window abstraction, not a byte-exact stack -- the
evaluation shapes only require that throughput collapses under loss
and recovers within a few RTTs once the aggressor is suppressed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.hosts import Host, sequenced_template
from repro.switch.packet import Packet


class TcpFlow(Host):
    """One TCP sender attached to a switch port."""

    def __init__(
        self,
        name: str,
        fields: Dict[str, int],
        ack_latency_us: float = 5.0,
        size_bytes: int = 1500,
        initial_cwnd: float = 2.0,
        max_cwnd: float = 256.0,
        rto_us: float = 400.0,
        dctcp_g: float = 0.0625,
        use_dctcp: bool = False,
        pace_interval_us: float = 0.0,
        transfer_packets: Optional[int] = None,
    ):
        super().__init__(name)
        self.fields = dict(fields)
        self.size_bytes = size_bytes
        self._template = sequenced_template(self.fields, "tcp.seq", size_bytes)
        self.ack_latency_us = ack_latency_us
        self.cwnd = initial_cwnd
        self.max_cwnd = max_cwnd
        self.ssthresh = max_cwnd
        self.rto_us = rto_us
        self.use_dctcp = use_dctcp
        self.dctcp_g = dctcp_g
        self.dctcp_alpha = 0.0
        # Application pacing: at most one packet per interval (models
        # low-rate flows whose natural window would be below 1 packet
        # at microsecond RTTs).
        self.pace_interval_us = pace_interval_us
        self._next_send_us = 0.0
        self._pump_scheduled = False
        self.in_flight = 0
        self.next_seq = 0
        self.acked = 0
        self.tx_packets = 0
        self.retransmits = 0
        self.timeouts = 0
        self._window_acks = 0
        self._window_marks = 0
        self._running = False
        self._outstanding: Dict[int, float] = {}  # seq -> send time
        # FCT instrumentation: with ``transfer_packets`` set, the flow
        # is a back-to-back series of fixed-size transfers; every time
        # that many packets are cumulatively ACKed, one flow-completion
        # time is recorded and the next transfer starts immediately
        # (cwnd carries over -- the steady-state FCT the loss-rate
        # benchmark curves plot).
        self.transfer_packets = transfer_packets
        self.fct_samples: list = []
        self._transfer_start = 0.0
        self._transfer_acked = 0

    # ---- control ----------------------------------------------------------

    def start(self, at_us: Optional[float] = None) -> None:
        self._running = True
        start = self.sim.clock.now if at_us is None else at_us
        self._transfer_start = start
        self.sim.events.schedule(start, lambda now: self._pump(now))

    def stop(self) -> None:
        self._running = False

    @property
    def goodput_packets(self) -> int:
        return self.acked

    @property
    def transfers_completed(self) -> int:
        return len(self.fct_samples)

    @property
    def avg_fct_us(self) -> Optional[float]:
        if not self.fct_samples:
            return None
        return sum(self.fct_samples) / len(self.fct_samples)

    # ---- sending -----------------------------------------------------------

    def _pump(self, now: float) -> None:
        """Send while the window (and pacing) allow."""
        if not self._running:
            return
        while self.in_flight < int(self.cwnd):
            if self.pace_interval_us and now < self._next_send_us:
                if not self._pump_scheduled:
                    self._pump_scheduled = True
                    self.sim.events.schedule(
                        self._next_send_us, self._paced_pump
                    )
                return
            seq = self.next_seq
            self.next_seq += 1
            self._transmit(seq, now)
            if self.pace_interval_us:
                self._next_send_us = (
                    max(now, self._next_send_us) + self.pace_interval_us
                )

    def _paced_pump(self, now: float) -> None:
        self._pump_scheduled = False
        self._pump(now)

    def _transmit(self, seq: int, now: float) -> None:
        packet = Packet.from_template(self._template)
        packet.fields["tcp.seq"] = seq & 0xFFFFFFFF
        # The ACK path: the sink host is the switch's delivery target;
        # we model the reverse direction as a fixed-latency callback.
        packet_seq = seq

        self.sim.send_to_switch(packet, self.port)
        self.in_flight += 1
        self.tx_packets += 1
        self._outstanding[packet_seq] = now
        self.sim.events.schedule(
            now + self.rto_us, lambda t, s=packet_seq: self._check_timeout(s, t)
        )

    def notify_delivered(self, packet: Packet, now: float) -> None:
        """Called by the receiving sink: schedules the ACK back."""
        seq = packet.get("tcp.seq")
        marked = packet.get("standard_metadata.ecn_marked")
        self.sim.events.schedule(
            now + self.ack_latency_us,
            lambda t, s=seq, m=marked: self._on_ack(s, m, t),
        )

    # ---- ACK / loss handling --------------------------------------------------

    def _on_ack(self, seq: int, marked: int, now: float) -> None:
        if seq not in self._outstanding:
            return  # duplicate/stale (e.g. after a timeout retransmit)
        del self._outstanding[seq]
        self.in_flight = max(0, self.in_flight - 1)
        self.acked += 1
        if self.transfer_packets:
            self._transfer_acked += 1
            if self._transfer_acked >= self.transfer_packets:
                self.fct_samples.append(now - self._transfer_start)
                self._transfer_start = now
                self._transfer_acked = 0
        self._window_acks += 1
        if marked:
            self._window_marks += 1
        if self.use_dctcp:
            self._dctcp_window_update(marked)
        elif marked:
            # Classic ECN: treat a mark like a loss (halve once per window).
            self.cwnd = max(1.0, self.cwnd / 2)
            self.ssthresh = self.cwnd
        else:
            self._grow()
        if self.use_dctcp and not marked:
            self._grow()
        self._pump(now)

    def _grow(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1.0)
        else:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1.0 / self.cwnd)

    def _dctcp_window_update(self, marked: int) -> None:
        """Per-window alpha update, applied incrementally per ACK."""
        if self._window_acks >= max(1, int(self.cwnd)):
            fraction = self._window_marks / self._window_acks
            self.dctcp_alpha = (
                (1 - self.dctcp_g) * self.dctcp_alpha + self.dctcp_g * fraction
            )
            if self._window_marks:
                self.cwnd = max(1.0, self.cwnd * (1 - self.dctcp_alpha / 2))
            self._window_acks = 0
            self._window_marks = 0

    def _check_timeout(self, seq: int, now: float) -> None:
        if seq not in self._outstanding or not self._running:
            return
        # Lost: multiplicative decrease, slow-start restart, retransmit.
        del self._outstanding[seq]
        self.in_flight = max(0, self.in_flight - 1)
        self.timeouts += 1
        self.retransmits += 1
        self.ssthresh = max(1.0, self.cwnd / 2)
        self.cwnd = max(1.0, self.cwnd / 2)
        self._transmit(seq, now)


class TcpSink(Host):
    """Receives TCP data and notifies the owning flow for ACKs.

    Demultiplexes flows by a key field (default ``ipv4.srcAddr``).
    """

    def __init__(self, name: str, key_field: str = "ipv4.srcAddr",
                 window_us: float = 100.0):
        super().__init__(name)
        self.key_field = key_field
        self.flows: Dict[int, TcpFlow] = {}
        self.window_us = window_us
        self.windows: Dict[int, int] = {}

    def register_flow(self, key: int, flow: TcpFlow) -> None:
        self.flows[key] = flow

    def receive(self, packet: Packet, now: float) -> None:
        super().receive(packet, now)
        window = int(now / self.window_us)
        key = packet.get(self.key_field)
        flow = self.flows.get(key)
        if flow is not None:
            self.windows[window] = self.windows.get(window, 0) + packet.size_bytes
            flow.notify_delivered(packet, now)

    def tcp_throughput_gbps(self, window: int) -> float:
        return self.windows.get(window, 0) * 8 / (self.window_us * 1000.0)

    def timeline_gbps(self, until_us: float):
        count = int(until_us / self.window_us) + 1
        return [
            (w * self.window_us, self.tcp_throughput_gbps(w))
            for w in range(count)
        ]
