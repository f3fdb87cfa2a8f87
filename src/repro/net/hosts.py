"""Simulation endpoints: sinks, UDP senders, heartbeat generators."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.sim import HostLike, NetworkSim
from repro.switch.packet import Packet, PacketTemplate, TemplateBurst


def sequenced_template(
    fields: Dict[str, int], seq_field: str, size_bytes: int
) -> PacketTemplate:
    """The shape of a sender's packets whose ``seq_field`` is stored
    per packet after the template copy.  The field gets its slot (and
    its header its validity) here, so key order and valid headers match
    a packet built from ``fields`` plus the sequence number."""
    shape = dict(fields)
    shape[seq_field] = 0
    return PacketTemplate(shape, size_bytes=size_bytes)


class Host(HostLike):
    """A basic host: counts received traffic, can send raw packets."""

    def __init__(self, name: str):
        self.name = name
        self.sim: Optional[NetworkSim] = None
        self.port = -1
        self.rx_packets = 0
        self.rx_bytes = 0
        self.on_receive: Optional[Callable[[Packet, float], None]] = None

    def bind(self, sim: NetworkSim, port: int) -> None:
        self.sim = sim
        self.port = port

    def receive(self, packet: Packet, now: float) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.size_bytes
        if self.on_receive is not None:
            self.on_receive(packet, now)

    def send(self, fields: Dict[str, int], size_bytes: int = 1500,
             delay_us: float = 0.0) -> None:
        packet = Packet(fields, size_bytes=size_bytes)
        self.sim.send_to_switch(packet, self.port, delay_us)


class SinkHost(Host):
    """A receive-only host that additionally tracks per-window
    throughput (used by the Figure 15 timeline)."""

    def __init__(self, name: str, window_us: float = 100.0):
        super().__init__(name)
        self.window_us = window_us
        self.windows: Dict[int, int] = {}

    def receive(self, packet: Packet, now: float) -> None:
        super().receive(packet, now)
        window = int(now / self.window_us)
        self.windows[window] = self.windows.get(window, 0) + packet.size_bytes

    def throughput_gbps(self, window: int) -> float:
        return self.windows.get(window, 0) * 8 / (self.window_us * 1000.0)

    def timeline_gbps(self, until_us: float):
        """(window_start_us, gbps) series from t=0 to ``until_us``."""
        count = int(until_us / self.window_us) + 1
        return [
            (w * self.window_us, self.throughput_gbps(w)) for w in range(count)
        ]


class UdpSender(Host):
    """Open-loop constant-rate sender (the DoS flood of Figure 15).

    With ``burst_size > 1`` the sender coalesces each group of packets
    into one simulator event (``send_burst_to_switch``): packet send
    times, arrivals, and the next tick all land on the same instants a
    per-packet sender would produce, but the event queue and the
    switch pipeline see one burst instead of ``burst_size`` entries.
    The burst travels as a :class:`TemplateBurst`: its packets are
    built only where someone can observe them.
    """

    def __init__(
        self,
        name: str,
        fields: Dict[str, int],
        rate_gbps: float,
        size_bytes: int = 1500,
        burst_size: int = 1,
    ):
        super().__init__(name)
        self.fields = dict(fields)
        self.rate_gbps = rate_gbps
        self.size_bytes = size_bytes
        self._template = PacketTemplate(self.fields, size_bytes=size_bytes)
        self.interval_us = size_bytes * 8 / (rate_gbps * 1000.0)
        self.burst_size = max(1, burst_size)
        self.tx_packets = 0
        self._running = False

    def start(self, at_us: Optional[float] = None) -> None:
        self._running = True
        start = self.sim.clock.now if at_us is None else at_us
        self.sim.events.schedule(start, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self, now: float) -> None:
        if not self._running:
            return
        if self.burst_size == 1:
            packet = Packet.from_template(self._template)
            self.sim.send_to_switch(packet, self.port)
            self.tx_packets += 1
            self.sim.events.schedule(now + self.interval_us, self._tick)
            return
        self.sim.send_burst_to_switch(
            TemplateBurst(self._template, self.burst_size),
            self.port, spacing_us=self.interval_us,
        )
        self.tx_packets += self.burst_size
        # Next tick where the (burst_size+1)-th scalar send would be:
        # repeated addition, so the float value matches the scalar
        # sender's accumulated schedule exactly.
        next_tick = now
        for _ in range(self.burst_size):
            next_tick += self.interval_us
        self.sim.events.schedule(next_tick, self._tick)


class HeartbeatGenerator(Host):
    """Emits high-priority heartbeat packets every ``period_us``
    (the Section 8.3.2 gray-failure workload).  ``loss_rate`` models a
    gray failure: the link is nominally up but drops a fraction of
    heartbeats."""

    def __init__(
        self,
        name: str,
        fields: Dict[str, int],
        period_us: float = 1.0,
        size_bytes: int = 64,
    ):
        super().__init__(name)
        self.fields = dict(fields)
        self.period_us = period_us
        self.size_bytes = size_bytes
        self._template = PacketTemplate(self.fields, size_bytes=size_bytes)
        self.loss_rate = 0.0
        self.tx_packets = 0
        self._running = False
        self._rng_state = 0x9E3779B9

    def start(self, at_us: Optional[float] = None) -> None:
        self._running = True
        start = self.sim.clock.now if at_us is None else at_us
        self.sim.events.schedule(start, self._tick)

    def stop(self) -> None:
        self._running = False

    def set_gray_loss(self, loss_rate: float) -> None:
        self.loss_rate = loss_rate

    def _rand(self) -> float:
        # xorshift: deterministic, independent of global RNG state.
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x / 0xFFFFFFFF

    def _tick(self, now: float) -> None:
        if not self._running:
            return
        if self._rand() >= self.loss_rate:
            packet = Packet.from_template(self._template)
            self.sim.send_to_switch(packet, self.port)
            self.tx_packets += 1
        self.sim.events.schedule(now + self.period_us, self._tick)


class SeqProbeGenerator(Host):
    """Emits sequence-numbered probe packets every ``period_us``.

    The LinkGuardian-style loss detector: each probe carries a strictly
    incrementing sequence number in ``seq_field``, so the receiving
    switch can count delivered-vs-expected gaps per ingress port and
    estimate the effective loss rate of the link the probes crossed
    (see :mod:`repro.apps.linkguard`)."""

    def __init__(
        self,
        name: str,
        fields: Dict[str, int],
        period_us: float = 1.0,
        size_bytes: int = 64,
        seq_field: str = "guard.seq",
        start_seq: int = 1,
    ):
        super().__init__(name)
        self.fields = dict(fields)
        self.period_us = period_us
        self.size_bytes = size_bytes
        self._template = sequenced_template(
            self.fields, seq_field, size_bytes
        )
        self.seq_field = seq_field
        self.next_seq = start_seq
        self.tx_packets = 0
        self._running = False

    def start(self, at_us: Optional[float] = None) -> None:
        self._running = True
        start = self.sim.clock.now if at_us is None else at_us
        self.sim.events.schedule(start, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self, now: float) -> None:
        if not self._running:
            return
        packet = Packet.from_template(self._template)
        packet.fields[self.seq_field] = self.next_seq
        self.next_seq += 1
        self.sim.send_to_switch(packet, self.port)
        self.tx_packets += 1
        self.sim.events.schedule(now + self.period_us, self._tick)
