"""The network simulator facade: an N-switch fabric on one timeline.

One :class:`NetworkSim` is a *fabric*: it owns a
:class:`~repro.runtime.Scheduler` (shared clock + event queue) and any
number of :class:`~repro.net.fabric.FabricSwitch` instances, each
wrapping one :class:`~repro.system.MantisSystem`.  Switches are wired
to hosts (:meth:`FabricSwitch.attach_host`) and to each other
(:meth:`NetworkSim.connect`), with per-link serialization and
propagation taken from the egress port's
:class:`~repro.net.fabric.PortConfig`.  The single-switch form --
``NetworkSim(system)`` -- is a thin shim that creates a one-switch
fabric and forwards the legacy port/host API to it.

The per-switch mechanics (port queues, lazy accounting, peer handoff,
link faults, the vectorized burst tail) live in
:mod:`repro.net.fabric`; this module composes them.

Fabric cost scales with *active events*, not fabric size: link
endpoints are indexed by ``(switch, port)``, per-port queue accounting
is lazy (see :mod:`repro.net.fabric`), and the scheduler's actor
bookkeeping is dict-indexed with batched equal-timestamp wakeups --
enqueue/deliver/drain are O(1) per event whether the fabric has 2
switches or 200.

Concurrency model: every Mantis agent is a scheduled actor on the
fabric's shared timeline (see :mod:`repro.runtime.scheduler`); each
dialogue iteration advances the clock by its own cost and reschedules
the actor at the resulting instant, so with one switch the agent
busy-loops exactly as the paper's per-component thread does, and with
N switches the N agents interleave by timestamp.  Every clock advance
drains due packet events, so data-plane activity interleaves with
control-plane driver operations exactly as on a real switch (the ASIC
never blocks on the CPU).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.net.fabric import (
    FabricSwitch,
    HostLike,
    Link,
    LinkFaultModel,
    PortConfig,
)
from repro.runtime import Scheduler
from repro.switch.clock import SimClock
from repro.system import MantisSystem

if TYPE_CHECKING:
    from repro.net.fabric import _PortState
    from repro.switch.packet import Packet

__all__ = [
    "FabricSwitch",
    "HostLike",
    "Link",
    "LinkFaultModel",
    "NetworkSim",
    "PortConfig",
]


class NetworkSim:
    """A fabric of emulated Mantis switches on one shared timeline.

    Two construction styles:

    - **legacy single-switch shim**: ``NetworkSim(system)`` creates a
      one-switch fabric named ``"s0"`` and forwards the historical
      port/host API (``attach_host``, ``configure_port``,
      ``send_to_switch``, ``queue_depth``, ...) to it -- existing
      scenarios run unchanged;
    - **fabric**: ``NetworkSim(clock=shared_clock)`` then
      :meth:`add_switch` per :class:`MantisSystem` (each built on the
      same clock) and :meth:`connect` for inter-switch cables.

    ``run_until`` drives everything -- packet events *and* every
    switch's agent -- through the one :class:`Scheduler`, so one code
    path covers 1 switch, N pipelines, or an N-switch topology.
    """

    def __init__(
        self,
        system: Optional[MantisSystem] = None,
        default_port: Optional[PortConfig] = None,
        clock: Optional[SimClock] = None,
        scheduler: Optional[Scheduler] = None,
    ):
        if scheduler is not None:
            self.scheduler = scheduler
        else:
            if clock is None and system is not None:
                clock = system.clock
            self.scheduler = Scheduler(clock=clock)
        self.default_port = default_port or PortConfig()
        self.switches: Dict[str, FabricSwitch] = {}
        self._switch_order: List[FabricSwitch] = []
        self.links: List[Link] = []
        # (switch name, port) -> Link: O(1) endpoint lookup for
        # routing installers and utilization reports, independent of
        # how many cables the fabric carries.
        self._link_index: Dict[Tuple[str, int], Link] = {}
        if system is not None:
            self.add_switch(system, name="s0", default_port=default_port)

    # ---- fabric construction --------------------------------------------

    @property
    def clock(self) -> SimClock:
        return self.scheduler.clock

    @property
    def events(self):
        return self.scheduler.events

    def add_switch(
        self,
        system: MantisSystem,
        name: Optional[str] = None,
        default_port: Optional[PortConfig] = None,
    ) -> FabricSwitch:
        """Add one switch to the fabric.

        The system must share the fabric's clock -- cross-switch
        orderings are only well-defined on one timeline."""
        if system.clock is not self.scheduler.clock:
            raise SimulationError(
                "switch must share the fabric clock: build the "
                "MantisSystem with clock=fabric.clock"
            )
        if name is None:
            name = f"s{len(self.switches)}"
        if name in self.switches:
            raise SimulationError(f"duplicate switch name {name!r}")
        switch = FabricSwitch(
            self, name, system, default_port=default_port or self.default_port
        )
        self.switches[name] = switch
        self._switch_order.append(switch)
        return switch

    def switch(self, name: str) -> FabricSwitch:
        if name not in self.switches:
            raise SimulationError(f"no switch named {name!r}")
        return self.switches[name]

    def _resolve(self, switch: Union[str, FabricSwitch]) -> FabricSwitch:
        if isinstance(switch, FabricSwitch):
            if switch.fabric is not self:
                raise SimulationError(
                    f"switch {switch.name!r} belongs to another fabric"
                )
            return switch
        return self.switch(switch)

    def connect(
        self,
        switch_a: Union[str, FabricSwitch],
        port_a: int,
        switch_b: Union[str, FabricSwitch],
        port_b: int,
    ) -> Link:
        """Cable two switch ports together.

        Each direction uses the egress side's :class:`PortConfig` for
        serialization and propagation, exactly as a host link does."""
        a = self._resolve(switch_a)
        b = self._resolve(switch_b)
        if a is b and port_a == port_b:
            raise SimulationError("cannot cable a port to itself")
        link = Link(a, port_a, b, port_b)
        a._add_peer(port_a, b, port_b, link)
        b._add_peer(port_b, a, port_a, link)
        self.links.append(link)
        self._link_index[(a.name, port_a)] = link
        self._link_index[(b.name, port_b)] = link
        return link

    def link_at(
        self, switch: Union[str, FabricSwitch], port: int
    ) -> Optional[Link]:
        """The cable plugged into ``(switch, port)``, if any --
        indexed, O(1)."""
        return self._link_index.get((self._resolve(switch).name, port))

    def set_link_state(self, link: Link, up: bool) -> None:
        """Kill or revive a whole cable (both directions)."""
        link.up = up

    def fail_link_at(self, link: Link, time_us: float) -> None:
        """Schedule a cable cut on the shared timeline."""
        self.scheduler.at(
            time_us, lambda _now: self.set_link_state(link, False)
        )

    def restore_link_at(self, link: Link, time_us: float) -> None:
        """Schedule a cable repair -- with :meth:`fail_link_at` this
        models flap/repair timelines, not just permanent kills."""
        self.scheduler.at(
            time_us, lambda _now: self.set_link_state(link, True)
        )

    def install_link_fault(
        self,
        link: Link,
        model: LinkFaultModel,
        at_us: Optional[float] = None,
        until_us: Optional[float] = None,
    ) -> LinkFaultModel:
        """Attach a :class:`LinkFaultModel` to a cable, optionally
        scheduling its on/off window through the event queue (``at_us``
        arms it, ``until_us`` disarms; either may be ``None``)."""
        link.fault_models.append(model)
        if at_us is not None:
            model.active = False
            self.scheduler.at(at_us, lambda _now: model.set_active(True))
        if until_us is not None:
            self.scheduler.at(until_us, lambda _now: model.set_active(False))
        return model

    # ---- accounting -------------------------------------------------------

    def drop_totals(self) -> Dict[str, int]:
        """Fabric-wide conservation ledger.  After the fabric quiesces,
        every packet a host put on a wire is in exactly one bucket::

            sent == delivered + switch_drops + egress_dropped
                    + rx_dropped + port_fault_dropped + link_fault_dropped

        (corruption does not consume packets -- corrupted packets keep
        flowing and land in one of the buckets above)."""
        totals = {
            "delivered": 0,
            "forwarded": 0,
            "switch_drops": 0,
            "egress_dropped": 0,
            "rx_dropped": 0,
            "port_fault_dropped": 0,
            "port_fault_corrupted": 0,
            "link_fault_dropped": 0,
            "link_fault_corrupted": 0,
        }
        for switch in self._switch_order:
            totals["delivered"] += switch.delivered
            totals["forwarded"] += switch.forwarded
            totals["switch_drops"] += switch.switch_drops
            for port in switch.ports.values():
                totals["egress_dropped"] += port.dropped
                totals["rx_dropped"] += port.rx_dropped
                if port.fault is not None:
                    totals["port_fault_dropped"] += port.fault.dropped
                    totals["port_fault_corrupted"] += port.fault.corrupted
        for link in self.links:
            totals["link_fault_dropped"] += link.fault_dropped
            totals["link_fault_corrupted"] += link.fault_corrupted
        return totals

    def switch_summaries(self) -> Dict[str, Dict[str, int]]:
        """Per-switch packet/event counts (``run-fabric``-style JSON):
        fleet runs stay debuggable without rerunning."""
        return {
            switch.name: switch.packet_stats()
            for switch in self._switch_order
        }

    def link_utilizations(self, duration_us: float) -> Dict[str, float]:
        """Per-direction utilization of every inter-switch link over a
        run of ``duration_us``: bits sent through each endpoint's
        egress port divided by that port's line rate."""
        utilizations: Dict[str, float] = {}
        for link in self.links:
            for switch, port in link.endpoints():
                state = switch._port(port)
                capacity_bits = state.rate_bits_per_us * duration_us
                utilizations[f"{switch.name}:{port}"] = (
                    state.tx_bytes * 8 / capacity_bits
                    if capacity_bits > 0 else 0.0
                )
        return utilizations

    def link_fault_summary(self) -> List[Dict[str, object]]:
        """Per-link state for ``run-fabric``-style JSON summaries."""
        return [
            {
                "name": link.name,
                "up": link.up,
                "fault_dropped": link.fault_dropped,
                "fault_corrupted": link.fault_corrupted,
            }
            for link in self.links
        ]

    # ---- time ------------------------------------------------------------

    def run_until(self, time_us: float, agent: bool = True) -> None:
        """Advance the fabric to ``time_us``.

        With ``agent=True`` every switch's Mantis agent runs as a
        scheduled actor: armed at the current instant (in switch
        insertion order), each dialogue iteration advances the clock
        by its own cost and reschedules the actor, draining packet
        events as it goes.  With ``agent=False`` only packet events
        run -- the baseline "no reactive control plane" configuration.
        """
        if agent:
            for switch in self._switch_order:
                self.scheduler.arm(switch.agent_actor)
        self.scheduler.run_until(time_us, actors=agent)

    # ---- legacy single-switch API ----------------------------------------

    @property
    def _default_switch(self) -> FabricSwitch:
        if not self._switch_order:
            raise SimulationError(
                "fabric has no switches yet; call add_switch() first"
            )
        return self._switch_order[0]

    @property
    def system(self) -> MantisSystem:
        return self._default_switch.system

    @property
    def ports(self) -> Dict[int, _PortState]:
        return self._default_switch.ports

    @property
    def hosts(self) -> Dict[int, "HostLike"]:
        return self._default_switch.hosts

    @property
    def switch_drops(self) -> int:
        return self._default_switch.switch_drops

    @property
    def delivered(self) -> int:
        return self._default_switch.delivered

    def configure_port(self, port: int, config: PortConfig) -> None:
        self._default_switch.configure_port(port, config)

    def attach_host(self, host: "HostLike", port: int) -> None:
        self._default_switch.attach_host(host, port)

    def set_link_up(self, port: int, up: bool) -> None:
        self._default_switch.set_link_up(port, up)

    def send_to_switch(
        self, packet: Packet, ingress_port: int, delay_us: float = 0.0
    ) -> None:
        self._default_switch.send_to_switch(packet, ingress_port, delay_us)

    def send_burst_to_switch(
        self,
        packets: Sequence[Packet],
        ingress_port: int,
        spacing_us: float = 0.0,
        delay_us: float = 0.0,
    ) -> None:
        self._default_switch.send_burst_to_switch(
            packets, ingress_port, spacing_us=spacing_us, delay_us=delay_us
        )

    def queue_depth(self, port: int) -> int:
        return self._default_switch.queue_depth(port)

    def port_stats(self, port: int) -> _PortState:
        return self._default_switch.port_stats(port)
