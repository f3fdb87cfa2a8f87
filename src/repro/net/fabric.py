"""The per-switch fabric layer: switches, ports, links, faults.

One :class:`FabricSwitch` owns everything local to a switch -- port
states with lazy pull-based queue accounting, attached hosts, peer
wiring, the packet path through its :class:`~repro.system.MantisSystem`
ASIC, and the vectorized burst traffic-manager tail (:class:`_BurstTM`).
:class:`Link` models an inter-switch cable (binary kill plus stacked
:class:`LinkFaultModel` lossy degradation).

Scaling contract (the fleet-scale refactor): every per-packet-event
operation here is O(1) in fabric size.  Port state is a dict lookup on
the owning switch, peer handoff is a dict lookup on the egress port,
and queue accounting is *lazy* -- a monotone departure deque per port,
drained only when that port's depth is read or written, so idle ports
cost nothing no matter how many switches or links the fabric carries.

The fabric facade (:class:`repro.net.sim.NetworkSim`) composes these
into an N-switch topology on one shared
:class:`~repro.runtime.Scheduler` timeline; every public name here is
re-exported from :mod:`repro.net.sim` for import compatibility.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.runtime import AgentActor
from repro.switch.compiled import _tables_in
from repro.switch.packet import Packet, TemplateBurst
from repro.system import MantisSystem


@dataclass
class PortConfig:
    """Link parameters of one switch port."""

    bandwidth_gbps: float = 25.0
    latency_us: float = 1.0
    queue_capacity_pkts: int = 256

    def serialization_us(self, size_bytes: int) -> float:
        return size_bytes * 8 / (self.bandwidth_gbps * 1000.0)


@dataclass
class LinkFaultModel:
    """Seeded degradation of one link: probabilistic drops and bit
    corruption (the LinkGuardian-style lossy-link failure mode, as
    opposed to the binary cable kill of :attr:`Link.up`).

    Attach to an inter-switch :class:`Link` (both directions) or to a
    host-facing :class:`_PortState` (``FabricSwitch.set_port_fault``).
    Every decision is drawn from seeded per-direction RNG streams, so
    the drop/corrupt sequence for a given packet stream is a pure
    function of ``(seed, direction, packet order)`` -- bit-identical
    across per-packet and coalesced-burst delivery and across pipeline
    engines (burst coalescing may reorder *foreign* events around a
    burst, but never packets within one direction of one link, which
    is why the streams are per-direction).

    ``window_us`` bounds the degradation to a simulated-time interval
    (gated on each packet's wire arrival instant, which is float-exact
    across delivery paths); ``active`` is the on/off switch that
    :meth:`NetworkSim.install_link_fault` toggles through scheduled
    events.  ``max_drops``/``max_corrupts`` cap the damage so
    randomized fault plans are guaranteed to go quiet.

    Corruption flips one bit (``corrupt_mask``, or a random bit below
    32 when ``None``) in one packet field drawn from
    ``corrupt_fields`` -- by default any non-``standard_metadata``
    field (wire corruption cannot touch switch-local intrinsic
    metadata).  The corrupted packet continues; drops vanish and are
    counted here, and only here (exactly-once accounting).
    """

    seed: int
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_fields: Optional[Tuple[str, ...]] = None
    corrupt_mask: Optional[int] = None
    window_us: Optional[Tuple[float, float]] = None
    max_drops: Optional[int] = None
    max_corrupts: Optional[int] = None
    name: str = ""
    active: bool = True
    dropped: int = 0
    corrupted: int = 0
    # (time_us, direction, kind, detail) -- the deterministic event
    # log the seeded-determinism tests compare bit-for-bit.
    events: List[Tuple[float, str, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rngs: Dict[str, random.Random] = {}

    def _rng(self, direction: str) -> random.Random:
        rng = self._rngs.get(direction)
        if rng is None:
            rng = random.Random(
                self.seed * 0x9E3779B1 + zlib.crc32(direction.encode())
            )
            self._rngs[direction] = rng
        return rng

    def set_active(self, active: bool) -> None:
        self.active = active

    def admit(self, packet: Packet, now_us: float, direction: str) -> Optional[str]:
        """Roll this packet's fate: ``"drop"``, ``"corrupt"`` (fields
        already flipped in place), or ``None`` (unharmed)."""
        if not self.active:
            return None
        if self.window_us is not None:
            start, end = self.window_us
            if not start <= now_us <= end:
                return None
        rng = self._rng(direction)
        if self.drop_rate > 0.0 and (
            self.max_drops is None or self.dropped < self.max_drops
        ):
            if rng.random() < self.drop_rate:
                self.dropped += 1
                self.events.append((now_us, direction, "drop", ""))
                return "drop"
        if self.corrupt_rate > 0.0 and (
            self.max_corrupts is None or self.corrupted < self.max_corrupts
        ):
            if rng.random() < self.corrupt_rate:
                return self._corrupt(packet, now_us, direction, rng)
        return None

    def _corrupt(
        self, packet: Packet, now_us: float, direction: str,
        rng: random.Random,
    ) -> Optional[str]:
        eligible = self.corrupt_fields
        if eligible is None:
            eligible = tuple(sorted(
                key for key in packet.fields
                if not key.startswith("standard_metadata.")
            ))
        if not eligible:
            return None
        field_name = eligible[rng.randrange(len(eligible))]
        mask = self.corrupt_mask
        if mask is None:
            mask = 1 << rng.randrange(32)
        packet.fields[field_name] = packet.fields.get(field_name, 0) ^ mask
        self.corrupted += 1
        self.events.append(
            (now_us, direction, "corrupt", f"{field_name}^0x{mask:x}")
        )
        return "corrupt"


@dataclass
class _PortState:
    config: PortConfig
    busy_until: float = 0.0
    queued: int = 0
    up: bool = True
    tx_packets: int = 0
    tx_bytes: int = 0
    dropped: int = 0
    # Host->switch wire losses: packets sent toward a down ingress
    # port, or arriving after it went down mid-flight.  Kept separate
    # from ``dropped`` (egress-side losses) so every lost packet lands
    # in exactly one bucket (see NetworkSim.drop_totals).
    rx_dropped: int = 0
    # Optional lossy-link model for the host-facing cable (both
    # directions); inter-switch cables carry theirs on the Link.
    fault: Optional[LinkFaultModel] = None
    # bits-per-us denominator, precomputed once: serialization on the
    # per-packet path is then ``size * 8 / rate_bits_per_us`` -- the
    # same float operations (hence bit-identical results) as
    # PortConfig.serialization_us, without re-deriving the rate from
    # bandwidth_gbps on every send.
    rate_bits_per_us: float = 0.0
    # Pending departure times, monotonically non-decreasing (each
    # departure is max(now, busy_until) + serialization).  Drained
    # lazily by _drain_port instead of one scheduled event per packet.
    departs: Deque[float] = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.rate_bits_per_us = self.config.bandwidth_gbps * 1000.0


@dataclass
class Link:
    """A cable between two switch ports.

    ``up`` kills the whole cable (both directions) -- the fabric-level
    failure the multi-hop scenarios inject; the per-port ``up`` flag
    of :meth:`FabricSwitch.set_link_up` still models one-sided port
    shutdown (the Figure 16 'switch API that disables ports')."""

    switch_a: "FabricSwitch"
    port_a: int
    switch_b: "FabricSwitch"
    port_b: int
    up: bool = True
    # Degradation models applied (in order) to every packet crossing
    # the cable in either direction; the first "drop" verdict wins.
    fault_models: List[LinkFaultModel] = field(default_factory=list)

    def endpoints(self) -> Tuple[Tuple["FabricSwitch", int],
                                 Tuple["FabricSwitch", int]]:
        return (self.switch_a, self.port_a), (self.switch_b, self.port_b)

    @property
    def name(self) -> str:
        return (
            f"{self.switch_a.name}:{self.port_a}"
            f"<->{self.switch_b.name}:{self.port_b}"
        )

    @property
    def fault_dropped(self) -> int:
        return sum(model.dropped for model in self.fault_models)

    @property
    def fault_corrupted(self) -> int:
        return sum(model.corrupted for model in self.fault_models)

    def admit(self, packet: Packet, now_us: float, direction: str) -> Optional[str]:
        """Run the packet through every fault model on the cable."""
        verdict = None
        for model in self.fault_models:
            result = model.admit(packet, now_us, direction)
            if result == "drop":
                return "drop"
            if result is not None:
                verdict = result
        return verdict


def _prim_touches(prim, field_name: str) -> bool:
    """Conservative: does the primitive mention this standard-metadata
    field at all?"""
    for arg in prim.args:
        ref = getattr(arg, "header", None)
        if ref == "standard_metadata" and getattr(
            arg, "field", None
        ) == field_name:
            return True
    return False


def _burst_vec_ok(system: MantisSystem) -> bool:
    """Static gate for the vectorized burst traffic manager.

    The batched tail commits enqueues at the TM point, *before* the
    egress sweeps run; that reorder is unobservable only when no
    reachable egress action can drop and nothing anywhere can
    recirculate (a recirculated packet would re-enter ingress instead
    of staying enqueued).  The program is fixed at load and the
    control plane can only select among declared actions, so the scan
    over every table's action list (plus defaults) covers all runtime
    behavior."""
    program = system.asic.program

    def reachable_actions(control_name: str):
        decl = program.controls.get(control_name)
        names: set = set()
        if decl is None:
            return names
        for table_name in _tables_in(decl.body):
            table = program.tables.get(table_name)
            if table is None:
                return None
            names.update(table.action_names)
            if table.default_action is not None:
                names.add(table.default_action[0])
        return names

    ingress = reachable_actions("ingress")
    egress = reachable_actions("egress")
    if ingress is None or egress is None:
        return False
    for name in ingress | egress:
        action = program.actions.get(name)
        if action is None:
            return False
        for prim in action.body:
            if prim.name == "recirculate" or _prim_touches(
                prim, "recirculate_flag"
            ):
                return False
            if name in egress and (
                prim.name == "drop"
                or _prim_touches(prim, "drop_flag")
            ):
                return False
    return True


class _BurstTM:
    """Columnar traffic-manager tail for one coalesced burst.

    Passed to :meth:`SwitchAsic.process_batch` instead of the
    per-packet ``sink`` when :func:`_burst_vec_ok` holds for the
    switch's program.  ``admit`` performs, for all live lanes at once,
    exactly the state transitions the scalar sink interleaves per
    packet -- lazy departure drains, depth reads, capacity drops,
    the busy-until serialization chain, departure-deque appends, port
    counters, and delivery-event scheduling in lane order -- so burst
    delivery is bit-identical to the scalar path.  Per port the depth
    accounting runs as a prefix sum over arrival instants whenever the
    port stays continuously busy; otherwise that port's lanes replay
    the per-lane loop (still with the pipeline fully vectorized
    above)."""

    __slots__ = ("switch", "packets", "times")

    def __init__(self, switch: "FabricSwitch", packets, times):
        self.switch = switch
        self.packets = packets
        self.times = times

    # ---- scalar fallback (engine bailed out of the columnar tail) ----

    def sink(self, index: int, result) -> None:
        if result is not None:
            egress_port, packet = result
            self.switch._enqueue(egress_port, packet, self.times[index])

    # ---- batched traffic manager -------------------------------------

    def admit(self, lanes, ports_arr, times, sizes):
        """Enqueue the live lanes (``lanes is None`` = all) headed to
        ``ports_arr`` and return the queue depth each lane observed at
        its own arrival instant.  Only the columnar engine's vectorized
        tail calls this, so numpy comes from that engine."""
        from repro.switch.columnar import np, unique_sorted

        switch = self.switch
        times_arr = np.asarray(times, np.float64)
        if lanes is None:
            lane_idx = np.arange(len(ports_arr), dtype=np.int64)
        else:
            lane_idx = lanes
        t_all = times_arr[lane_idx]
        m = len(ports_arr)
        depths = np.zeros(m, np.int64)
        # (lane, arrival, egress_port, packet): deliveries are
        # scheduled after all ports commit, sorted by lane, so event
        # insertion order matches the scalar per-lane interleaving.
        pending: List[Tuple[int, float, int, Packet]] = []
        for port_index in unique_sorted(ports_arr).tolist():
            sel = np.nonzero(ports_arr == port_index)[0]
            self._admit_port(
                int(port_index), sel, lane_idx[sel], t_all[sel],
                sizes[sel], depths, pending,
            )
        pending.sort(key=lambda entry: entry[0])
        events = switch.events
        deliver = switch._deliver
        for _lane, arrival, port_index, packet in pending:
            events.schedule(
                arrival,
                lambda now2, p=packet, port_=port_index: deliver(
                    port_, p, now2
                ),
            )
        return depths

    def _admit_port(
        self, port_index, sel, lane_sel, t, sizes, depths, pending
    ) -> None:
        from repro.switch.columnar import np

        switch = self.switch
        port = switch._port(port_index)
        k = len(sel)
        old = (
            np.asarray(port.departs, np.float64)
            if port.departs else np.empty(0, np.float64)
        )
        old_live = len(old) - np.searchsorted(old, t, side="right")
        peer = switch.peers.get(port_index)
        down = not port.up or (peer is not None and not peer[2].up)
        rate = port.rate_bits_per_us
        capacity = port.config.queue_capacity_pkts
        if down:
            # The depth reads (and their drains) still happen; every
            # enqueue is then refused on the dead link.
            depths[sel] = old_live
            port.dropped += k
            self._commit(port_index, port, old, float(t[-1]), None)
            return
        ser = sizes * 8 / rate
        if rate > 0 and bool((sizes > 0).all()) and (
            k == 1 or bool((np.diff(t) >= 0).all())
        ):
            # Continuously-busy chain: depart[j] = depart[j-1] + ser[j]
            # degenerates to a prefix sum (np.cumsum accumulates left
            # to right, so the doubles match the scalar loop exactly).
            first = max(float(t[0]), port.busy_until) + float(ser[0])
            departs = np.cumsum(np.concatenate(([first], ser[1:])))
            busy_chain = k == 1 or bool(
                (t[1:] <= departs[:-1]).all()
            )
            if busy_chain:
                burst_live = np.arange(k) - np.searchsorted(
                    departs, t, side="right"
                )
                port_depths = old_live + burst_live
                if not bool((port_depths >= capacity).any()):
                    depths[sel] = port_depths
                    self._commit(
                        port_index, port, old, float(t[-1]), departs
                    )
                    port.busy_until = float(departs[-1])
                    port.tx_packets += k
                    port.tx_bytes += int(sizes.sum())
                    latency = port.config.latency_us
                    packets = self.packets
                    for pos in range(k):
                        pending.append((
                            int(lane_sel[pos]),
                            float(departs[pos]) + latency,
                            port_index,
                            packets[int(lane_sel[pos])],
                        ))
                    return
        # Generic per-lane replay: non-monotone arrivals, an idle gap
        # in the busy chain, or a capacity hit -- exact scalar
        # semantics, delivery still deferred to the sorted pass.
        self._admit_port_scalar(
            port_index, port, sel, lane_sel, t, sizes, depths, pending
        )

    def _admit_port_scalar(
        self, port_index, port, sel, lane_sel, t, sizes, depths, pending
    ) -> None:
        switch = self.switch
        drain = switch._drain_port
        capacity = port.config.queue_capacity_pkts
        rate = port.rate_bits_per_us
        latency = port.config.latency_us
        packets = self.packets
        for pos in range(len(sel)):
            now = float(t[pos])
            if port.departs:
                drain(port_index, port, now)
            depths[sel[pos]] = port.queued
            if port.queued >= capacity:
                port.dropped += 1
                continue
            size = int(sizes[pos])
            serialization = size * 8 / rate
            depart = max(now, port.busy_until) + serialization
            port.busy_until = depart
            port.queued += 1
            port.departs.append(depart)
            switch._departing.add(port_index)
            port.tx_packets += 1
            port.tx_bytes += size
            lane = int(lane_sel[pos])
            pending.append(
                (lane, depart + latency, port_index, packets[lane])
            )
        asic_ports = switch._asic_ports
        if port_index < len(asic_ports):
            asic_ports[port_index].queue_depth = port.queued

    def _commit(self, port_index, port, old, t_last, departs) -> None:
        """Fold a whole-port fast path into the lazy-queue state:
        retire everything due by the last arrival, splice the new
        departures on, republish the snapshot."""
        switch = self.switch
        keep_old = old[old > t_last]
        remaining = deque(keep_old.tolist())
        if departs is not None:
            remaining.extend(departs[departs > t_last].tolist())
        port.departs = remaining
        port.queued = len(remaining)
        if remaining:
            switch._departing.add(port_index)
        else:
            switch._departing.discard(port_index)
        asic_ports = switch._asic_ports
        if port_index < len(asic_ports):
            asic_ports[port_index].queue_depth = port.queued


class FabricSwitch:
    """One emulated Mantis switch inside a fabric.

    Owns the per-switch world: port states and their lazy queue
    accounting, attached hosts, switch-to-switch peer wiring, and the
    packet path into and out of its :class:`MantisSystem`'s ASIC.
    Hosts bind against this object (it exposes ``clock``, ``events``,
    ``send_to_switch``/``send_burst_to_switch``), so endpoint code is
    identical whether the switch stands alone or inside an N-switch
    topology.
    """

    def __init__(
        self,
        fabric: "NetworkSim",
        name: str,
        system: MantisSystem,
        default_port: Optional[PortConfig] = None,
    ):
        self.fabric = fabric
        self.name = name
        self.system = system
        self.clock = system.clock
        # Bound once: _ingress runs per delivered packet, and the
        # attribute chain through system.asic would be re-walked on the
        # simulator's hottest edge.  The ASIC's compiled pipeline is
        # likewise built once at load, so the whole per-packet path is
        # allocation- and lookup-free.
        self._process = system.asic.process
        self._process_batch = system.asic.process_batch
        self.events = fabric.scheduler.events
        self.default_port = default_port or PortConfig()
        self.ports: Dict[int, _PortState] = {}
        self.hosts: Dict[int, "HostLike"] = {}
        # port -> (peer switch, peer ingress port, link, peer port
        # state) for switch-to-switch cables; the state is resolved
        # once at wiring time so a hop never looks it up.
        self.peers: Dict[
            int, Tuple["FabricSwitch", int, Link, _PortState]
        ] = {}
        self.switch_drops = 0
        self.delivered = 0
        self.forwarded = 0  # packets handed to a peer switch
        # Ports with pending lazy departures; lets depth reads for
        # port A skip draining B's deque.
        self._departing: Set[int] = set()
        # The ASIC pulls live depths (lazy-drained to the exact packet
        # timestamp) instead of relying on pushed snapshots.
        system.asic.queue_model = self._queue_depth_at
        # The ASIC's port snapshot list (a stable object) that queue
        # accounting republishes depths into.
        self._asic_ports = system.asic.ports
        # Static per-program gate for the vectorized burst tail: when
        # no egress action can drop and nothing recirculates, burst
        # delivery runs through _BurstTM instead of a per-packet sink.
        self._burst_vec = _burst_vec_ok(system)
        # The agent as a schedulable actor; armed by the fabric's
        # run_until(agent=True).
        self.agent_actor = AgentActor(system.agent, name=f"{name}.agent")
        fabric.scheduler.spawn(self.agent_actor)
        fabric.scheduler.cancel(self.agent_actor)  # armed per run

    # ---- wiring ----------------------------------------------------------

    def configure_port(self, port: int, config: PortConfig) -> None:
        state = self.ports.get(port)
        if state is None:
            self.ports[port] = _PortState(config)
        else:
            # In place: peers hold a reference to this port's state.
            state.config = config
            state.rate_bits_per_us = config.bandwidth_gbps * 1000.0

    def _port(self, port: int) -> _PortState:
        if port not in self.ports:
            self.ports[port] = _PortState(self.default_port)
        return self.ports[port]

    def attach_host(self, host: "HostLike", port: int) -> None:
        if port in self.hosts:
            raise SimulationError(
                f"{self.name}: port {port} already has a host"
            )
        if port in self.peers:
            raise SimulationError(
                f"{self.name}: port {port} is an inter-switch link"
            )
        self.hosts[port] = host
        host.bind(self, port)

    def set_link_up(self, port: int, up: bool) -> None:
        """Fault injection: disable/enable a port's link (the
        Figure 16 experiment's 'switch API that disables ports')."""
        self._port(port).up = up

    def set_port_fault(
        self, port: int, model: Optional[LinkFaultModel]
    ) -> Optional[LinkFaultModel]:
        """Attach (or clear, with ``None``) a lossy-link model to a
        host-facing port; applies to both directions of that cable."""
        self._port(port).fault = model
        return model

    def _add_peer(self, port: int, peer: "FabricSwitch", peer_port: int,
                  link: Link) -> None:
        if port in self.hosts:
            raise SimulationError(
                f"{self.name}: port {port} already has a host"
            )
        if port in self.peers:
            raise SimulationError(
                f"{self.name}: port {port} already linked to "
                f"{self.peers[port][0].name}"
            )
        self.peers[port] = (peer, peer_port, link, peer._port(peer_port))

    # ---- queue accounting -------------------------------------------------

    def _drain_port(self, port_index: int, port: _PortState, now: float) -> None:
        """Retire departures due at or before ``now`` and republish the
        depth to the ASIC's port snapshot (kept for callers that read
        ``asic.ports[i].queue_depth`` directly)."""
        departs = port.departs
        while departs and departs[0] <= now:
            departs.popleft()
            port.queued -= 1
        if not departs:
            self._departing.discard(port_index)
        asic_ports = self._asic_ports
        if port_index < len(asic_ports):
            asic_ports[port_index].queue_depth = port.queued

    def _queue_depth_at(self, port_index: int, now: float) -> int:
        """``asic.queue_model``: the live depth of one port at ``now``."""
        port = self.ports.get(port_index) or self._port(port_index)
        if port.departs:
            self._drain_port(port_index, port, now)
        return port.queued

    # ---- packet path -------------------------------------------------------

    def send_to_switch(
        self, packet: Packet, ingress_port: int, delay_us: float = 0.0
    ) -> None:
        """A host puts a packet on the wire toward the switch."""
        port = self._port(ingress_port)
        if not port.up:
            port.rx_dropped += 1  # link down: the packet never arrives
            return
        arrival = (
            self.clock.now
            + delay_us
            + port.config.latency_us
            + packet.size_bytes * 8 / port.rate_bits_per_us
        )
        if (
            port.fault is not None
            and port.fault.admit(packet, arrival, "in") == "drop"
        ):
            return  # lost on the wire; counted by the fault model
        packet.fields["standard_metadata.ingress_port"] = ingress_port
        self.events.schedule(
            arrival, lambda now, p=packet, ps=port: self._arrive(ps, p, now)
        )

    def _arrive(self, port: _PortState, packet: Packet, now: float) -> None:
        """Wire arrival of one host packet: re-check the ingress port
        (it may have gone down mid-flight) before pipeline entry."""
        if not port.up:
            port.rx_dropped += 1
            return
        self._ingress(packet, now)

    def send_burst_to_switch(
        self,
        packets: Sequence[Packet],
        ingress_port: int,
        spacing_us: float = 0.0,
        delay_us: float = 0.0,
    ) -> None:
        """A host puts a burst on the wire as ONE event.

        Send times step by ``spacing_us`` (repeated addition, matching
        the per-packet accumulation a scalar sender would do); each
        packet's arrival adds the link latency and its own
        serialization.  The whole burst runs through
        :meth:`SwitchAsic.process_batch` when the first packet's
        arrival is due, with per-packet notional timestamps, so
        timestamps, queue depths, and drop decisions are identical to
        sending the packets individually.  The coalescing trade-off:
        foreign events with timestamps inside the burst window run
        after the burst instead of interleaved with it.

        A :class:`TemplateBurst` on a fault-free port stays unbuilt:
        its arrivals come from the template's size and the ingress
        port is recorded on the burst.  A fault model needs each
        packet for its drop and corruption draws, so there the lanes
        are built and take the per-packet loop.
        """
        if not packets:
            return
        port = self._port(ingress_port)
        if not port.up:
            port.rx_dropped += len(packets)
            return
        latency = port.config.latency_us
        rate = port.rate_bits_per_us
        fault = port.fault
        send = self.clock.now + delay_us
        if fault is None and isinstance(packets, TemplateBurst):
            serialization = packets.template.size_bytes * 8 / rate
            # accumulate() is the loop's repeated ``send += spacing_us``.
            sends = accumulate(repeat(spacing_us, packets.n - 1), initial=send)
            times = [s + latency + serialization for s in sends]
            packets.ingress_port = ingress_port
            self._schedule_burst(packets, times, port)
            return
        times: List[float] = []
        batch: List[Packet] = []
        for packet in packets:
            arrival = send + latency + packet.size_bytes * 8 / rate
            send += spacing_us
            # Same arrival-time gating and per-direction RNG order as
            # the scalar path, so drop decisions are bit-identical.
            if fault is not None and fault.admit(packet, arrival, "in") == "drop":
                continue
            packet.fields["standard_metadata.ingress_port"] = ingress_port
            times.append(arrival)
            batch.append(packet)
        if batch:
            self._schedule_burst(batch, times, port)

    def _schedule_burst(self, packets, times, port: _PortState) -> None:
        self.events.schedule(
            times[0],
            lambda _now, b=packets, t=times, ps=port: self._ingress_burst(
                b, t, ps
            ),
        )

    def _ingress(self, packet: Packet, now: float) -> None:
        result = self._process(packet)
        if result is None:
            self.switch_drops += 1
            return
        egress_port, packet = result
        self._enqueue(egress_port, packet, now)

    def _ingress_burst(
        self,
        packets: Sequence[Packet],
        times: List[float],
        port: Optional[_PortState] = None,
    ) -> None:
        if port is not None and not port.up:
            # The ingress port went down between send and arrival; the
            # whole in-flight burst is lost on the wire.
            port.rx_dropped += len(packets)
            return
        if self._burst_vec:
            # Batched traffic manager: the columnar engine keeps its
            # vectorized tail (causal depths as a per-port prefix sum)
            # and scalar engines use the same object's per-lane sink.
            results = self._process_batch(
                packets, times=times, tm=_BurstTM(self, packets, times)
            )
            self.switch_drops += results.count(None)
            return
        # The sink keeps queue accounting causal (packet i enqueued
        # before i+1 reads depths), which also pins the columnar engine
        # to its scalar traffic-manager tail: vectorized ingress sweeps
        # still run, only the per-packet delivery loop stays scalar.
        def sink(index: int, result) -> None:
            if result is None:
                self.switch_drops += 1
                return
            egress_port, packet = result
            self._enqueue(egress_port, packet, times[index])

        self._process_batch(packets, times=times, sink=sink)

    def _enqueue(self, egress_port: int, packet: Packet, now: float) -> None:
        port = self.ports.get(egress_port) or self._port(egress_port)
        if not port.up:
            port.dropped += 1
            return
        peer = self.peers.get(egress_port)
        if peer is not None and not peer[2].up:
            port.dropped += 1  # dead cable: lost on the wire
            return
        if port.departs:
            self._drain_port(egress_port, port, now)
        if port.queued >= port.config.queue_capacity_pkts:
            port.dropped += 1
            return
        serialization = packet.size_bytes * 8 / port.rate_bits_per_us
        depart = max(now, port.busy_until) + serialization
        port.busy_until = depart
        port.queued += 1
        port.departs.append(depart)
        self._departing.add(egress_port)
        asic_ports = self._asic_ports
        if egress_port < len(asic_ports):
            asic_ports[egress_port].queue_depth = port.queued
        arrival = depart + port.config.latency_us
        self.events.schedule(
            arrival, lambda now2, p=packet, port_=egress_port: self._deliver(
                port_, p, now2
            )
        )
        port.tx_packets += 1
        port.tx_bytes += packet.size_bytes

    def _deliver(self, port_index: int, packet: Packet, now: float) -> None:
        peer = self.peers.get(port_index)
        if peer is not None:
            peer_switch, peer_port, link, peer_state = peer
            if not link.up or not peer_state.up:
                self._port(port_index).dropped += 1
                return
            if link.fault_models:
                direction = "a2b" if link.switch_a is self else "b2a"
                if link.admit(packet, now, direction) == "drop":
                    return  # lost on the wire; the fault model counts it
            # Next hop: the wire traversal (serialization + latency)
            # was already paid at this switch's egress queue, so the
            # packet enters the peer's pipeline at the arrival instant.
            self.forwarded += 1
            packet.fields["standard_metadata.ingress_port"] = peer_port
            peer_switch._ingress(packet, now)
            return
        port_state = self.ports.get(port_index) or self._port(port_index)
        if (
            port_state.fault is not None
            and port_state.fault.admit(packet, now, "out") == "drop"
        ):
            return  # lost on the last hop toward the host
        self.delivered += 1
        host = self.hosts.get(port_index)
        if host is not None:
            host.receive(packet, now)

    # ---- inspection ------------------------------------------------------

    def packet_stats(self) -> Dict[str, int]:
        """Per-switch event/packet ledger for fleet-run summaries."""
        tx_packets = tx_bytes = egress_dropped = rx_dropped = 0
        for port in self.ports.values():
            tx_packets += port.tx_packets
            tx_bytes += port.tx_bytes
            egress_dropped += port.dropped
            rx_dropped += port.rx_dropped
        return {
            "delivered": self.delivered,
            "forwarded": self.forwarded,
            "switch_drops": self.switch_drops,
            "tx_packets": tx_packets,
            "tx_bytes": tx_bytes,
            "egress_dropped": egress_dropped,
            "rx_dropped": rx_dropped,
        }

    def queue_depth(self, port: int) -> int:
        port_state = self._port(port)
        if port_state.departs:
            self._drain_port(port, port_state, self.clock.now)
        return port_state.queued

    def port_stats(self, port: int) -> _PortState:
        return self._port(port)

    def __repr__(self) -> str:
        return (
            f"FabricSwitch({self.name!r}, hosts={sorted(self.hosts)}, "
            f"links={sorted(self.peers)})"
        )


class HostLike:
    """Interface for simulation endpoints (see :mod:`repro.net.hosts`).

    ``bind`` receives the sending surface -- a :class:`FabricSwitch`
    (or the legacy :class:`NetworkSim` shim, which forwards to its one
    switch); both expose ``clock``, ``events``, ``send_to_switch`` and
    ``send_burst_to_switch``."""

    def bind(self, sim: "FabricSwitch", port: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def receive(self, packet: Packet, now: float) -> None:  # pragma: no cover
        raise NotImplementedError
