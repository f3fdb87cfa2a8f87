"""Use case #6: LinkGuardian-style lossy-link protection.

Gray failures are not only dead cables: a link can stay *up* while
silently dropping or corrupting a fraction of its packets (optical
degradation, marginal transceivers).  TCP recovers each loss by
timeout, so even a 1e-2 loss rate collapses throughput.  This app
detects such links from the data plane and reacts:

- **detection**: every link carries a sequence-numbered probe stream
  (:class:`~repro.net.hosts.SeqProbeGenerator`, one probe per
  microsecond by default).  The terminating switch's ``track_probe``
  action computes, per ingress port, the gap between each probe's
  sequence number and the previous one (``subtract``-based, entirely
  in the pipeline) and accumulates delivered-vs-missing counts in the
  ``rx_seen``/``rx_gaps`` registers.
- **reaction**: ``guard_watch`` polls both registers serializably,
  accumulates the marginals until at least ``min_window_probes``
  probes are represented, and estimates the effective loss rate
  ``gaps / (gaps + seen)``.  Above ``loss_threshold`` it flips the
  protection malleable: every monitored route whose primary egress is
  the lossy port is rewritten to the port's backup (the parallel link
  of the ``fabric_pair`` topology), or -- in ``protect_mode
  "disable"`` -- the port is administratively shut.  After
  ``clean_windows`` consecutive windows at or below
  ``restore_threshold`` the original routing is restored.

Measurement is symmetric: each side estimates the loss of a link from
the probe stream it *receives*, and the fault model degrades both
directions at the same rate, so the sender-side agent observes the
loss its own data path suffers (LinkGuardian's receiver-side detection
with its notification channel collapsed into the symmetric-loss
modeling assumption).

Corruption robustness: a corrupted probe sequence number can make the
32-bit gap arithmetic wrap to a huge value; the reaction clamps each
marginal gap to ``max(4 * (seen + 1), 64)`` so one flipped bit cannot
fake (or mask) a sustained loss signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.agent.agent import ReactionContext
from repro.net.hosts import SeqProbeGenerator, SinkHost, UdpSender
from repro.net.sim import Link, LinkFaultModel, NetworkSim
from repro.net.tcp import TcpFlow, TcpSink
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.clock import SimClock
from repro.system import MantisSystem

GUARD_PROTO = 252
MASK32 = 0xFFFFFFFF

# Addressing: data flows h0 -> s0 -> s1 -> h1; probe streams terminate
# at the far switch, one sink address per (switch, link) pair, so each
# switch's probe_filter eats exactly the probes measuring its own
# ingress and routes the rest (same scheme as the failover app).
DATA_DST = 0x0B000001
GUARD_SINK_BASE = 0x0BFE0000


def guard_sink_addr(switch_index: int, link_index: int) -> int:
    """The probe sink address terminating at ``switch_index`` after
    crossing inter-switch link ``link_index``."""
    return GUARD_SINK_BASE + (switch_index << 8) + link_index


LINKGUARD_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; proto : 8; }
}
header ipv4_t ipv4;
header_type guard_t { fields { seq : 32; } }
header guard_t guard;
header_type scratch_t { fields { last : 32; gap : 32; acc : 32; } }
metadata scratch_t scratch;

register last_seq { width : 32; instance_count : 16; }
register rx_seen { width : 32; instance_count : 16; }
register rx_gaps { width : 32; instance_count : 16; }

action track_probe() {
    register_read(scratch.last, last_seq, standard_metadata.ingress_port);
    register_write(last_seq, standard_metadata.ingress_port, guard.seq);
    subtract(scratch.gap, guard.seq, scratch.last);
    subtract(scratch.gap, scratch.gap, 1);
    register_read(scratch.acc, rx_gaps, standard_metadata.ingress_port);
    add(scratch.acc, scratch.acc, scratch.gap);
    register_write(rx_gaps, standard_metadata.ingress_port, scratch.acc);
    register_read(scratch.acc, rx_seen, standard_metadata.ingress_port);
    add(scratch.acc, scratch.acc, 1);
    register_write(rx_seen, standard_metadata.ingress_port, scratch.acc);
    drop();
}
action skip() { no_op(); }
table probe_filter {
    reads { ipv4.proto : exact; ipv4.dstAddr : exact; }
    actions { track_probe; skip; }
    default_action : skip();
    size : 16;
}

action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
malleable table route {
    reads { ipv4.dstAddr : exact; }
    actions { forward; _drop; }
    default_action : _drop();
    size : 256;
}

control ingress {
    apply(probe_filter);
    apply(route);
}

reaction guard_watch(reg rx_seen[0:15], reg rx_gaps[0:15]) {
    // Host-side implementation (Python): loss-rate estimation needs
    // floating division; protection flips the malleable route table.
}
"""


@dataclass
class GuardState:
    """Detector + protection state for one guarded ingress port."""

    backup_port: int
    prev_seen: Optional[int] = None
    prev_gaps: int = 0
    acc_seen: int = 0
    acc_gaps: int = 0
    protected: bool = False
    clean_streak: int = 0
    loss_estimate: float = 0.0


class LinkGuardApp:
    """The detector + protection loop around ``LINKGUARD_P4R``."""

    def __init__(
        self,
        guards: Dict[int, int],
        dst_routes: Dict[int, int],
        probe_sink_addrs: Tuple[int, ...] = (),
        static_routes: Optional[Dict[int, int]] = None,
        loss_threshold: float = 5e-3,
        restore_threshold: float = 1e-3,
        min_window_probes: int = 256,
        clean_windows: int = 3,
        protect_mode: str = "reroute",
        port_control: Optional[Callable[[int, bool], None]] = None,
        system: Optional[MantisSystem] = None,
    ):
        if protect_mode not in ("reroute", "disable"):
            raise ValueError(f"unknown protect_mode {protect_mode!r}")
        self.system = system or MantisSystem.from_source(LINKGUARD_P4R)
        # port -> backup port: the protection fabric (parallel link).
        self.guards: Dict[int, GuardState] = {
            port: GuardState(backup_port=backup)
            for port, backup in guards.items()
        }
        # Monitored routes: dst -> primary egress port.  Protection
        # rewrites every dst whose primary is the lossy port.
        self.dst_routes = dict(dst_routes)
        self.probe_sink_addrs = tuple(probe_sink_addrs)
        # Probe routes pinned per link: when a link degrades, its
        # probes must keep crossing it (they are the measurement).
        self.static_routes = dict(static_routes or {})
        self.loss_threshold = loss_threshold
        self.restore_threshold = restore_threshold
        self.min_window_probes = min_window_probes
        self.clean_windows = clean_windows
        self.protect_mode = protect_mode
        self.port_control = port_control
        self._route_entries: Dict[int, int] = {}  # dst -> user entry id
        self.protect_times: Dict[int, List[float]] = {}
        self.restore_times: Dict[int, List[float]] = {}
        self.loss_samples: List[Tuple[float, int, float]] = []
        self.system.agent.attach_python("guard_watch", self._reaction)

    def prologue(self) -> None:
        self.system.agent.prologue()
        for sink_addr in self.probe_sink_addrs:
            self.system.driver.add_entry(
                "probe_filter", [GUARD_PROTO, sink_addr], "track_probe"
            )
        handle = self.system.agent.table("route")
        for dst_addr, port in self.static_routes.items():
            handle.add([dst_addr], "forward", [port])
        for dst_addr, port in self.dst_routes.items():
            self._route_entries[dst_addr] = handle.add(
                [dst_addr], "forward", [port]
            )
        self.system.agent.run_iteration()  # commit initial routes

    # ---- the reaction -------------------------------------------------------

    def _reaction(self, ctx: ReactionContext) -> None:
        seen_reg = ctx.args["rx_seen"]
        gaps_reg = ctx.args["rx_gaps"]
        for port, state in self.guards.items():
            seen = seen_reg.get(port, 0)
            gaps = gaps_reg.get(port, 0)
            if state.prev_seen is None:
                state.prev_seen = seen
                state.prev_gaps = gaps
                continue
            d_seen = (seen - state.prev_seen) & MASK32
            d_gaps = (gaps - state.prev_gaps) & MASK32
            state.prev_seen = seen
            state.prev_gaps = gaps
            # Clamp corruption-induced wraparound (see module docs).
            cap = max(4 * (d_seen + 1), 64)
            if d_gaps > cap:
                d_gaps = cap
            state.acc_seen += d_seen
            state.acc_gaps += d_gaps
            total = state.acc_seen + state.acc_gaps
            if total < self.min_window_probes:
                continue
            loss = state.acc_gaps / total
            state.loss_estimate = loss
            state.acc_seen = 0
            state.acc_gaps = 0
            self.loss_samples.append((ctx.now, port, loss))
            if not state.protected:
                if loss > self.loss_threshold:
                    self._protect(ctx, port, state)
            elif loss <= self.restore_threshold:
                state.clean_streak += 1
                if state.clean_streak >= self.clean_windows:
                    self._restore(ctx, port, state)
            else:
                state.clean_streak = 0

    def _protect(self, ctx: ReactionContext, port: int,
                 state: GuardState) -> None:
        state.protected = True
        state.clean_streak = 0
        handle = ctx.table("route")
        for dst_addr, primary in self.dst_routes.items():
            if primary == port:
                handle.modify(
                    self._route_entries[dst_addr], args=[state.backup_port]
                )
        if self.protect_mode == "disable" and self.port_control is not None:
            self.port_control(port, False)
        self.protect_times.setdefault(port, []).append(ctx.now)

    def _restore(self, ctx: ReactionContext, port: int,
                 state: GuardState) -> None:
        state.protected = False
        state.clean_streak = 0
        handle = ctx.table("route")
        for dst_addr, primary in self.dst_routes.items():
            if primary == port:
                handle.modify(self._route_entries[dst_addr], args=[primary])
        if self.protect_mode == "disable" and self.port_control is not None:
            self.port_control(port, True)
        self.restore_times.setdefault(port, []).append(ctx.now)

    @property
    def protections(self) -> int:
        return sum(len(times) for times in self.protect_times.values())

    @property
    def restores(self) -> int:
        return sum(len(times) for times in self.restore_times.values())


@dataclass
class LinkGuardScenario:
    """The wired-up two-switch lossy-link scenario."""

    fabric: NetworkSim
    apps: Tuple[LinkGuardApp, LinkGuardApp]
    probes: List[SeqProbeGenerator]
    link0: Link
    link1: Link
    fault: Optional[LinkFaultModel]
    # transport endpoints (tcp: flow+tcp_sink; udp: sender+udp_sink)
    flow: Optional[TcpFlow] = None
    tcp_sink: Optional[TcpSink] = None
    sender: Optional[UdpSender] = None
    udp_sink: Optional[SinkHost] = None

    @property
    def clock(self) -> SimClock:
        return self.fabric.clock

    @property
    def systems(self) -> Tuple[MantisSystem, MantisSystem]:
        return (self.apps[0].system, self.apps[1].system)

    @property
    def delivered_packets(self) -> int:
        if self.flow is not None:
            return self.flow.acked
        return self.udp_sink.rx_packets

    @property
    def sent_packets(self) -> int:
        if self.flow is not None:
            return self.flow.tx_packets
        return self.sender.tx_packets


def build_linkguard_scenario(
    loss_rate: float,
    corrupt_rate: float = 0.0,
    fault_seed: int = 7,
    fault_from_us: Optional[float] = None,
    fault_until_us: Optional[float] = None,
    probe_period_us: float = 1.0,
    transport: str = "tcp",
    data_rate_gbps: float = 8.0,
    ack_latency_us: float = 25.0,
    transfer_packets: Optional[int] = 64,
    pacing_sleep_us: float = 0.0,
    loss_threshold: float = 5e-3,
    min_window_probes: int = 256,
    clean_windows: int = 3,
    system_kwargs: Optional[dict] = None,
) -> LinkGuardScenario:
    """Two Mantis switches, two parallel links, data h0 -> s0 -> s1 ->
    h1 over link 0, and a seeded :class:`LinkFaultModel` degrading
    link 0 at ``loss_rate``/``corrupt_rate`` (optionally windowed via
    ``fault_from_us``/``fault_until_us``).

    Each direction of each link carries one probe stream; both
    switches run :class:`LinkGuardApp` with the parallel link as the
    backup, so s0's agent reroutes the data path off the degraded
    link once its loss estimate crosses the threshold.
    """
    clock = SimClock()
    fabric = NetworkSim(clock=clock)
    kwargs = dict(system_kwargs or {})
    kwargs.setdefault("pacing_sleep_us", pacing_sleep_us)
    systems = [
        MantisSystem.from_source(LINKGUARD_P4R, clock=clock, **kwargs)
        for _ in range(2)
    ]
    apps: List[LinkGuardApp] = []
    for index in range(2):
        far = 1 - index
        apps.append(LinkGuardApp(
            guards={0: 1, 1: 0},
            # Only s0 steers the data flow; s1 delivers to its host.
            dst_routes={DATA_DST: 0 if index == 0 else 2},
            probe_sink_addrs=(
                guard_sink_addr(index, 0), guard_sink_addr(index, 1)
            ),
            static_routes={
                guard_sink_addr(far, 0): 0, guard_sink_addr(far, 1): 1,
            },
            loss_threshold=loss_threshold,
            min_window_probes=min_window_probes,
            clean_windows=clean_windows,
            system=systems[index],
        ))
    s0 = fabric.add_switch(systems[0], "s0")
    s1 = fabric.add_switch(systems[1], "s1")
    link0 = fabric.connect(s0, 0, s1, 0)
    link1 = fabric.connect(s0, 1, s1, 1)

    fault: Optional[LinkFaultModel] = None
    if loss_rate > 0.0 or corrupt_rate > 0.0:
        fault = LinkFaultModel(
            seed=fault_seed,
            drop_rate=loss_rate,
            corrupt_rate=corrupt_rate,
            name="link0-degrade",
        )
        fabric.install_link_fault(
            link0, fault, at_us=fault_from_us, until_us=fault_until_us
        )

    scenario = LinkGuardScenario(
        fabric=fabric,
        apps=(apps[0], apps[1]),
        probes=[],
        link0=link0,
        link1=link1,
        fault=fault,
    )
    if transport == "tcp":
        # A WAN-ish RTT makes the flow window-limited: per the Mathis
        # relation, sustained throughput then scales as 1/sqrt(loss),
        # so a lossy link visibly collapses it (the effect the
        # benchmark curves measure) instead of hiding behind the
        # link-bandwidth bottleneck.  max_cwnd stays below the egress
        # queue capacity so slow start cannot overflow the queue --
        # without that cap the overshoot's burst losses dominate every
        # run and drown the link-loss signal.
        flow = TcpFlow(
            "h0",
            {"ipv4.srcAddr": 0x0B000000, "ipv4.dstAddr": DATA_DST,
             "ipv4.proto": 6},
            ack_latency_us=ack_latency_us,
            max_cwnd=128.0,
            transfer_packets=transfer_packets,
        )
        s0.attach_host(flow, 2)
        tcp_sink = TcpSink("h1")
        tcp_sink.register_flow(0x0B000000, flow)
        s1.attach_host(tcp_sink, 2)
        scenario.flow = flow
        scenario.tcp_sink = tcp_sink
    elif transport == "udp":
        sender = UdpSender(
            "h0",
            {"ipv4.srcAddr": 0x0B000000, "ipv4.dstAddr": DATA_DST,
             "ipv4.proto": 17},
            rate_gbps=data_rate_gbps,
        )
        s0.attach_host(sender, 2)
        udp_sink = SinkHost("h1")
        s1.attach_host(udp_sink, 2)
        scenario.sender = sender
        scenario.udp_sink = udp_sink
    else:
        raise ValueError(f"unknown transport {transport!r}")

    for source, far in ((s0, 1), (s1, 0)):
        for link_index in range(2):
            probe = SeqProbeGenerator(
                f"probe-{source.name}-l{link_index}",
                {"ipv4.proto": GUARD_PROTO,
                 "ipv4.srcAddr": 0x0B00FE00 + link_index,
                 "ipv4.dstAddr": guard_sink_addr(far, link_index)},
                period_us=probe_period_us,
            )
            source.attach_host(probe, 3 + link_index)
            scenario.probes.append(probe)
    return scenario


def run_linkguard(
    loss_rate: float,
    protection: bool,
    duration_us: float = 4000.0,
    corrupt_rate: float = 0.0,
    fault_seed: int = 7,
    probe_period_us: float = 1.0,
    transport: str = "tcp",
    transfer_packets: Optional[int] = 64,
    **build_kwargs,
) -> Dict[str, object]:
    """One end-to-end run at one loss rate; ``protection=False`` is
    the no-reactive-control-plane baseline (agents frozen)."""
    scenario = build_linkguard_scenario(
        loss_rate,
        corrupt_rate=corrupt_rate,
        fault_seed=fault_seed,
        probe_period_us=probe_period_us,
        transport=transport,
        transfer_packets=transfer_packets,
        **build_kwargs,
    )
    fabric = scenario.fabric
    app0, app1 = scenario.apps
    app0.prologue()
    app1.prologue()
    start = fabric.clock.now
    for probe in scenario.probes:
        probe.start()
    if scenario.flow is not None:
        scenario.flow.start()
    else:
        scenario.sender.start()
    fabric.run_until(start + duration_us, agent=protection)

    delivered = scenario.delivered_packets
    size = (
        scenario.flow.size_bytes if scenario.flow is not None
        else scenario.sender.size_bytes
    )
    throughput_gbps = delivered * size * 8 / (duration_us * 1000.0)
    result: Dict[str, object] = {
        "loss_rate": loss_rate,
        "protection": protection,
        "duration_us": duration_us,
        "sent_packets": scenario.sent_packets,
        "delivered_packets": delivered,
        "throughput_gbps": throughput_gbps,
        "avg_fct_us": (
            scenario.flow.avg_fct_us if scenario.flow is not None else None
        ),
        "transfers_completed": (
            scenario.flow.transfers_completed
            if scenario.flow is not None else None
        ),
        "retransmits": (
            scenario.flow.retransmits if scenario.flow is not None else None
        ),
        "protections": app0.protections if protection else 0,
        "restores": app0.restores if protection else 0,
        "s0_loss_estimate": app0.guards[0].loss_estimate,
        "protect_time_us": (
            app0.protect_times.get(0, [None])[0] if protection else None
        ),
        "link_fault_dropped": scenario.link0.fault_dropped,
        "link_fault_corrupted": scenario.link0.fault_corrupted,
        "drop_totals": fabric.drop_totals(),
        "links": fabric.link_fault_summary(),
    }
    return result


def run_linkguard_sweep(
    loss_rates: Tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1),
    duration_us: float = 4000.0,
    gate_loss: float = 1e-2,
    **run_kwargs,
) -> Dict[str, object]:
    """The FCT/throughput-vs-loss-rate curves: no-protection baseline
    vs Mantis protection at each loss rate
    (``benchmarks/test_linkguard_protection.py`` renders them).

    The acceptance gate: at ``gate_loss`` the protected run must
    deliver >= 2x the baseline throughput or <= 0.5x its FCT.
    """
    points: Dict[str, Dict[str, object]] = {}
    for loss in loss_rates:
        baseline = run_linkguard(
            loss, protection=False, duration_us=duration_us, **run_kwargs
        )
        protected = run_linkguard(
            loss, protection=True, duration_us=duration_us, **run_kwargs
        )
        base_tput = baseline["throughput_gbps"]
        prot_tput = protected["throughput_gbps"]
        throughput_ratio = (
            prot_tput / base_tput if base_tput > 0 else float("inf")
        )
        base_fct = baseline["avg_fct_us"]
        prot_fct = protected["avg_fct_us"]
        fct_ratio = (
            prot_fct / base_fct
            if (base_fct and prot_fct) else None
        )
        points[repr(loss)] = {
            "baseline": baseline,
            "protected": protected,
            "throughput_ratio": throughput_ratio,
            "fct_ratio": fct_ratio,
        }
    gate_point = points.get(repr(gate_loss))
    gate: Dict[str, object] = {"loss_rate": gate_loss, "pass": None}
    if gate_point is not None:
        tput_ok = gate_point["throughput_ratio"] >= 2.0
        fct_ok = (
            gate_point["fct_ratio"] is not None
            and gate_point["fct_ratio"] <= 0.5
        )
        gate.update(
            throughput_ratio=gate_point["throughput_ratio"],
            fct_ratio=gate_point["fct_ratio"],
            throughput_pass=tput_ok,
            fct_pass=fct_ok,
        )
        gate["pass"] = bool(tput_ok or fct_ok)
    return {
        "bench": "linkguard",
        "duration_us": duration_us,
        "loss_rates": list(loss_rates),
        "points": points,
        "gate": gate,
    }
