"""Use case #2: route recomputation on gray failures (Section 8.3.2).

Every neighbor of the switch runs a heartbeat generator emitting
high-priority packets every ``T_s`` (1 us in the paper's tests).  The
data plane accumulates a per-port heartbeat count; the reaction polls
the counts (serializably) and compares the marginal count of each port
against the expectation ``delta = floor(eta * T_d / T_s)`` where
``T_d`` is the time since the last dialogue.  Two consecutive
violations mark the link as down, trigger a route recomputation on
the control plane (:class:`RouteManager`: one BFS per destination over
the switch's :class:`~repro.net.fabric_builder.FabricSpec` view, with
the failed ports cut), and install the new routes into the malleable
routing table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agent.agent import ReactionContext
from repro.net.fabric_builder import FabricSpec, SwitchTopology
from repro.net.hosts import HeartbeatGenerator, SinkHost, UdpSender
from repro.net.routing import first_hop_ports, hop_distances
from repro.net.sim import NetworkSim
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.clock import SimClock
from repro.system import MantisSystem

HEARTBEAT_PROTO = 253
MAX_WATCHED_PORTS = 16

# Multi-hop scenario addressing: data flows h0 -> s0 -> s1 -> h1;
# heartbeat probes are addressed to the *terminating* switch, one sink
# address per (switch, inter-switch link) pair, so each switch's
# hb_filter counts exactly the probes that end on it and forwards the
# rest (a transit switch must not eat its neighbor's probes).
H1_ADDR = 0x0A000001
HB_SINK_BASE = 0x0AFE0000


def hb_sink_addr(switch_index: int, link_index: int) -> int:
    """The probe sink address terminating at ``switch_index`` after
    crossing inter-switch link ``link_index``."""
    return HB_SINK_BASE + (switch_index << 8) + link_index

FAILOVER_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; proto : 8; }
}
header ipv4_t ipv4;
header_type tmp_t { fields { cnt : 32; } }
metadata tmp_t tmp;

register hb_count { width : 32; instance_count : 16; }

action count_hb() {
    register_read(tmp.cnt, hb_count, standard_metadata.ingress_port);
    add(tmp.cnt, tmp.cnt, 1);
    register_write(hb_count, standard_metadata.ingress_port, tmp.cnt);
    drop();
}
action skip() { no_op(); }
table hb_filter {
    reads { ipv4.proto : exact; ipv4.dstAddr : exact; }
    actions { count_hb; skip; }
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
    apply(hb_filter);
    apply(route);
}

reaction hb_watch(reg hb_count[0:15]) {
    // Host-side implementation (Python): threshold comparison and
    // route recomputation need floating division and graph search.
}
"""


@dataclass
class PortWatch:
    """Detector state for one watched port."""

    prev_count: int = 0
    violations: int = 0
    down: bool = False


class RouteManager:
    """Control-plane routing for one switch's :class:`SwitchTopology`.

    Tie rule: each destination in ``view.dest_map`` routes through the
    *lowest* port among its equal-cost first hops, with the failed
    ports' edges cut from the graph.  It is a stated policy, not an
    accident of graph insertion order; on every topology family the
    repo builds (neighbor rings, stars, leaf-spines, parallel-link
    pairs, fat-trees) it picks the same port as the library
    shortest-path first hop it replaced.
    """

    def __init__(self, view: SwitchTopology):
        self.view = view
        self.failed_ports: set = set()

    def fail_port(self, port: int) -> None:
        self.failed_ports.add(port)

    def compute_routes(self) -> Dict[int, Optional[int]]:
        """dst address -> egress port (None if unreachable)."""
        view = self.view
        cut = {
            frozenset((view.switch_node, neighbor))
            for neighbor, port in view.port_map.items()
            if port in self.failed_ports
        }
        routes: Dict[int, Optional[int]] = {}
        for dst_addr, dst_node in view.dest_map.items():
            ports = first_hop_ports(
                view, hop_distances(view.graph, dst_node, cut), cut
            )
            routes[dst_addr] = ports[0] if ports else None
        return routes


class GrayFailureApp:
    """The full detector + reroute loop of Section 8.3.2."""

    def __init__(
        self,
        route_manager: RouteManager,
        watched_ports: List[int],
        heartbeat_period_us: float = 1.0,
        eta: float = 0.5,
        consecutive_violations: int = 2,
        system: Optional[MantisSystem] = None,
        hb_sink_addrs: Sequence[int] = (0,),
        static_routes: Optional[Dict[int, int]] = None,
    ):
        self.system = system or MantisSystem.from_source(FAILOVER_P4R)
        self.routes = route_manager
        self.watched_ports = list(watched_ports)
        self.heartbeat_period_us = heartbeat_period_us
        self.eta = eta
        self.consecutive_violations = consecutive_violations
        # Heartbeat destinations that terminate at THIS switch; probes
        # for other switches fall through hb_filter and get routed.
        self.hb_sink_addrs = list(hb_sink_addrs)
        # dst -> egress port entries pinned outside the recompute loop
        # (per-link probe routes: when the link dies the probes should
        # die on the wire, not detour around the failure).
        self.static_routes = dict(static_routes or {})
        self.watch: Dict[int, PortWatch] = {
            port: PortWatch() for port in watched_ports
        }
        self._last_poll_us: Optional[float] = None
        self._route_entries: Dict[int, int] = {}  # dst -> user entry id
        self.detected_ports: Dict[int, float] = {}
        self.reroute_times: Dict[int, float] = {}
        self.recomputations = 0
        self.system.agent.attach_python("hb_watch", self._reaction)

    def prologue(self) -> None:
        self.system.agent.prologue()
        for sink_addr in self.hb_sink_addrs:
            self.system.driver.add_entry(
                "hb_filter", [HEARTBEAT_PROTO, sink_addr], "count_hb"
            )
        handle = self.system.agent.table("route")
        for dst_addr, port in self.static_routes.items():
            handle.add([dst_addr], "forward", [port])
        for dst_addr, port in self.routes.compute_routes().items():
            if port is None:
                continue
            self._route_entries[dst_addr] = handle.add(
                [dst_addr], "forward", [port]
            )
        self.system.agent.run_iteration()  # commit initial routes

    # ---- the reaction -------------------------------------------------------

    def _reaction(self, ctx: ReactionContext) -> None:
        counts = ctx.args["hb_count"]
        now = ctx.now
        if self._last_poll_us is None:
            self._last_poll_us = now
            for port in self.watched_ports:
                self.watch[port].prev_count = counts.get(port, 0)
            return
        dialogue_gap = now - self._last_poll_us
        self._last_poll_us = now
        # delta = floor(eta * T_d / T_s), clamped to >= 1: with a
        # dialogue gap shorter than T_s/eta the paper's formula gives
        # 0 and the detector would be blind; requiring at least one
        # heartbeat per window keeps it live (deviation documented in
        # EXPERIMENTS.md).
        delta = max(
            1,
            math.floor(self.eta * dialogue_gap / self.heartbeat_period_us),
        )
        failed: List[int] = []
        for port in self.watched_ports:
            watch = self.watch[port]
            if watch.down:
                continue
            marginal = (counts.get(port, 0) - watch.prev_count) & 0xFFFFFFFF
            watch.prev_count = counts.get(port, 0)
            if marginal < delta:
                watch.violations += 1
            else:
                watch.violations = 0
            if watch.violations >= self.consecutive_violations:
                watch.down = True
                failed.append(port)
                self.detected_ports[port] = now
        if failed:
            self._reroute(ctx, failed)

    def _reroute(self, ctx: ReactionContext, failed_ports: List[int]) -> None:
        for port in failed_ports:
            self.routes.fail_port(port)
        self.recomputations += 1
        handle = ctx.table("route")
        for dst_addr, port in self.routes.compute_routes().items():
            entry = self._route_entries.get(dst_addr)
            if port is None:
                if entry is not None:
                    handle.delete(entry)
                    self._route_entries.pop(dst_addr, None)
                continue
            if entry is None:
                self._route_entries[dst_addr] = handle.add(
                    [dst_addr], "forward", [port]
                )
            else:
                handle.modify(entry, args=[port])
        for port in failed_ports:
            # New rules are prepared now and commit at this iteration's
            # vv flip, ~one table update later.
            self.reroute_times[port] = ctx.now


@dataclass
class MultiHopScenario:
    """The wired-up two-switch failover scenario (Section 8.3.2 scaled
    to a fabric): everything needed to drive and inspect the run."""

    fabric: NetworkSim
    apps: Tuple[GrayFailureApp, GrayFailureApp]
    sender: UdpSender
    sink: SinkHost
    generators: List[HeartbeatGenerator]

    @property
    def clock(self) -> SimClock:
        return self.fabric.clock


def build_multihop_failover(
    heartbeat_period_us: float = 1.0,
    eta: float = 0.5,
    data_rate_gbps: float = 4.0,
    data_burst_size: int = 1,
    sink_window_us: float = 20.0,
) -> MultiHopScenario:
    """Two Mantis switches, two parallel inter-switch links, data
    flowing h0 -> s0 -> s1 -> h1 over link 0.

    Both switches run the gray-failure detector against per-link
    heartbeat probes crossing the fabric in both directions; cutting
    link 0 starves the probes on both sides, each agent independently
    detects the loss on its ingress port 0, and s0's reroute moves the
    data path onto link 1 -- multi-hop failover with *every* agent a
    scheduled actor on the one fabric timeline.
    """
    spec = FabricSpec("multihop-failover")
    spec.add_switch("s0")
    spec.add_switch("s1")
    for index in range(2):
        spec.add_link("s0", index, "s1", index)
    spec.add_host("h0", "s0", 2)
    spec.add_host("h1", "s1", 2, addr=H1_ADDR)
    built = spec.build(FAILOVER_P4R)
    apps: List[GrayFailureApp] = []
    for index, name in enumerate(("s0", "s1")):
        far = 1 - index
        apps.append(GrayFailureApp(
            RouteManager(spec.switch_view(name)),
            watched_ports=[0, 1],
            heartbeat_period_us=heartbeat_period_us,
            eta=eta,
            system=built.system(name),
            # Count probes addressed to me; pin probe routes to their
            # own link so a dead link's probes die on the wire instead
            # of detouring.
            hb_sink_addrs=[hb_sink_addr(index, 0), hb_sink_addr(index, 1)],
            static_routes={hb_sink_addr(far, 0): 0, hb_sink_addr(far, 1): 1},
        ))
    s0 = built.switch("s0")
    s1 = built.switch("s1")

    sender = UdpSender(
        "h0",
        {"ipv4.srcAddr": 0x0A000000, "ipv4.dstAddr": H1_ADDR,
         "ipv4.proto": 17},
        rate_gbps=data_rate_gbps,
        burst_size=data_burst_size,
    )
    built.attach_host("h0", sender)
    sink = SinkHost("h1", window_us=sink_window_us)
    built.attach_host("h1", sink)

    generators: List[HeartbeatGenerator] = []
    for source, far in ((s0, 1), (s1, 0)):
        for link_index in range(2):
            generator = HeartbeatGenerator(
                f"hb-{source.name}-l{link_index}",
                {"ipv4.proto": HEARTBEAT_PROTO,
                 "ipv4.srcAddr": 0x0A00FE00 + link_index,
                 "ipv4.dstAddr": hb_sink_addr(far, link_index)},
                period_us=heartbeat_period_us,
            )
            source.attach_host(generator, 3 + link_index)
            generators.append(generator)
    return MultiHopScenario(
        fabric=built.fabric,
        apps=(apps[0], apps[1]),
        sender=sender,
        sink=sink,
        generators=generators,
    )


def run_multihop_failover(
    duration_us: float = 600.0,
    fail_at_us: float = 200.0,
    heartbeat_period_us: float = 1.0,
    eta: float = 0.5,
    data_rate_gbps: float = 4.0,
) -> Dict[str, object]:
    """Run the two-switch failover end to end; returns a JSON-able
    summary (the ``run-fabric`` CLI artifact)."""
    scenario = build_multihop_failover(
        heartbeat_period_us=heartbeat_period_us,
        eta=eta,
        data_rate_gbps=data_rate_gbps,
    )
    fabric = scenario.fabric
    app0, app1 = scenario.apps
    app0.prologue()
    app1.prologue()
    start = fabric.clock.now
    for generator in scenario.generators:
        generator.start()
    scenario.sender.start()
    link0 = fabric.links[0]
    fail_time = start + fail_at_us
    fabric.fail_link_at(link0, fail_time)
    fabric.run_until(start + duration_us, agent=True)

    s0 = fabric.switch("s0")
    s1 = fabric.switch("s1")
    detected0 = app0.detected_ports.get(0)
    rerouted0 = app0.reroute_times.get(0)
    return {
        "scenario": "multihop-failover",
        "switches": [s.name for s in (s0, s1)],
        "start_us": start,
        "duration_us": duration_us,
        "fail_time_us": fail_time,
        "end_us": fabric.clock.now,
        "sender_tx_packets": scenario.sender.tx_packets,
        "sink_rx_packets": scenario.sink.rx_packets,
        "s0_forwarded": s0.forwarded,
        "s0_link0_dropped": s0.port_stats(0).dropped,
        "agent_actor_fires": fabric.scheduler.actor_fires,
        "agent_iterations": {
            "s0": app0.system.agent.iterations,
            "s1": app1.system.agent.iterations,
        },
        "agents": {
            name: {
                "healthy": health.healthy,
                "reaction_engine": health.reaction_engine,
                "commit_mode": health.commit_mode,
                "delta_polling": health.delta_polling,
                "dirty_diff_hit_rate": health.dirty_diff_hit_rate,
                "delta_poll_skip_rate": health.delta_poll_skip_rate,
                "total_failures": health.total_failures,
            }
            for name, health in (
                ("s0", app0.system.agent.health()),
                ("s1", app1.system.agent.health()),
            )
        },
        "detection": {
            "s0_port0_detected_us": detected0,
            "s1_port0_detected_us": app1.detected_ports.get(0),
            "s0_rerouted_us": rerouted0,
            "detection_latency_us": (
                None if detected0 is None else detected0 - fail_time
            ),
        },
        "recomputations": {
            "s0": app0.recomputations, "s1": app1.recomputations,
        },
        "rerouted": rerouted0 is not None,
        "sink_timeline_gbps": scenario.sink.timeline_gbps(fabric.clock.now),
        "links": fabric.link_fault_summary(),
        "drop_totals": fabric.drop_totals(),
        "per_switch": fabric.switch_summaries(),
        "per_agent_fires": fabric.scheduler.actor_stats(),
    }


def neighbor_ring(n_neighbors: int) -> FabricSpec:
    """The Figure 16 topology: switch ``s0`` with neighbor switches
    ``n<i>`` on ports ``0..n_neighbors-1``, the neighbors cabled into a
    ring (so every destination has a detour when its direct link
    fails), and destination host ``h<i>`` at address ``0x0A000100 + i``
    under each neighbor."""
    spec = FabricSpec("neighbor-ring")
    spec.add_switch("s0")
    for index in range(n_neighbors):
        spec.add_switch(f"n{index}")
        spec.add_link("s0", index, f"n{index}", 0)
    # A ring of two neighbors is one cable, and of one is none.
    ring_links = n_neighbors if n_neighbors > 2 else n_neighbors - 1
    for index in range(ring_links):
        spec.add_link(f"n{index}", 1, f"n{(index + 1) % n_neighbors}", 2)
    for index in range(n_neighbors):
        spec.add_host(f"h{index}", f"n{index}", 3, 0x0A000100 + index)
    return spec


def build_failover_scenario(
    n_neighbors: int = 4,
    heartbeat_period_us: float = 1.0,
    eta: float = 0.5,
) -> Tuple[GrayFailureApp, NetworkSim, Dict[int, HeartbeatGenerator]]:
    """Switch ``s0`` of a :func:`neighbor_ring`, one heartbeat
    generator per neighbor port."""
    app = GrayFailureApp(
        RouteManager(neighbor_ring(n_neighbors).switch_view("s0")),
        watched_ports=list(range(n_neighbors)),
        heartbeat_period_us=heartbeat_period_us,
        eta=eta,
    )
    sim = NetworkSim(app.system)
    generators: Dict[int, HeartbeatGenerator] = {}
    for index in range(n_neighbors):
        generator = HeartbeatGenerator(
            f"hb{index}",
            {"ipv4.proto": HEARTBEAT_PROTO, "ipv4.srcAddr": index + 1,
             "ipv4.dstAddr": 0},
            period_us=heartbeat_period_us,
        )
        sim.attach_host(generator, index)
        generators[index] = generator
    return app, sim, generators
