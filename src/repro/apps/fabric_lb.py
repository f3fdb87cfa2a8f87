"""Fleet-scale ECMP rebalancing on a fat-tree (Section 8.3.3 at
fabric scale).

Every edge and aggregation switch of a :class:`~repro.net.fabric_builder.FatTree`
runs the same Mantis program: destinations resolve in a ``route``
table whose multi-path entries hash into an uplink select table, and
the hash inputs are malleable fields a per-switch agent can shift at
runtime.  The workload is adversarially polarized -- every flow's
service address is chosen (by CRC search) to collide into one hash
bucket -- so static hashing pushes all inter-pod traffic through a
single core and the hot links run at ~4x the balanced load.  Each
switch's agent independently detects the imbalance (MAD over its
uplink egress counters, exactly the single-switch
:class:`~repro.apps.ecmp.HashPolarizationApp` loop) and shifts its
hash inputs to a flow-varying configuration; the per-flow source
ports are pre-searched so the shifted hash spreads the same flows
evenly.  One :class:`~repro.runtime.Scheduler` drives all ~20 agents
against the shared fabric timeline.

``run_fattree_rebalance`` compares ``max`` inter-switch link
utilization with and without the reactive agents -- the headline
number of ``BENCH_fabric.json``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.agent.agent import ReactionContext
from repro.analysis.stats import mean, mean_absolute_deviation
from repro.errors import SimulationError
from repro.net.fabric_builder import BuiltFabric, FatTree
from repro.net.hosts import Host, SinkHost
from repro.net.routing import install_routes
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.hashing import compute_hash
from repro.switch.packet import Packet, PacketTemplate
from repro.system import MantisSystem

NUM_BUCKETS = 4
DATA_PROTO = 17
SERVICE_BASE = 0x0B000000

FABRIC_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; proto : 8; }
}
header ipv4_t ipv4;
header_type l4_t { fields { sport : 16; dport : 16; } }
header l4_t l4;
header_type lb_t { fields { bucket : 16; cnt : 32; } }
metadata lb_t lb;

register egr_count { width : 32; instance_count : 16; }

malleable field hash_in1 {
    width : 32; init : ipv4.dstAddr;
    alts { ipv4.dstAddr, ipv4.srcAddr }
}
malleable field hash_in2 {
    width : 32; init : ipv4.proto;
    alts { ipv4.proto, l4.sport }
}

field_list fab_fl { ${hash_in1}; ${hash_in2}; }
field_list_calculation fab_hash {
    input { fab_fl; }
    algorithm : crc16;
    output_width : 16;
}

action forward(port) {
    modify_field(standard_metadata.egress_spec, port);
    modify_field(lb.bucket, 0xffff);
}
action to_upper() {
    modify_field_with_hash_based_offset(lb.bucket, 0, fab_hash, 4);
}
action _drop() { drop(); }
action skip() { no_op(); }

table route {
    reads { ipv4.dstAddr : exact; }
    actions { forward; to_upper; _drop; }
    default_action : _drop();
    size : 256;
}
table up_select {
    reads { lb.bucket : exact; }
    actions { forward; skip; _drop; }
    default_action : _drop();
    size : 16;
}

action count_egress() {
    register_read(lb.cnt, egr_count, standard_metadata.egress_port);
    add(lb.cnt, lb.cnt, 1);
    register_write(egr_count, standard_metadata.egress_port, lb.cnt);
}
table egress_counter {
    actions { count_egress; }
    default_action : count_egress();
}

control ingress {
    apply(route);
    apply(up_select);
}
control egress {
    apply(egress_counter);
}

reaction fab_watch(reg egr_count[0:15]) {
    // Host side: MAD over the uplink marginals + hash-input shifting.
}
"""


def _hash_bucket(in1: int, in2: int) -> int:
    """The bucket ``to_upper`` computes: malleable inputs are hashed at
    their container width (32), whatever the active alt's native
    width."""
    return compute_hash("crc16", [(in1, 32), (in2, 32)], 16) % NUM_BUCKETS


def find_colliding_addr(base: int, proto: int = DATA_PROTO,
                        bucket: int = 0, limit: int = 1 << 16) -> int:
    """Smallest ``base + n`` whose (dstAddr, proto) hash lands in
    ``bucket`` -- the adversarial service-address search."""
    for offset in range(limit):
        addr = base + offset
        if _hash_bucket(addr, proto) == bucket:
            return addr
    raise SimulationError(f"no colliding address under {base:#x}")


def find_spreading_sport(dst_addr: int, bucket: int, base: int = 1024,
                         limit: int = 1 << 16) -> int:
    """Smallest sport >= ``base`` whose (dstAddr, sport) hash lands in
    ``bucket`` -- so the *shifted* configuration spreads the flows."""
    for offset in range(limit):
        sport = base + offset
        if _hash_bucket(dst_addr, sport) == bucket:
            return sport
    raise SimulationError(f"no spreading sport for {dst_addr:#x}")


@dataclass
class BalanceSample:
    time_us: float
    marginals: List[int]
    imbalance: float


class FabricLbApp:
    """Per-switch MAD-driven hash rebalancer (one per fabric agent)."""

    def __init__(
        self,
        system: MantisSystem,
        uplink_ports: Tuple[int, ...],
        imbalance_threshold: float = 0.5,
        persistence: int = 2,
        min_window_packets: int = 8,
        name: str = "switch",
    ):
        self.system = system
        self.name = name
        self.uplink_ports = list(uplink_ports)
        self.imbalance_threshold = imbalance_threshold
        self.persistence = persistence
        self.min_window_packets = min_window_packets
        self._prev_counts: Dict[int, int] = {}
        self._bad_iterations = 0
        self.samples: List[BalanceSample] = []
        self.shift_times: List[float] = []
        spec = system.spec
        alts1 = len(spec.fields["hash_in1"].alts)
        alts2 = len(spec.fields["hash_in2"].alts)
        self.configs = list(itertools.product(range(alts1), range(alts2)))
        self.config_index = 0
        system.agent.attach_python("fab_watch", self._reaction)

    def _reaction(self, ctx: ReactionContext) -> None:
        if len(self.uplink_ports) < 2:
            return
        counts = ctx.args["egr_count"]
        marginals = []
        for port in self.uplink_ports:
            current = counts.get(port, 0)
            marginals.append(
                (current - self._prev_counts.get(port, 0)) & 0xFFFFFFFF
            )
            self._prev_counts[port] = current
        if sum(marginals) < self.min_window_packets:
            return
        average = mean(marginals)
        imbalance = (
            mean_absolute_deviation(marginals) / average if average else 0.0
        )
        self.samples.append(BalanceSample(ctx.now, marginals, imbalance))
        if imbalance > self.imbalance_threshold:
            self._bad_iterations += 1
        else:
            self._bad_iterations = 0
        if self._bad_iterations >= self.persistence:
            self.config_index = (self.config_index + 1) % len(self.configs)
            alt1, alt2 = self.configs[self.config_index]
            ctx.write("hash_in1", alt1)
            ctx.write("hash_in2", alt2)
            self.shift_times.append(ctx.now)
            self._bad_iterations = 0


class MultiFlowSender(Host):
    """Open-loop host carrying several constant-rate flows on one
    port (a server with multiple outgoing connections)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.flows: List[Dict[str, object]] = []
        self.tx_packets = 0
        self._running = False

    def add_flow(self, fields: Dict[str, int], rate_gbps: float,
                 size_bytes: int = 1000) -> None:
        flow = {
            "fields": dict(fields),
            "size_bytes": size_bytes,
            "interval_us": size_bytes * 8 / (rate_gbps * 1000.0),
            "template": PacketTemplate(fields, size_bytes=size_bytes),
        }
        # One callback per flow, rescheduled as is on every tick.
        flow["tick"] = lambda now: self._tick(flow, now)
        self.flows.append(flow)

    def start(self, at_us: Optional[float] = None) -> None:
        self._running = True
        start = self.sim.clock.now if at_us is None else at_us
        for flow in self.flows:
            self.sim.events.schedule(start, flow["tick"])

    def stop(self) -> None:
        self._running = False

    def _tick(self, flow: Dict[str, object], now: float) -> None:
        if not self._running:
            return
        self.sim.send_to_switch(
            Packet.from_template(flow["template"]), self.port
        )
        self.tx_packets += 1
        self.sim.events.schedule(now + flow["interval_us"], flow["tick"])


@dataclass
class FatTreeScenario:
    """A wired FatTree(k) rebalancing run, ready to drive."""

    spec: FatTree
    built: BuiltFabric
    apps: Dict[str, FabricLbApp]
    senders: List[MultiFlowSender]
    sinks: Dict[str, SinkHost]
    aliases: Dict[int, str] = field(default_factory=dict)
    route_summary: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def fabric(self):
        return self.built.fabric


def build_fattree_rebalance(
    k: int = 4,
    mode: str = "hashed",
    flows_per_host: int = 4,
    rate_gbps_per_flow: float = 1.0,
    imbalance_threshold: float = 0.5,
    persistence: int = 2,
    min_window_packets: int = 8,
    seed: int = 0,
    route_bulk: bool = True,
) -> FatTreeScenario:
    """FatTree(k) with the polarized inter-pod traffic matrix.

    Hosts in the first ``k/2`` pods each run ``flows_per_host`` flows
    to the service alias of their positional partner in the upper
    pods.  Every alias is CRC-searched to collide into hash bucket 0
    (total polarization under the initial (dstAddr, proto) inputs);
    every flow's sport is CRC-searched so the shifted
    (dstAddr, sport) inputs spread the flows round-robin across all
    buckets.
    """
    spec = FatTree(k)
    built = spec.build(FABRIC_P4R)
    half = spec.half

    apps: Dict[str, FabricLbApp] = {}
    for name, switch_spec in spec.switches.items():
        apps[name] = FabricLbApp(
            built.system(name),
            switch_spec.uplink_ports,
            imbalance_threshold=imbalance_threshold,
            persistence=persistence,
            min_window_packets=min_window_packets,
            name=name,
        )

    # Service aliases: partner host's alias collides into bucket 0.
    aliases: Dict[int, str] = {}
    alias_of: Dict[str, int] = {}
    for pod in range(half, k):
        for i in range(half):
            for m in range(half):
                host = spec.host_name(pod, i, m)
                index = (pod * half + i) * half + m
                alias = find_colliding_addr(
                    SERVICE_BASE + (index << 8), bucket=0
                )
                aliases[alias] = host
                alias_of[host] = alias

    # Prologue every agent, then install routes (static driver writes),
    # then commit the initial malleable configuration on every agent.
    for app in apps.values():
        app.system.agent.prologue()
    route_summary = install_routes(
        built, mode=mode, seed=seed, extra_dests=aliases,
        num_buckets=NUM_BUCKETS, bulk=route_bulk,
    )
    for app in apps.values():
        app.system.agent.run_iteration()

    senders: List[MultiFlowSender] = []
    sinks: Dict[str, SinkHost] = {}
    flow_index = 0
    for pod in range(half):
        for i in range(half):
            for m in range(half):
                src_name = spec.host_name(pod, i, m)
                dst_name = spec.host_name(pod + half, i, m)
                alias = alias_of[dst_name]
                sender = MultiFlowSender(src_name)
                for f in range(flows_per_host):
                    sport = find_spreading_sport(
                        alias, bucket=flow_index % NUM_BUCKETS,
                        base=1024 + 64 * flow_index,
                    )
                    sender.add_flow(
                        {
                            "ipv4.srcAddr": spec.host_addr(pod, i, m),
                            "ipv4.dstAddr": alias,
                            "ipv4.proto": DATA_PROTO,
                            "l4.sport": sport,
                            "l4.dport": 443,
                        },
                        rate_gbps=rate_gbps_per_flow,
                    )
                    flow_index += 1
                built.attach_host(src_name, sender)
                senders.append(sender)
    for pod in range(half, k):
        for i in range(half):
            for m in range(half):
                name = spec.host_name(pod, i, m)
                sink = SinkHost(name)
                built.attach_host(name, sink)
                sinks[name] = sink

    return FatTreeScenario(
        spec=spec, built=built, apps=apps, senders=senders, sinks=sinks,
        aliases=aliases, route_summary=route_summary,
    )


def run_fattree_rebalance(
    k: int = 4,
    duration_us: float = 1500.0,
    mantis: bool = True,
    mode: str = "hashed",
    flows_per_host: int = 4,
    rate_gbps_per_flow: float = 1.0,
    seed: int = 0,
    route_bulk: bool = True,
) -> Dict[str, object]:
    """One fat-tree run; returns the JSON-able summary.

    ``mantis=False`` freezes the control plane after route install --
    the static-hashing baseline the reactive fleet is measured
    against."""
    scenario = build_fattree_rebalance(
        k=k, mode=mode, flows_per_host=flows_per_host,
        rate_gbps_per_flow=rate_gbps_per_flow, seed=seed,
        route_bulk=route_bulk,
    )
    fabric = scenario.fabric
    start = fabric.clock.now
    for sender in scenario.senders:
        sender.start()
    fabric.run_until(start + duration_us, agent=mantis)

    sent = sum(sender.tx_packets for sender in scenario.senders)
    received = sum(sink.rx_packets for sink in scenario.sinks.values())
    utilizations = fabric.link_utilizations(duration_us)
    shifts = {
        name: list(app.shift_times)
        for name, app in scenario.apps.items() if app.shift_times
    }
    return {
        "scenario": "fattree-rebalance",
        "k": k,
        "mode": mode,
        "mantis": mantis,
        "switches": len(scenario.built.switches),
        "hosts": len(scenario.spec.hosts),
        "flows": sum(len(s.flows) for s in scenario.senders),
        "start_us": start,
        "duration_us": duration_us,
        "end_us": fabric.clock.now,
        "sent_packets": sent,
        "received_packets": received,
        "delivery_rate": received / sent if sent else 0.0,
        "max_link_utilization": max(utilizations.values()) if utilizations
        else 0.0,
        "mean_link_utilization": (
            mean(list(utilizations.values())) if utilizations else 0.0
        ),
        "hot_links": sorted(
            utilizations, key=utilizations.get, reverse=True
        )[:4],
        "shifting_switches": len(shifts),
        "total_shifts": sum(len(times) for times in shifts.values()),
        "first_shift_us": min(
            (times[0] for times in shifts.values()), default=None
        ),
        "agent_actor_fires": fabric.scheduler.actor_fires,
        "per_agent_fires": fabric.scheduler.actor_stats() if mantis else {},
        "per_switch": fabric.switch_summaries(),
        "route_summary": scenario.route_summary,
        # Install-path op accounting: logical entries vs coalesced
        # DMA-burst transactions actually issued per mode.
        "route_install": {
            "mode": mode,
            "bulk": route_bulk,
            "driver_ops": sum(
                s["driver_ops"] for s in scenario.route_summary.values()
            ),
            "bulk_txns": sum(
                s["bulk_txns"] for s in scenario.route_summary.values()
            ),
        },
        "drop_totals": fabric.drop_totals(),
    }


def compare_fattree(
    k: int = 4,
    duration_us: float = 1500.0,
    flows_per_host: int = 4,
    rate_gbps_per_flow: float = 1.0,
) -> Dict[str, object]:
    """Static hashing vs the Mantis fleet, same workload -- the
    rebalancing headline."""
    static = run_fattree_rebalance(
        k=k, duration_us=duration_us, mantis=False,
        flows_per_host=flows_per_host,
        rate_gbps_per_flow=rate_gbps_per_flow,
    )
    mantis = run_fattree_rebalance(
        k=k, duration_us=duration_us, mantis=True,
        flows_per_host=flows_per_host,
        rate_gbps_per_flow=rate_gbps_per_flow,
    )
    static_max = static["max_link_utilization"]
    mantis_max = mantis["max_link_utilization"]
    return {
        "scenario": "fattree-rebalance-compare",
        "k": k,
        "duration_us": duration_us,
        "static": static,
        "mantis": mantis,
        "static_max_utilization": static_max,
        "mantis_max_utilization": mantis_max,
        "improvement": (
            (static_max - mantis_max) / static_max if static_max else 0.0
        ),
    }
