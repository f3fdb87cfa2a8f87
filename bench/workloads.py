"""The four whole-scenario workloads: inputs, builders, invariants.

``make_inputs`` runs in the harness (parent) process and turns a seed
into plain generated values; the builders run in the child and see only
those values.  Every ``repro`` import is local to a builder so that the
child can time its cold imports and the parent never loads the program.

Simulated input sizes are fixed (``SIZES``): a workload is lengthened by
running more repetitions, never by changing what is simulated.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

DEFAULT_SEED = 1

#: Fixed simulated sizes.  ~3 s of wall time per window on the reference
#: machine, except ctrl_contended (~1.7 s): its bulk loader must still be
#: streaming at the cut-off, and it moves ~17 ops per simulated us, so a
#: longer window would need a multi-million-entry op list.
SIZES: Dict[str, Dict[str, float]] = {
    "fleet_rebalance": {"duration_us": 8000.0},
    "dos_scalar": {"warmup_us": 3000.0, "flood_us": 150000.0},
    "dos_burst": {"warmup_us": 3000.0, "flood_us": 150000.0},
    "ctrl_contended": {"duration_us": 100000.0, "loader_ops": 2 ** 21},
}

#: The only non-default knobs the harness sets anywhere.
DOS_BURST_SIZE = 256
CHILD_ENV: Dict[str, Dict[str, str]] = {
    "dos_burst": {"MANTIS_PIPELINE": "columnar"},
}

#: The validated Figure 15 set-up (benchmarks/test_fig15_dos.py).
DOS_SETUP = dict(
    n_benign=12,
    benign_rate_gbps=0.04,
    attack_rate_gbps=25.0,
    bottleneck_gbps=5.0,
    threshold_gbps=2.0,
    min_duration_us=100.0,
)
DOS_ATTACKER = 0x0AFF0001
DOS_BLOCK_SLACK_US = 60.0

FLEET_SENDERS = 16
FLEET_MIN_DELIVERY = 0.99
FLEET_MAX_UTILIZATION = 0.48

CTRL_LEGACY_INTERVAL_US = 11.0
CTRL_LOADER_CHUNK = 64
CTRL_LOADER_VALUES = 4096
CTRL_SHADOW_SLOTS = 64

PROGRAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "programs")


def make_inputs(workload: str, seed: int) -> Dict[str, object]:
    """Seed -> generated inputs (the only thing the program sees)."""
    if workload == "fleet_rebalance":
        rng = random.Random(f"{seed}:fleet")
        # One packet interval of a 1 Gbps / 1000 B flow is 8 us.
        return {"sender_offsets_us": [
            round(rng.uniform(0.0, 8.0), 3) for _ in range(FLEET_SENDERS)
        ]}
    if workload in ("dos_scalar", "dos_burst"):
        # Same stream for both: they are one scenario run two ways.
        rng = random.Random(f"{seed}:dos")
        return {"attacker_offset_us": round(rng.uniform(0.0, 100.0), 2)}
    if workload == "ctrl_contended":
        rng = random.Random(f"{seed}:ctrl")
        return {
            "udp_offset_us": round(rng.uniform(0.0, 12.0), 3),
            "loader_values": [
                rng.getrandbits(32) for _ in range(CTRL_LOADER_VALUES)
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Scenario:
    """A built scenario, ready for its timed window."""

    fabric: object                     # repro.net.sim.NetworkSim
    window: Callable[[], None]         # the timed work
    sim: Callable[[], Dict[str, object]]   # simulated results, after window
    check: Callable[[Dict[str, object]], List[str]]  # failed invariants


def _ledger(fabric, sent: int, burst_size: int = 1) -> Dict[str, object]:
    """``drop_totals()`` plus the packets still in flight at the cut-off."""
    totals = fabric.drop_totals()
    accounted = sum(
        totals[key] for key in (
            "delivered", "switch_drops", "egress_dropped", "rx_dropped",
            "port_fault_dropped", "link_fault_dropped",
        )
    )
    return {
        "sent": sent,
        "drop_totals": totals,
        "in_flight": sent - accounted,
        # Every in-flight packet sits in a pending event (a burst event
        # holds up to ``burst_size``).
        "in_flight_limit": len(fabric.events) * burst_size,
    }


def _ledger_failures(sim: Dict[str, object]) -> List[str]:
    if 0 <= sim["in_flight"] <= sim["in_flight_limit"]:
        return []
    return ["ledger_balanced"]


def build_fleet_rebalance(inputs, sizes) -> Scenario:
    from repro.apps.fabric_lb import build_fattree_rebalance

    scenario = build_fattree_rebalance(k=4)
    fabric = scenario.fabric
    start = fabric.clock.now
    duration = sizes["duration_us"]
    for sender, offset in zip(scenario.senders, inputs["sender_offsets_us"]):
        sender.start(at_us=start + offset)

    def window() -> None:
        fabric.run_until(start + duration, agent=True)

    def sim() -> Dict[str, object]:
        systems = [switch.system for switch in fabric.switches.values()]
        sent = sum(sender.tx_packets for sender in scenario.senders)
        received = sum(sink.rx_packets for sink in scenario.sinks.values())
        block = _ledger(fabric, sent)
        settled = sent - block["in_flight"]
        block.update({
            "clock_end_us": fabric.clock.now,
            "received": received,
            "delivery": received / settled if settled else 0.0,
            "max_link_utilization": max(
                fabric.link_utilizations(duration).values()
            ),
            "shift_times_us": {
                name: list(app.shift_times)
                for name, app in scenario.apps.items() if app.shift_times
            },
            "agent_iterations": sum(s.agent.iterations for s in systems),
            "ops_issued": sum(s.driver.ops_issued for s in systems),
            "actor_fires": fabric.scheduler.actor_fires,
        })
        return block

    def check(sim: Dict[str, object]) -> List[str]:
        failed = _ledger_failures(sim)
        if sim["delivery"] < FLEET_MIN_DELIVERY:
            failed.append("delivery")
        if sim["max_link_utilization"] > FLEET_MAX_UTILIZATION:
            failed.append("max_link_utilization")
        return failed

    return Scenario(fabric, window, sim, check)


def _build_dos(inputs, sizes, burst_size: int) -> Scenario:
    from repro.apps.dos import build_dos_scenario

    app, sim_net, flows, sink, attacker = build_dos_scenario(
        **DOS_SETUP, burst_size=burst_size
    )
    app.prologue()
    for flow in flows:
        flow.start(at_us=10.0)
    attack_start = sizes["warmup_us"] + inputs["attacker_offset_us"]
    attacker.start(at_us=attack_start)
    end = sizes["warmup_us"] + sizes["flood_us"]

    def window() -> None:
        sim_net.run_until(end)

    def sim() -> Dict[str, object]:
        sent = attacker.tx_packets + sum(f.tx_packets for f in flows)
        block = _ledger(sim_net, sent, burst_size)
        block_time = app.block_times.get(DOS_ATTACKER)
        block.update({
            "clock_end_us": sim_net.clock.now,
            "attack_start_us": attack_start,
            "block_time_us": block_time,
            "block_delay_us": (
                None if block_time is None else block_time - attack_start
            ),
            "benign_blocked": sorted(
                src for src in app.block_times if src != DOS_ATTACKER
            ),
            "attacker_tx": attacker.tx_packets,
            "tcp_tx": sum(f.tx_packets for f in flows),
            "tcp_acked": sum(f.acked for f in flows),
            "tcp_retransmits": sum(f.retransmits for f in flows),
            "victim_rx": sink.rx_packets,
            "agent_iterations": app.system.agent.iterations,
            "ops_issued": app.system.driver.ops_issued,
        })
        return block

    def check(sim: Dict[str, object]) -> List[str]:
        failed = _ledger_failures(sim)
        delay = sim["block_delay_us"]
        limit = DOS_SETUP["min_duration_us"] + DOS_BLOCK_SLACK_US
        if delay is None or not 0 <= delay < limit:
            failed.append("attacker_blocked_in_time")
        if sim["benign_blocked"]:
            failed.append("no_benign_blocked")
        return failed

    return Scenario(sim_net, window, sim, check)


def build_dos_scalar(inputs, sizes) -> Scenario:
    return _build_dos(inputs, sizes, burst_size=1)


def build_dos_burst(inputs, sizes) -> Scenario:
    return _build_dos(inputs, sizes, burst_size=DOS_BURST_SIZE)


def build_ctrl_contended(inputs, sizes) -> Scenario:
    from repro.agent.legacy import LiveLegacyClient
    from repro.analysis.stats import percentile
    from repro.ctrl import BulkLoader
    from repro.net.hosts import SinkHost, UdpSender
    from repro.net.sim import NetworkSim
    from repro.system import MantisSystem

    with open(os.path.join(PROGRAMS, "ctrl_contended.p4r")) as handle:
        system = MantisSystem.from_source(handle.read(), ctrl_service=True)
    sim_net = NetworkSim(system)
    system.ctrl.attach_scheduler(sim_net.scheduler)
    system.agent.prologue()
    sink = SinkHost("sink")
    sim_net.attach_host(sink, 1)
    stream = UdpSender("stream", {"hdr.a": 0}, rate_gbps=1.0)
    sim_net.attach_host(stream, 2)

    legacy_session = system.ctrl.open_session("legacy", priority="legacy")
    legacy = LiveLegacyClient(
        legacy_session, "legacy_table", interval_us=CTRL_LEGACY_INTERVAL_US
    )
    legacy.setup([1], "set_a", [0])

    loader_session = system.ctrl.open_session(
        "loader", priority="bulk", queue_limit=8
    )
    values = inputs["loader_values"]
    # The op tuples are shared: the list is ``loader_ops`` pointers.
    distinct = [
        ("write_register", "shadow", index % CTRL_SHADOW_SLOTS, value)
        for index, value in enumerate(values)
    ]
    repeats, rest = divmod(int(sizes["loader_ops"]), len(distinct))
    loader = BulkLoader(
        loader_session, distinct * repeats + distinct[:rest],
        chunk_size=CTRL_LOADER_CHUNK,
    )

    start = system.clock.now
    end = start + sizes["duration_us"]
    legacy.start(sim_net.scheduler, start, end)
    stream.start(at_us=start + inputs["udp_offset_us"])
    loader.start()

    def _legacy_percentile(q: float) -> float:
        return percentile(legacy.latencies, q) if legacy.latencies else 0.0

    def window() -> None:
        sim_net.run_until(end)
        # Not ctrl.drain(): that would also wait for the loader, which
        # keeps feeding itself until its whole op list is written.
        legacy_session.drain()
        system.agent_session.drain()

    def sim() -> Dict[str, object]:
        stats = system.ctrl.stats()
        block = _ledger(sim_net, stream.tx_packets)
        block.update({
            "clock_end_us": system.clock.now,
            "agent_iterations": system.agent.iterations,
            "ops_issued": system.driver.ops_issued,
            "bulk_txns": system.driver.bulk_txns,
            "hot_port": system.agent.read_malleable("hot_port"),
            "stream_rx": sink.rx_packets,
            "legacy_arrivals": len(legacy.arrival_times),
            "legacy_completed": len(legacy.latencies),
            "legacy_p50_us": _legacy_percentile(50),
            "legacy_p99_us": _legacy_percentile(99),
            "loader_cursor": loader.cursor,
            "loader_ops_completed": loader.ops_completed,
            "loader_parked": loader.parked,
            "loader_finished_us": loader.finished_us,
            "shadow": system.asic.get_register("shadow").read_range(
                0, CTRL_SHADOW_SLOTS - 1
            ),
            "service_classes": stats["classes"],
            "channel": stats["channel"],
        })
        return block

    def check(sim: Dict[str, object]) -> List[str]:
        failed = _ledger_failures(sim)
        if any(c["failed"] for c in sim["service_classes"].values()):
            failed.append("service_failed_zero")
        if sim["legacy_completed"] != sim["legacy_arrivals"] \
                or not sim["legacy_arrivals"]:
            failed.append("legacy_all_completed")
        if sim["loader_finished_us"] is not None \
                or sim["loader_cursor"] >= len(loader.ops):
            failed.append("loader_still_streaming")
        return failed

    return Scenario(sim_net, window, sim, check)


BUILDERS: Dict[str, Callable[[dict, dict], Scenario]] = {
    "fleet_rebalance": build_fleet_rebalance,
    "dos_scalar": build_dos_scalar,
    "dos_burst": build_dos_burst,
    "ctrl_contended": build_ctrl_contended,
}
