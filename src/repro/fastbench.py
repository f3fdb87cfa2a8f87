"""Fast-path speedup benchmark: interpreter vs compiled pipeline.

Drives the Figure 15 DoS data-plane workload (blocklist -> accounting
with register read-modify-write -> exact-match routing, compiled from
``DOS_P4R`` by the Mantis compiler) through ``SwitchAsic.process`` in
both execution modes and reports packets/sec for each.  Shared by
``benchmarks/test_fastpath_speedup.py`` and the
``python -m repro.cli bench-fastpath`` tier-2 target so the speedup is
tracked as one JSON artifact across PRs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.apps.dos import DOS_P4R, DosMitigationApp
from repro.apps.ecmp import ECMP_P4R, HashPolarizationApp
from repro.switch.columnar import ColumnarPool
from repro.switch.packet import Packet, PacketPool, PacketTemplate
from repro.system import MantisSystem

DST_ADDR = 0x0A00FFFF
ATTACKER_ADDR = 0x0AFF0001
DST_PORT = 1
DEFAULT_BATCH_SIZE = 256
COLUMNAR_SWEEP_SIZES = (256, 1024, 4096)

#: Fallback reasons the DoS columnar run is allowed to report.  The
#: Figure 15 ingress is fully vectorizable, so the set is empty; any
#: entry means a lowering regression and the bench run fails loudly
#: rather than silently timing the scalar drain.
DOS_EXPECTED_FALLBACKS: frozenset = frozenset()


def build_dos_system(
    execution_mode: str, n_benign: int = 12
) -> DosMitigationApp:
    """The Figure 15 switch, ready to forward: Mantis prologue done
    (init/measurement tables installed) and the victim route in place."""
    system = MantisSystem.from_source(
        DOS_P4R, num_ports=n_benign + 8, execution_mode=execution_mode
    )
    app = DosMitigationApp(
        system=system, threshold_gbps=2.0, min_duration_us=100.0
    )
    app.prologue()
    app.add_route(DST_ADDR, DST_PORT)
    return app


def build_ecmp_system(execution_mode: str) -> HashPolarizationApp:
    """The Section 8.3.3 ECMP switch: crc16 over two malleable hash
    inputs picks a bucket, an exact match forwards it, and the egress
    counter does a dynamic-index register read-modify-write -- the
    workload that exercises the vectorized hash + 'g'-kind lowering."""
    system = MantisSystem.from_source(
        ECMP_P4R, num_ports=16, execution_mode=execution_mode
    )
    app = HashPolarizationApp(system=system)
    app.prologue()
    return app


def make_ecmp_workload(n_packets: int) -> List[Dict[str, int]]:
    """Field maps for the ECMP mix: flows with rotating addresses and
    ports so the crc16 buckets actually spread across paths."""
    workload = []
    for index in range(n_packets):
        workload.append(
            {
                "ipv4.srcAddr": 0x0A000001 + (index * 7919) % 65536,
                "ipv4.dstAddr": 0x0B000001 + index % 251,
                "ipv4.proto": 6,
                "l4.sport": 1000 + (index * 13) % 50000,
                "l4.dport": 443,
            }
        )
    return workload


def make_workload(n_packets: int, n_benign: int = 12) -> List[Dict[str, int]]:
    """Field maps for the DoS packet mix: alternating attacker floods
    and benign senders, all toward the common victim."""
    workload = []
    for index in range(n_packets):
        if index % 2:
            src = ATTACKER_ADDR
        else:
            src = 0x0A000001 + (index // 2) % n_benign
        workload.append(
            {
                "ipv4.srcAddr": src,
                "ipv4.dstAddr": DST_ADDR,
                "ipv4.proto": 17 if index % 2 else 6,
                "tcp.seq": index,
            }
        )
    return workload


def measure_mode(
    execution_mode: str,
    workload: List[Dict[str, int]],
    warmup: int = 200,
) -> Dict[str, float]:
    """Pump the workload through one freshly built switch; returns
    packets/sec and elapsed wall-clock seconds."""
    app = build_dos_system(execution_mode)
    process = app.system.asic.process
    # Packet.__init__ copies the field map; no defensive dict() needed.
    for fields in workload[:warmup]:
        process(Packet(fields=fields, size_bytes=1500))
    start = time.perf_counter()
    for fields in workload:
        process(Packet(fields=fields, size_bytes=1500))
    elapsed = time.perf_counter() - start
    return {
        "packets_per_sec": len(workload) / elapsed if elapsed else float("inf"),
        "elapsed_sec": elapsed,
    }


def measure_batch_mode(
    workload: List[Dict[str, int]],
    batch_size: int = DEFAULT_BATCH_SIZE,
    warmup: int = 200,
    builder=build_dos_system,
) -> Dict[str, float]:
    """Pump the workload through ``SwitchAsic.process_batch`` on the
    compiled engine, ``batch_size`` packets per call, reusing pooled
    packets (the burst-mode fast path)."""
    app = builder("compiled")
    process_batch = app.system.asic.process_batch
    templates = [
        PacketTemplate(fields, size_bytes=1500) for fields in workload
    ]
    pool = PacketPool(batch_size)
    for start in range(0, min(warmup, len(templates)), batch_size):
        process_batch(pool.take(templates[start:start + batch_size]))
    begin = time.perf_counter()
    for start in range(0, len(templates), batch_size):
        process_batch(pool.take(templates[start:start + batch_size]))
    elapsed = time.perf_counter() - begin
    return {
        "packets_per_sec": len(workload) / elapsed if elapsed else float("inf"),
        "elapsed_sec": elapsed,
    }


def measure_columnar_mode(
    workload: List[Dict[str, int]],
    batch_size: int = DEFAULT_BATCH_SIZE,
    warmup: int = 200,
    builder=build_dos_system,
) -> Dict[str, object]:
    """Pump the workload through ``SwitchAsic.process_batch_columnar``
    on the columnar engine: templates become a :class:`ColumnarPool`
    (one numpy array per field, built outside the timed region), and
    each timed call slices one struct-of-arrays batch and runs the
    vectorized op-major sweeps with no Packet materialization."""
    app = builder("columnar")
    asic = app.system.asic
    process = asic.process_batch_columnar
    templates = [
        PacketTemplate(fields, size_bytes=1500) for fields in workload
    ]
    pool = ColumnarPool(templates)
    for start in range(0, min(warmup, len(templates)), batch_size):
        process(pool.batch(start, start + batch_size))
    begin = time.perf_counter()
    for start in range(0, len(templates), batch_size):
        process(pool.batch(start, start + batch_size))
    elapsed = time.perf_counter() - begin
    return {
        "packets_per_sec": len(workload) / elapsed if elapsed else float("inf"),
        "elapsed_sec": elapsed,
        "fallbacks": dict(asic.executor.fallback_counts),
    }


def profile_fastpath(
    n_packets: int = 2_000, iterations: int = 50
) -> Dict[str, object]:
    """Hot-loop counters for both halves of the dialogue.

    Data plane: rebuild the compiled engine with per-control /
    per-table / per-action counters (:meth:`SwitchAsic.enable_profiling`
    -- batch plans are disabled under profiling, so counts reflect the
    instrumented scalar controls) and pump the workload.  Control
    plane: run dialogue iterations and report the agent's cumulative
    per-phase time split (mv_flip / poll / react / commit)."""
    app = build_dos_system("compiled")
    profile = app.system.asic.enable_profiling()
    process = app.system.asic.process
    for fields in make_workload(n_packets):
        process(Packet(fields=fields, size_bytes=1500))
    agent = app.system.agent
    # The dialogue loop runs as a scheduled actor with an iteration
    # budget: the runtime drives it to quiescence, same code path as a
    # fabric run.
    from repro.runtime import AgentActor, Scheduler

    scheduler = Scheduler(clock=app.system.clock)
    scheduler.spawn(AgentActor(agent, max_iterations=iterations))
    scheduler.run_until()
    return {
        "data_plane": profile.snapshot(),
        "agent_phases_us": {
            phase: round(total, 3)
            for phase, total in agent.phase_totals.items()
        },
    }


def run_fastpath_benchmark(
    n_packets: int = 20_000,
    json_path: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    profile: bool = False,
    engine: str = "all",
) -> Dict[str, object]:
    """Measure all four paths (interpreter, compiled per-packet,
    compiled batch, columnar) on the same workload; optionally persist
    the JSON artifact.  The columnar engine runs a batch-size sweep
    (``COLUMNAR_SWEEP_SIZES`` capped at the workload size) and reports
    the best point as ``columnar_pps``.  ``engine="columnar"`` skips
    the per-packet engines and measures only the batch baseline plus
    the columnar sweep (the quick-iteration path; the full artifact
    needs ``engine="all"``).  Returns the result payload."""
    if engine not in ("all", "columnar"):
        raise ValueError(f"unknown engine {engine!r}")
    workload = make_workload(n_packets)
    full = engine == "all"
    if full:
        interpreter = measure_mode("interpreter", workload)
        compiled = measure_mode("compiled", workload)
    sweep_sizes = sorted(
        {min(size, max(n_packets, 1)) for size in COLUMNAR_SWEEP_SIZES}
    )

    def sweep(packets, builder):
        """Batch baseline plus the columnar batch-size sweep for one
        workload; returns (batch, best columnar, sweep dict, speedup)."""
        base = measure_batch_mode(
            packets, batch_size=batch_size, builder=builder
        )
        by_size = {
            size: measure_columnar_mode(
                packets, batch_size=size, builder=builder
            )
            for size in sweep_sizes
        }
        best = max(by_size.values(), key=lambda r: r["packets_per_sec"])
        ratio = (
            best["packets_per_sec"] / base["packets_per_sec"]
            if base["packets_per_sec"]
            else float("inf")
        )
        return base, best, by_size, ratio

    batch, columnar, columnar_sweep, columnar_speedup = sweep(
        workload, build_dos_system
    )
    unexpected = set(columnar["fallbacks"]) - DOS_EXPECTED_FALLBACKS
    if unexpected:
        raise RuntimeError(
            "unexpected columnar fallbacks on the DoS workload "
            f"(lowering regression): {sorted(unexpected)} "
            f"-> {columnar['fallbacks']}"
        )
    ecmp_workload = make_ecmp_workload(n_packets)
    ecmp_batch, ecmp_columnar, _, ecmp_speedup = sweep(
        ecmp_workload, build_ecmp_system
    )
    payload: Dict[str, object] = {
        "workload": "figure15-dos",
        "packets": n_packets,
        "batch_size": batch_size,
        "batch_pps": round(batch["packets_per_sec"], 1),
        "columnar_pps": round(columnar["packets_per_sec"], 1),
        "columnar_pps_by_batch": {
            str(size): round(result["packets_per_sec"], 1)
            for size, result in columnar_sweep.items()
        },
        "columnar_fallbacks": columnar["fallbacks"],
        "batch_elapsed_sec": round(batch["elapsed_sec"], 6),
        "columnar_elapsed_sec": round(columnar["elapsed_sec"], 6),
        "columnar_speedup_vs_batch": round(columnar_speedup, 3),
        "ecmp_batch_pps": round(ecmp_batch["packets_per_sec"], 1),
        "ecmp_columnar_pps": round(ecmp_columnar["packets_per_sec"], 1),
        "ecmp_columnar_speedup_vs_batch": round(ecmp_speedup, 3),
        "fallbacks_by_workload": {
            "figure15-dos": columnar["fallbacks"],
            "ecmp-rotating-hash": ecmp_columnar["fallbacks"],
        },
    }
    if full:
        speedup = (
            compiled["packets_per_sec"] / interpreter["packets_per_sec"]
            if interpreter["packets_per_sec"]
            else float("inf")
        )
        batch_speedup = (
            batch["packets_per_sec"] / compiled["packets_per_sec"]
            if compiled["packets_per_sec"]
            else float("inf")
        )
        payload.update(
            interpreter_pps=round(interpreter["packets_per_sec"], 1),
            compiled_pps=round(compiled["packets_per_sec"], 1),
            interpreter_elapsed_sec=round(interpreter["elapsed_sec"], 6),
            compiled_elapsed_sec=round(compiled["elapsed_sec"], 6),
            speedup=round(speedup, 3),
            batch_speedup_vs_compiled=round(batch_speedup, 3),
        )
    if profile:
        payload["profile"] = profile_fastpath()
    if json_path:
        write_json(json_path, payload)
    return payload


# ---------------------------------------------------------------------------
# Control-plane (agent) benchmark: compiled vs interpreted reactions,
# dirty-diff vs full commits, delta polling (ISSUE 5).

AGENT_DOS_REACTION_BODY = """
    static uint32_t prev_total;
    static uint32_t srcs[64];
    static uint32_t counts[64];
    uint32_t total = total_bytes[0];
    uint32_t src = ipv4_srcAddr;
    uint32_t marginal = (total - prev_total) & 4294967295;
    prev_total = total;
    if (src != 0 && marginal != 0) {
        int slot = 0 - 1;
        for (int i = 0; i < 64; i++) {
            if (srcs[i] == src || srcs[i] == 0) { slot = i; break; }
        }
        if (slot >= 0) {
            srcs[slot] = src;
            counts[slot] = counts[slot] + marginal;
        }
    }
    uint32_t peak = 0;
    uint32_t peak_src = 0;
    for (int i = 0; i < 64; i++) {
        if (counts[i] > peak) { peak = counts[i]; peak_src = srcs[i]; }
    }
    ${hot_src} = peak_src;
    ${hot_bytes} = peak;
    if (peak > ${threshold} && ${blocked} == 0) {
        blocklist.addEntry(peak_src, "block");
        ${blocked} = 1;
    }
    return peak;
"""

# The Figure 15 DoS program with the estimate-and-block reaction as an
# actual C body (the host-Python variant lives in repro.apps.dos): the
# reaction engines must run real creaction code for the comparison to
# mean anything.  ``hot_src``/``hot_bytes``/``blocked`` are malleable
# outputs; ``threshold`` is a malleable input (bytes before blocking).
AGENT_DOS_P4R = """
header_type standard_metadata_t {
    fields { egress_spec : 9; packet_length : 32; }
}
metadata standard_metadata_t standard_metadata;
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; proto : 8; }
}
header ipv4_t ipv4;
header_type acct_t { fields { total : 32; } }
metadata acct_t acct;

register total_bytes { width : 32; instance_count : 1; }

malleable value hot_src { width : 32; init : 0; }
malleable value hot_bytes { width : 32; init : 0; }
malleable value blocked { width : 32; init : 0; }
malleable value threshold { width : 32; init : 100000; }

action allow() { no_op(); }
action block() { drop(); }

malleable table blocklist {
    reads { ipv4.srcAddr : exact; }
    actions { allow; block; }
    default_action : allow();
    size : 1024;
}

action account() {
    register_read(acct.total, total_bytes, 0);
    add(acct.total, acct.total, standard_metadata.packet_length);
    register_write(total_bytes, 0, acct.total);
}
table accounting {
    actions { account; }
    default_action : account();
}

control ingress {
    apply(blocklist);
    apply(accounting);
}

reaction estimate_and_block(ing ipv4.srcAddr, reg total_bytes[0:0]) {
""" + AGENT_DOS_REACTION_BODY + """
}
"""


def build_agent_system(
    reaction_engine: str,
    commit_mode: str = "diff",
    delta_polling: bool = False,
) -> MantisSystem:
    """The agent-bench switch: small init-action packing so the four
    malleable values spread over several shadow init tables -- the
    shape where dirty-diff commits visibly beat full commits."""
    from repro.compiler.transform import CompilerOptions

    system = MantisSystem.from_source(
        AGENT_DOS_P4R,
        options=CompilerOptions(max_init_action_params=3),
        num_ports=8,
        reaction_engine=reaction_engine,
        commit_mode=commit_mode,
        delta_polling=delta_polling,
    )
    system.agent.prologue()
    return system


def measure_agent_mode(
    reaction_engine: str,
    commit_mode: str = "diff",
    delta_polling: bool = False,
    iterations: int = 300,
    burst: int = 8,
    warmup: int = 20,
    pump_every: int = 4,
) -> Dict[str, object]:
    """Run the dialogue loop against a deterministic packet schedule;
    time only the ``run_iteration`` calls (the packet pumping between
    iterations is workload setup, not agent work).

    Traffic arrives every ``pump_every`` iterations only, so with
    ``delta_polling`` the quiet iterations' mirror seq check proves the
    register did not advance and skips the ts+dup reads (a seq check
    costs one read; a skipped poll saves the two ts+dup reads).
    """
    system = build_agent_system(
        reaction_engine, commit_mode=commit_mode, delta_polling=delta_polling
    )
    agent = system.agent
    process = system.asic.process
    ops_baseline = system.driver.ops_issued

    def pump(round_index: int) -> None:
        for position in range(burst):
            if position % 2:
                src = ATTACKER_ADDR
            else:
                src = 0x0A000001 + (round_index + position) % 12
            process(
                Packet(
                    fields={
                        "ipv4.srcAddr": src,
                        "ipv4.dstAddr": DST_ADDR,
                        "ipv4.proto": 17 if position % 2 else 6,
                    },
                    size_bytes=1500,
                )
            )

    for index in range(warmup):
        if index % pump_every == 0:
            pump(index)
        agent.run_iteration()
    elapsed = 0.0
    measured_from = agent.iterations
    for index in range(iterations):
        if index % pump_every == 0:
            pump(warmup + index)
        start = time.perf_counter()
        agent.run_iteration()
        elapsed += time.perf_counter() - start
    health = agent.health()
    return {
        "reactions_per_sec": (
            iterations / elapsed if elapsed else float("inf")
        ),
        "elapsed_sec": elapsed,
        "iterations": agent.iterations - measured_from,
        "phase_us": {
            phase: round(total, 3)
            for phase, total in agent.phase_totals.items()
        },
        "driver_ops": system.driver.ops_issued - ops_baseline,
        "dirty_diff_hit_rate": health.dirty_diff_hit_rate,
        "delta_poll_skip_rate": health.delta_poll_skip_rate,
        "blocked": agent.read_malleable("blocked"),
    }


def run_agent_benchmark(
    iterations: int = 300,
    json_path: Optional[str] = None,
) -> Dict[str, object]:
    """The BENCH_agent.json payload: compiled vs interpreted
    reactions/sec, the per-phase microsecond split, dirty-diff vs full
    commit driver op counts on the identical schedule, and the
    delta-polling skip rate."""
    interp = measure_agent_mode("interp", iterations=iterations)
    compiled = measure_agent_mode("compiled", iterations=iterations)
    full = measure_agent_mode(
        "compiled", commit_mode="full", iterations=iterations
    )
    delta = measure_agent_mode(
        "compiled", delta_polling=True, iterations=iterations
    )
    speedup = (
        compiled["reactions_per_sec"] / interp["reactions_per_sec"]
        if interp["reactions_per_sec"]
        else float("inf")
    )
    payload: Dict[str, object] = {
        "workload": "figure15-dos-agent",
        "iterations": iterations,
        "interp_rps": round(interp["reactions_per_sec"], 1),
        "compiled_rps": round(compiled["reactions_per_sec"], 1),
        "speedup": round(speedup, 3),
        "interp_phase_us": interp["phase_us"],
        "compiled_phase_us": compiled["phase_us"],
        "diff_commit_ops": compiled["driver_ops"],
        "full_commit_ops": full["driver_ops"],
        "delta_poll_ops": delta["driver_ops"],
        "dirty_diff_hit_rate": round(compiled["dirty_diff_hit_rate"], 4),
        "delta_poll_skip_rate": round(delta["delta_poll_skip_rate"], 4),
        "blocked_attacker": compiled["blocked"],
    }
    if json_path:
        write_json(json_path, payload)
    return payload


def write_json(path: str, payload: Dict[str, object]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Fabric-scale benchmark: events/sec vs switch count plus the
# rebalance-vs-static headline (the fleet-scale refactor gate).

FABRIC_PAIR_ADDRS = (0x0A000001, 0x0A000002)


def build_pair_fabric():
    """The 2-switch scaling anchor: one cable, one multi-flow sender
    per side, agents armed (idle rebalancers -- no uplink fan-out to
    watch, same polling cost)."""
    from repro.apps.fabric_lb import FABRIC_P4R, FabricLbApp, MultiFlowSender
    from repro.net.fabric_builder import FabricSpec
    from repro.net.routing import install_routes

    spec = FabricSpec("bench-pair")
    spec.add_switch("s0")
    spec.add_switch("s1")
    spec.add_link("s0", 0, "s1", 0)
    spec.add_host("hA", "s0", 1, addr=FABRIC_PAIR_ADDRS[0])
    spec.add_host("hB", "s1", 1, addr=FABRIC_PAIR_ADDRS[1])
    built = spec.build(FABRIC_P4R)
    apps = [
        FabricLbApp(switch.system, (), name=name)
        for name, switch in built.switches.items()
    ]
    for app in apps:
        app.system.agent.prologue()
    install_routes(built, mode="hashed")
    for app in apps:
        app.system.agent.run_iteration()
    senders = []
    for src, src_addr, dst_addr in (
        ("hA", *FABRIC_PAIR_ADDRS), ("hB", *reversed(FABRIC_PAIR_ADDRS)),
    ):
        sender = MultiFlowSender(src)
        for index in range(4):
            sender.add_flow(
                {
                    "ipv4.srcAddr": src_addr,
                    "ipv4.dstAddr": dst_addr,
                    "ipv4.proto": 17,
                    "l4.sport": 1000 + index,
                    "l4.dport": 443,
                },
                rate_gbps=1.0,
            )
        built.attach_host(src, sender)
        senders.append(sender)
    return built.fabric, senders, len(built.switches)


def build_fattree_fabric(k: int = 4):
    """The fleet scaling point: the full rebalance scenario."""
    from repro.apps.fabric_lb import build_fattree_rebalance

    scenario = build_fattree_rebalance(k=k)
    return scenario.fabric, scenario.senders, len(scenario.built.switches)


def measure_fabric_point(
    factory, duration_us: float, reps: int = 2
) -> Dict[str, object]:
    """Run ``factory``'s fabric for ``duration_us`` with all agents as
    scheduled actors; events/sec counts packet events plus actor fires
    over wall time.  Best of ``reps`` fresh builds (wall-clock noise)."""
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, reps)):
        fabric, senders, n_switches = factory()
        events_before = fabric.events.processed
        fires_before = fabric.scheduler.actor_fires
        start = fabric.clock.now
        for sender in senders:
            sender.start()
        wall_start = time.perf_counter()
        fabric.run_until(start + duration_us, agent=True)
        wall = time.perf_counter() - wall_start
        events = (
            fabric.events.processed - events_before
            + fabric.scheduler.actor_fires - fires_before
        )
        point = {
            "switches": n_switches,
            "events": events,
            "actor_fires": fabric.scheduler.actor_fires - fires_before,
            "wall_sec": round(wall, 6),
            "events_per_sec": round(events / wall, 1) if wall else 0.0,
            "simulated_us": round(fabric.clock.now - start, 3),
        }
        if best is None or point["events_per_sec"] > best["events_per_sec"]:
            best = point
    return best


def run_fabric_benchmark(
    duration_us: float = 1200.0,
    k: int = 4,
    json_path: Optional[str] = None,
) -> Dict[str, object]:
    """The BENCH_fabric.json payload.

    Two halves: the scaling curve (events/sec on a 2-switch pair vs
    the FatTree(k) fleet -- the O(1)-per-event core must not fall off
    a cliff with 10x the switches) and the rebalancing headline
    (max-link utilization, Mantis fleet vs static hashing, same
    adversarially polarized traffic matrix)."""
    from repro.apps.fabric_lb import compare_fattree

    pair = measure_fabric_point(build_pair_fabric, duration_us)
    tree = measure_fabric_point(lambda: build_fattree_fabric(k), duration_us)
    scaling_ratio = (
        tree["events_per_sec"] / pair["events_per_sec"]
        if pair["events_per_sec"]
        else float("inf")
    )
    comparison = compare_fattree(k=k, duration_us=duration_us)
    payload: Dict[str, object] = {
        "bench": "fabric",
        "workload": "fabric-scaling+rebalance",
        "k": k,
        "duration_us": duration_us,
        "scaling": {
            str(pair["switches"]): pair,
            str(tree["switches"]): tree,
        },
        "pair_events_per_sec": pair["events_per_sec"],
        "fattree_events_per_sec": tree["events_per_sec"],
        "scaling_ratio": round(scaling_ratio, 3),
        "static_max_utilization": round(
            comparison["static_max_utilization"], 4
        ),
        "mantis_max_utilization": round(
            comparison["mantis_max_utilization"], 4
        ),
        "improvement": round(comparison["improvement"], 4),
        "shifting_switches": comparison["mantis"]["shifting_switches"],
        "total_shifts": comparison["mantis"]["total_shifts"],
        "mantis_delivery_rate": round(
            comparison["mantis"]["delivery_rate"], 4
        ),
        "agent_actor_fires": comparison["mantis"]["agent_actor_fires"],
    }
    if json_path:
        write_json(json_path, payload)
    return payload


def run_ctrl_benchmark(*args, **kwargs) -> Dict[str, object]:
    """Control-plane service throughput benchmark (BENCH_ctrl.json).

    Thin re-export so every tracked benchmark artifact has a
    ``fastbench`` entry point; the implementation lives in
    :mod:`repro.ctrl.bench`.
    """
    from repro.ctrl.bench import run_ctrl_benchmark as _run

    return _run(*args, **kwargs)
