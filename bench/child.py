"""One repetition: cold set-up, the timed window, counters, simulated results.

Run as ``python -m bench.child`` with a job on stdin (the harness does
this, one fresh process per repetition) or call :func:`run_job`
in-process (the smoke test does).  A job is::

    {"workload": name, "inputs": {...}, "sizes": {...},
     "env": {...}, "trace": bool, "trace_path": str | null}

Nothing under ``repro`` is imported before the set-up clock starts.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
from typing import Dict, List

from bench.workloads import BUILDERS, Scenario

#: What each workload imports cold.  Listed (not left to the builders'
#: own lazy imports) so the tracer can patch classes before anything binds
#: them, and so ``setup.import_s`` means the same thing traced or not.
MODULES = {
    "fleet_rebalance": ("repro.apps.fabric_lb",),
    "dos_scalar": ("repro.apps.dos", "repro.net.hosts", "repro.net.tcp"),
    "dos_burst": ("repro.apps.dos", "repro.net.hosts", "repro.net.tcp"),
    "ctrl_contended": (
        "repro.system", "repro.net.sim", "repro.net.hosts",
        "repro.agent.legacy", "repro.ctrl", "repro.analysis.stats",
    ),
}

#: Scheduled for deletion by ROADMAP; the benchmark must not lean on them.
FORBIDDEN_MODULES = ("repro.fastbench", "repro.ctrl.bench", "benchmarks")

AGENT_PHASES = ("poll_us", "react_us", "commit_us", "mv_flip_us")
CTRL_COUNTS = ("submitted", "completed", "rejected", "retried", "failed")
TRACED_LAYERS = (
    "runtime", "net.hosts", "net.fabric", "switch.pipeline", "agent",
    "p4r.reaction", "switch.driver", "ctrl",
)


def counters(scenario: Scenario) -> Dict[str, float]:
    """Cumulative counters the layers already expose, summed over the
    fabric.  Window figures are differences of two of these."""
    fabric = scenario.fabric
    c: Dict[str, float] = dict.fromkeys((
        "pkts", "pipeline_dropped", "batches", "batch_pkts", "slow_path",
        "columnar", "columnar_fallback", "iterations", "dirty_staged",
        "dirty_skipped", "agent_failures", "ops", "bulk_txns", "retries",
        "errors", "link_hops", "host_tx", "host_rx", "tcp_retransmits",
        "table_entries", "channel_busy_us", "bulk_wait_us",
        "bulk_completed",
        *(f"sim_{phase}" for phase in AGENT_PHASES),
        *(f"ctrl_{name}" for name in CTRL_COUNTS),
    ), 0)
    for switch in fabric.switches.values():
        system = switch.system
        asic, agent, driver = system.asic, system.agent, system.driver
        batch = asic.batch_stats
        c["pkts"] += asic.packets_processed
        c["pipeline_dropped"] += asic.packets_dropped
        c["batches"] += batch.batches
        c["batch_pkts"] += batch.packets
        c["slow_path"] += batch.slow_path
        c["columnar"] += batch.columnar
        c["columnar_fallback"] += batch.columnar_fallback
        c["table_entries"] += sum(len(t.entries) for t in asic.tables.values())
        c["iterations"] += agent.iterations
        for phase in AGENT_PHASES:
            c[f"sim_{phase}"] += agent.phase_totals[phase]
        c["dirty_staged"] += agent.dirty_writes_staged
        c["dirty_skipped"] += agent.dirty_writes_skipped
        c["agent_failures"] += agent.health().total_failures
        c["ops"] += driver.ops_issued
        c["bulk_txns"] += driver.bulk_txns
        c["retries"] += driver.retries_total
        c["errors"] += driver.errors_total
        c["link_hops"] += switch.forwarded
        for host in switch.hosts.values():
            c["host_tx"] += getattr(host, "tx_packets", 0)
            c["host_rx"] += host.rx_packets
            c["tcp_retransmits"] += getattr(host, "retransmits", 0)
        if system.ctrl is not None:
            for stats in system.ctrl.class_stats.values():
                for name in CTRL_COUNTS:
                    c[f"ctrl_{name}"] += getattr(stats, name)
            bulk = system.ctrl.class_stats["bulk"]
            c["bulk_wait_us"] += bulk.wait_us
            c["bulk_completed"] += bulk.completed
            c["channel_busy_us"] += system.ctrl.channel.device_busy_us
    totals = fabric.drop_totals()
    c["delivered"] = totals["delivered"]
    c["egress_dropped"] = totals["egress_dropped"]
    c["events"] = fabric.events.processed
    c["actor_fires"] = fabric.scheduler.actor_fires
    c["clock_us"] = fabric.clock.now
    return c


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(ordered: List[int], q: float) -> float:
    return float(ordered[round(q * (len(ordered) - 1))]) if ordered else 0.0


def layer_counts(d: Dict[str, float], ready: Dict[str, float],
                 sim: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics that need no tracer: window deltas ``d`` of the
    counters, the state at scenario-ready, and the ``sim`` block."""
    return {
        "runtime.events": d["events"],
        "runtime.actor_fires": d["actor_fires"],
        "runtime.events_per_pkt": _ratio(d["events"], d["pkts"]),
        "net.hosts.tx_pkts": d["host_tx"],
        "net.hosts.rx_pkts": d["host_rx"],
        "net.hosts.tcp_retransmits": d["tcp_retransmits"],
        "net.fabric.link_hops": d["link_hops"],
        "net.fabric.delivered": d["delivered"],
        "net.fabric.egress_dropped": d["egress_dropped"],
        "net.fabric.bursts": d["batches"],
        "net.fabric.pkts_per_burst": _ratio(d["batch_pkts"], d["batches"]),
        "switch.pipeline.calls": d["pkts"] - d["batch_pkts"] + d["batches"],
        "switch.pipeline.pkts": d["pkts"],
        "switch.pipeline.pkts_per_call": _ratio(
            d["pkts"], d["pkts"] - d["batch_pkts"] + d["batches"]
        ),
        "switch.pipeline.columnar_share": _ratio(d["columnar"], d["pkts"]),
        "switch.pipeline.fallback_share": _ratio(
            d["columnar_fallback"], d["pkts"]
        ),
        "switch.pipeline.slow_path_share": _ratio(d["slow_path"], d["pkts"]),
        "switch.pipeline.dropped": d["pipeline_dropped"],
        "agent.iterations": d["iterations"],
        "agent.sim_poll_us": d["sim_poll_us"],
        "agent.sim_react_us": d["sim_react_us"],
        "agent.sim_commit_us": d["sim_commit_us"],
        "agent.sim_mv_flip_us": d["sim_mv_flip_us"],
        "agent.dirty_diff_hit_rate": _ratio(
            d["dirty_skipped"], d["dirty_skipped"] + d["dirty_staged"]
        ),
        "agent.failed_iterations": d["agent_failures"],
        "switch.driver.ops": d["ops"],
        "switch.driver.bulk_txns": d["bulk_txns"],
        "switch.driver.retries": d["retries"],
        "switch.driver.errors": d["errors"],
        **{f"ctrl.{name}": d[f"ctrl_{name}"] for name in CTRL_COUNTS},
        "ctrl.sim_channel_utilization": _ratio(
            d["channel_busy_us"], d["clock_us"]
        ),
        "ctrl.sim_legacy_p50_us": sim.get("legacy_p50_us", 0.0),
        "ctrl.sim_legacy_p99_us": sim.get("legacy_p99_us", 0.0),
        "ctrl.sim_bulk_wait_us": _ratio(d["bulk_wait_us"], d["bulk_completed"]),
        "setup.route_entries": ready["table_entries"],
    }


def window_kinds(at_ready, at_end) -> Dict[str, Dict[str, object]]:
    """Per-kind span aggregates of the window alone (two snapshots
    subtracted), dropping kinds that never ran in it."""
    kinds = {}
    for name, after in at_end.items():
        before = at_ready.get(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        if after["count"] > before["count"]:
            kinds[name] = {
                "layer": after["layer"],
                "count": after["count"] - before["count"],
                "total_s": (after["total_ns"] - before["total_ns"]) / 1e9,
                "self_s": (after["self_ns"] - before["self_ns"]) / 1e9,
            }
    return kinds


def layer_times(tracer, at_ready, kinds, setup_s: float, import_s: float,
                window_ns: int, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics that come from the traced spans."""
    self_s = dict.fromkeys(TRACED_LAYERS + ("setup", "other"), 0.0)
    calls = dict.fromkeys(self_s, 0)
    for kind in kinds.values():
        self_s[kind["layer"]] += kind["self_s"]
        calls[kind["layer"]] += kind["count"]

    def setup_total(kind: str) -> float:
        return at_ready.get(kind, {"total_ns": 0})["total_ns"] / 1e9

    compile_s = setup_total("compile_p4r")
    prologue_s = setup_total("MantisAgent.prologue")
    routes_s = setup_total("install_routes")
    iterations = sorted(tracer.iteration_ns)
    # ``setup`` spans cannot occur inside the window; if they did they
    # would be unattributed time, so they count against coverage too.
    unnamed = self_s["other"] + self_s["setup"]
    out = {f"{layer}.self_s": self_s[layer] for layer in TRACED_LAYERS}
    out.update({
        "switch.pipeline.us_per_pkt": _ratio(
            self_s["switch.pipeline"] * 1e6, counts["switch.pipeline.pkts"]
        ),
        "agent.iter_us_p50": _percentile(iterations, 0.50) / 1e3,
        "agent.iter_us_p99": _percentile(iterations, 0.99) / 1e3,
        "p4r.reaction.calls": calls["p4r.reaction"],
        "p4r.reaction.us_per_call": _ratio(
            self_s["p4r.reaction"] * 1e6, calls["p4r.reaction"]
        ),
        "switch.driver.us_per_op": _ratio(
            self_s["switch.driver"] * 1e6, counts["switch.driver.ops"]
        ),
        "ctrl.us_per_op": _ratio(
            self_s["ctrl"] * 1e6, counts["ctrl.completed"]
        ),
        "setup.import_s": import_s,
        "setup.compile_s": compile_s,
        "setup.prologue_s": prologue_s,
        "setup.routes_s": routes_s,
        "setup.build_s": setup_s - import_s - compile_s - prologue_s
        - routes_s,
        "trace.coverage": 1.0 - _ratio(unnamed, window_ns / 1e9),
        "trace.other_s": unnamed,
    })
    return out


def run_job(job: Dict[str, object]) -> Dict[str, object]:
    workload = job["workload"]
    saved_env = {key: os.environ.get(key) for key in job.get("env", {})}
    os.environ.update(job.get("env", {}))
    tracer = None
    try:
        setup_start = time.perf_counter()
        for module in MODULES[workload]:
            importlib.import_module(module)
        import_s = time.perf_counter() - setup_start
        install_s = 0.0
        if job.get("trace"):
            from bench.trace import Tracer

            tracer = Tracer().install()
            install_s = time.perf_counter() - setup_start - import_s
        scenario = BUILDERS[workload](job["inputs"], job["sizes"])
        # Installing the tracer is the benchmark's cost, not the program's.
        setup_s = time.perf_counter() - setup_start - install_s

        ready = counters(scenario)
        window_ns = 0
        if tracer is not None:
            at_ready = tracer.snapshot()
            tracer.reset_iterations()
            root = tracer.enter(tracer.kind("window", "other"))
        cpu_start = time.process_time()
        run_start = time.perf_counter()
        scenario.window()
        run_s = time.perf_counter() - run_start
        cpu_s = time.process_time() - cpu_start
        if tracer is not None:
            window_ns = tracer.exit(root)
            at_end = tracer.snapshot()
        end = counters(scenario)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    sim = scenario.sim()
    delta = {key: end[key] - ready[key] for key in end}
    per_layer = layer_counts(delta, ready, sim)
    kinds = {}
    if tracer is not None:
        kinds = window_kinds(at_ready, at_end)
        per_layer.update(layer_times(
            tracer, at_ready, kinds, setup_s, import_s, window_ns, per_layer
        ))
        if job.get("trace_path"):
            tracer.write_chrome_trace(job["trace_path"])
    return {
        "workload": workload,
        "traced": tracer is not None,
        "end_to_end": {
            "setup_s": setup_s,
            "run_s": run_s,
            "pkts_per_s": delta["pkts"] / run_s,
            "reactions_per_s": delta["iterations"] / run_s,
            "ctrl_ops_per_s": delta["ops"] / run_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        },
        "cpu_s": cpu_s,
        "per_layer": per_layer,
        "kinds": kinds,
        "sim": sim,
        "sim_digest": hashlib.sha256(
            json.dumps(sim, sort_keys=True).encode()
        ).hexdigest(),
        "invariant_failures": scenario.check(sim),
        "forbidden_modules": [
            name for name in FORBIDDEN_MODULES if name in sys.modules
        ],
    }


def main() -> int:
    json.dump(run_job(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
