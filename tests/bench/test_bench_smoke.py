"""Smoke test of the benchmark harness (``bench/``) at tiny simulated sizes.

Checks the plumbing, not the speed: every metric ``BENCHMARK.json``
declares is emitted under exactly that name, repeated runs simulate the
same thing, traced self times partition the window, and tracing leaves
nothing patched behind.
"""

import json
import re
import subprocess
import sys

import pytest

from bench import child, harness, trace
from bench.workloads import CHILD_ENV, DEFAULT_SEED, make_inputs

TINY = {
    "fleet_rebalance": {"duration_us": 800.0},
    "dos_scalar": {"warmup_us": 300.0, "flood_us": 500.0},
    "dos_burst": {"warmup_us": 300.0, "flood_us": 500.0},
    "ctrl_contended": {"duration_us": 1500.0, "loader_ops": 60_000},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_job(workload, seed=DEFAULT_SEED, traced=False, trace_path=None):
    return {
        "workload": workload,
        "inputs": make_inputs(workload, seed),
        "sizes": TINY[workload],
        "env": CHILD_ENV.get(workload, {}),
        "trace": traced,
        "trace_path": trace_path,
    }


def patch_targets():
    """What a few of the attributes the tracer replaces hold right now."""
    import repro.system
    from repro.agent.agent import MantisAgent
    from repro.net.events import EventQueue
    from repro.switch.asic import SwitchAsic
    from repro.switch.driver import Driver

    return [
        vars(owner)[name] for owner, name in (
            (SwitchAsic, "process"), (SwitchAsic, "process_batch"),
            (EventQueue, "schedule"), (EventQueue, "drain"),
            (Driver, "write_batch"), (MantisAgent, "run_iteration"),
            (MantisAgent, "attach_python"), (repro.system, "compile_p4r"),
        )
    ]


def test_workloads_match_benchmark_json():
    assert set(harness.WORKLOAD_NAMES) == set(TINY) == set(child.MODULES)
    assert set(harness.EXPECTED) == set(TINY)
    names = list(harness.END_TO_END) + list(harness.PER_LAYER) \
        + harness.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {name: m["bound"] for name, m in harness.END_TO_END.items()}
    assert max(bounds, key=bounds.get) == "setup_s"
    assert all(0 < bound <= 0.25 for bound in bounds.values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_declared_metric(workload, tmp_path):
    before = patch_targets()
    plain = child.run_job(tiny_job(workload))
    again = child.run_job(tiny_job(workload))
    trace_path = str(tmp_path / "trace.json")
    traced = child.run_job(tiny_job(workload, traced=True,
                                    trace_path=trace_path))

    # Every declared name, and nothing else.
    assert set(plain["end_to_end"]) == set(harness.END_TO_END)
    assert set(traced["per_layer"]) | {"trace.overhead"} \
        == set(harness.PER_LAYER)
    assert all(value > 0 for value in plain["end_to_end"].values())

    # Deterministic simulation: repeats and the traced run agree, the
    # workload's invariants hold, another seed simulates something else.
    assert plain["sim_digest"] == again["sim_digest"] == traced["sim_digest"]
    assert plain["invariant_failures"] == traced["invariant_failures"] == []
    other = child.run_job(tiny_job(workload, seed=DEFAULT_SEED + 1))
    assert other["sim_digest"] != plain["sim_digest"]
    assert other["invariant_failures"] == []

    # Self times are a partition of the traced window.
    assert all(kind["self_s"] >= 0 for kind in traced["kinds"].values())
    total_self = sum(kind["self_s"] for kind in traced["kinds"].values())
    assert total_self == pytest.approx(
        traced["end_to_end"]["run_s"], rel=0.01
    )
    assert traced["per_layer"]["trace.coverage"] >= 0.95
    with open(trace_path) as handle:
        spans = json.load(handle)["traceEvents"]
    assert 0 < len(spans) <= trace.SPAN_LIMIT

    # The wrappers are gone.
    assert patch_targets() == before


def test_child_process_stays_off_retired_modules():
    """In a fresh process (this one may have imported anything): the
    child protocol works end to end and pulls in neither ``fastbench``,
    ``ctrl.bench`` nor ``benchmarks``."""
    done = subprocess.run(
        [sys.executable, "-m", "bench.child"],
        input=json.dumps(tiny_job("ctrl_contended")),
        capture_output=True, text=True, cwd=harness.ROOT,
        env=harness.child_environment(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["forbidden_modules"] == []
    assert result["invariant_failures"] == []


def test_compare_applies_bounds():
    from bench.compare import verdict

    run_s = harness.END_TO_END["run_s"]
    rate = harness.END_TO_END["pkts_per_s"]
    assert verdict(run_s, (1.0, 0.01), (1.05, 0.01))[0] == "same"
    assert verdict(run_s, (1.0, 0.01), (1.20, 0.01))[0] == "worse"
    assert verdict(run_s, (1.0, 0.01), (0.80, 0.01))[0] == "better"
    assert verdict(rate, (100.0, 0.01), (80.0, 0.01))[0] == "worse"
    assert verdict(run_s, (1.0, 0.20), (1.20, 0.01))[0] == "unresolved"
