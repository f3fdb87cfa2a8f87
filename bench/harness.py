"""The parent side: repetitions in fresh child processes, the checks, the
run's figures.

One *run* measures one workload for ``--seconds`` of wall time, set-up
included.  It is a sequence of repetitions, one fresh single-threaded
child at a time while this process idles; the number of repetitions is
whatever fits the budget (at least ``MIN_REPETITIONS``), so a slower
machine takes fewer samples instead of more time.

A run's value for a metric is its **best** repetition (lowest where lower
is better, highest otherwise), reported beside the median, quartiles and
sample count.  The simulated work is identical in every repetition, so
whatever else the shared machine is doing can only add time; on the
reference box the medians of ten 30 s runs spread 4-12 % (interquartile,
with episodes of 2x), the minima 2-8 %.

A repetition is one *operation*.  It fails if the child does not exit
cleanly, a workload invariant fails, the child imported a module the
benchmark must not depend on, or its ``sim_digest`` differs from the
reference: the digest pinned in ``expected.json`` on the default seed,
otherwise the run's first repetition.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from bench.workloads import (
    CHILD_ENV, DEFAULT_SEED, DOS_SETUP, PROGRAMS, SIZES, make_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(HERE, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

MIN_REPETITIONS = 3
#: Untraced repetitions at the head of a traced run: the base of
#: ``trace.overhead``.
TRACE_BASELINE_REPETITIONS = 2
REPETITION_TIMEOUT_S = 120.0
#: The contract allows a run 180 s; stop adding repetitions well short.
RUN_CEILING_S = 150.0


class BenchmarkError(Exception):
    """The run cannot produce a result at all."""


def child_environment() -> Dict[str, str]:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchmarkError(
            f"no program to measure: {src}/repro is missing (run from a "
            "full checkout)"
        )
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("MANTIS_")   # engine knobs come from the job
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [src, ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_repetition(job: Dict[str, object], env: Dict[str, str]) -> Dict[str, object]:
    """One child process; returns its result or ``{"error": ...}``."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bench.child"],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=REPETITION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REPETITION_TIMEOUT_S:.0f} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"child exited {done.returncode}: {tail[0]}"}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def summarize(values: List[float], value: float) -> Dict[str, float]:
    """The run's ``value`` with the median, quartiles and the samples of
    the repetitions it was picked from."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": value, "median": statistics.median(values),
        "q1": q1, "q3": q3, "n": len(values), "samples": values,
    }


def best(metric: Dict[str, object], values: List[float]) -> float:
    return min(values) if metric["better"] == "lower" else max(values)


def fingerprint() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "commit": commit,
    }


def config_digest() -> str:
    """Everything that fixes *what* is measured, in one hash."""
    programs = {}
    for name in sorted(os.listdir(PROGRAMS)):
        with open(os.path.join(PROGRAMS, name)) as handle:
            programs[name] = handle.read()
    config = {
        "spec": SPEC, "sizes": SIZES, "dos_setup": DOS_SETUP,
        "child_env": CHILD_ENV, "programs": programs,
    }
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool, log=print) -> Dict[str, object]:
    """One run; returns its record (see README.md for the schema)."""
    started = time.monotonic()
    env = child_environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    job = {
        "workload": workload,
        "inputs": make_inputs(workload, seed),
        "sizes": SIZES[workload],
        "env": CHILD_ENV.get(workload, {}),
        "trace": False,
        "trace_path": os.path.join(OUT_DIR, f"{workload}.trace.json"),
    }
    reference = EXPECTED.get(workload) if seed == DEFAULT_SEED else None
    good: List[Dict[str, object]] = []
    attempted = failed = 0
    slowest = {False: 0.0, True: 0.0}      # repetition wall time, by traced

    def wanted() -> Optional[bool]:
        """Whether to run another repetition, and whether traced."""
        traced = trace and attempted >= TRACE_BASELINE_REPETITIONS
        done_traced = sum(1 for r in good if r["traced"])
        enough = attempted >= MIN_REPETITIONS and (done_traced or not trace)
        elapsed = time.monotonic() - started
        estimate = slowest[traced] or slowest[False] * 3
        if failed >= MIN_REPETITIONS or elapsed + estimate > RUN_CEILING_S:
            return None
        if enough and elapsed + estimate > seconds:
            return None
        return traced

    while True:
        traced = wanted()
        if traced is None:
            break
        job["trace"] = traced
        rep_started = time.monotonic()
        result = run_repetition(job, env)
        slowest[traced] = max(slowest[traced], time.monotonic() - rep_started)
        attempted += 1
        problems = []
        if "error" in result:
            problems.append(result["error"])
        else:
            problems += [f"invariant {n}" for n in result["invariant_failures"]]
            problems += [f"imported {n}" for n in result["forbidden_modules"]]
            if reference is None:
                reference = result["sim_digest"]
            if result["sim_digest"] != reference:
                problems.append(
                    f"sim_digest {result['sim_digest'][:12]} != "
                    f"{reference[:12]}"
                )
        if problems:
            failed += 1
            log(f"  rep {attempted}: FAILED ({'; '.join(problems)})")
            continue
        good.append(result)
        e2e = result["end_to_end"]
        log(
            f"  rep {attempted}{' traced' if traced else ''}: "
            f"setup {e2e['setup_s']:.3f} s, run {e2e['run_s']:.3f} s "
            f"(cpu {result['cpu_s']:.3f} s), "
            f"rss {e2e['peak_rss_mb']:.1f} MB, "
            f"digest {result['sim_digest'][:12]}"
        )

    plain = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise BenchmarkError(
            f"{workload}: no usable repetition "
            f"({failed} of {attempted} failed)"
        )

    def run_s(rep: Dict[str, object]) -> float:
        return rep["end_to_end"]["run_s"]

    if trace:
        untraced_s = min(map(run_s, plain))
        for rep in traced_reps:
            rep["per_layer"]["trace.overhead"] = run_s(rep) / untraced_s - 1.0
        # All per-layer figures come from one repetition, the fastest
        # traced one, so its self times still add up to its window.
        fastest = min(traced_reps, key=run_s)
        declared = PER_LAYER
        metrics = {
            name: summarize(
                [rep["per_layer"][name] for rep in traced_reps],
                fastest["per_layer"][name],
            )
            for name in declared
        }
    else:
        declared = END_TO_END
        metrics = {}
        for name, metric in declared.items():
            values = [rep["end_to_end"][name] for rep in plain]
            metrics[name] = summarize(values, best(metric, values))
    for name, summary in metrics.items():
        summary["unit"] = declared[name]["unit"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "sim_digest": reference,
        "sim": good[0]["sim"],
        "metrics": metrics,
        "fingerprint": fingerprint(),
        "config_digest": config_digest(),
        "claim": None,
    }
    if trace:
        layers_path = os.path.join(OUT_DIR, f"{workload}.layers.json")
        with open(layers_path, "w") as handle:
            json.dump(
                {**record, "kinds": traced_reps[-1]["kinds"]}, handle,
                indent=1,
            )
        log(f"  wrote {os.path.relpath(layers_path, ROOT)} and "
            f"{os.path.relpath(job['trace_path'], ROOT)}")
    return record


def format_summary(record: Dict[str, object]) -> List[str]:
    lines = [
        f"{record['workload']}: seed {record['seed']}, "
        f"ops_attempted {record['ops_attempted']}, "
        f"ops_failed {record['ops_failed']}, "
        f"sim_digest {record['sim_digest'][:12]}"
    ]
    for name, m in record["metrics"].items():
        lines.append(
            f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} "
            f"(median {m['median']:.6g}, q1 {m['q1']:.6g}, "
            f"q3 {m['q3']:.6g}, n {m['n']})"
        )
    return lines


def contract_line(record: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })
