"""``python -m bench compare A.jsonl B.jsonl``: did B get worse than A?

Each file holds the records ``python -m bench run --json FILE`` appended:
one per run.  Records are grouped by workload.  With several runs of a
workload a metric's centre is the median of the runs' values and its
spread their interquartile distance; with a single run the centre is
that run's value and the spread is what the run recorded over its
repetitions.

One row per (workload, end-to-end metric):

- ``unresolved``: the quartile spread on either side is wider than the
  metric's bound, so the bound cannot be checked;
- ``worse`` / ``better``: B's median moved past the bound;
- ``same``: within the bound.

Exit status 1 on any ``worse``, on a larger failed-operation share in B,
or when a (workload, seed) pair was simulated differently on the two
sides (``sim_digest``).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from bench.harness import END_TO_END, WORKLOAD_NAMES


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced records of one file, by workload."""
    runs: Dict[str, List[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def center_and_spread(runs: List[dict], metric: str) -> Tuple[float, float]:
    """Centre, and interquartile distance as a share of the median."""
    if len(runs) == 1:
        m = runs[0]["metrics"][metric]
        return m["value"], (m["q3"] - m["q1"]) / m["median"]
    values = [run["metrics"][metric]["value"] for run in runs]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def verdict(metric: dict, a: Tuple[float, float], b: Tuple[float, float]):
    """``(verdict, change)`` where ``change`` > 0 means B is worse by
    that share of A's median."""
    (a_median, a_spread), (b_median, b_spread) = a, b
    change = (b_median - a_median) / a_median if a_median else 0.0
    if metric["better"] == "higher":
        change = -change
    if max(a_spread, b_spread) > metric["bound"]:
        return "unresolved", change
    if change > metric["bound"]:
        return "worse", change
    if change < -metric["bound"]:
        return "better", change
    return "same", change


def failed_share(runs: List[dict]) -> float:
    attempted = sum(run["ops_attempted"] for run in runs)
    return sum(run["ops_failed"] for run in runs) / attempted


def compare(path_a: str, path_b: str, log=print) -> int:
    runs_a, runs_b = load(path_a), load(path_b)
    bad = 0
    log(f"{'workload':16s} {'metric':16s} {'A':>13s} {'B':>13s} "
        f"{'B worse by':>10s} {'spread A/B':>13s} {'bound':>6s}  verdict")
    for workload in WORKLOAD_NAMES:
        a_runs, b_runs = runs_a.get(workload), runs_b.get(workload)
        if not a_runs or not b_runs:
            log(f"{workload:16s} missing from "
                f"{path_b if a_runs else path_a}")
            bad += 1
            continue
        for name, metric in END_TO_END.items():
            a = center_and_spread(a_runs, name)
            b = center_and_spread(b_runs, name)
            word, change = verdict(metric, a, b)
            bad += word == "worse"
            log(f"{workload:16s} {name:16s} {a[0]:13.6g} {b[0]:13.6g} "
                f"{change:+10.2%} {a[1]:6.2%}/{b[1]:6.2%} "
                f"{metric['bound']:6.0%}  {word}")
        share_a, share_b = failed_share(a_runs), failed_share(b_runs)
        log(f"{workload:16s} failed ops       A {share_a:.2%} of "
            f"{sum(r['ops_attempted'] for r in a_runs)}, B {share_b:.2%} of "
            f"{sum(r['ops_attempted'] for r in b_runs)}")
        bad += share_b > share_a
        digests_a = {run["seed"]: run["sim_digest"] for run in a_runs}
        for run in b_runs:
            expected = digests_a.get(run["seed"], run["sim_digest"])
            if run["sim_digest"] != expected:
                log(f"{workload:16s} sim_digest differs on seed "
                    f"{run['seed']}: simulated results changed")
                bad += 1
    return 1 if bad else 0
