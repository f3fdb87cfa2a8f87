"""``python -m bench run|compare`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def cmd_run(args) -> int:
    from bench import harness

    if args.workload and args.workload not in harness.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(harness.WORKLOAD_NAMES)})", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else harness.WORKLOAD_NAMES
    seconds = harness.SPEC["run_seconds"] if args.seconds is None \
        else args.seconds
    for workload in workloads:
        print(f"{workload}: seed {args.seed}, {seconds:g} s"
              f"{', traced' if args.trace else ''}", flush=True)
        try:
            record = harness.run_workload(
                workload, args.seed, seconds, bool(args.trace)
            )
        except harness.BenchmarkError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            with open(args.json, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        print("\n".join(harness.format_summary(record)))
        print('  "claim": null')
        # Last, so it is the last line of a single-workload run.  A run
        # with failed operations still exits 0: the line says so itself.
        print(harness.contract_line(record), flush=True)
    return 0


def cmd_compare(args) -> int:
    from bench.compare import compare

    return compare(args.a, args.b)


def main(argv: Optional[List[str]] = None) -> int:
    from bench.workloads import DEFAULT_SEED

    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="measure one workload (or all four) for --seconds each"
    )
    run.add_argument("--workload", help="default: every workload in turn")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float,
                     help="wall-time budget per workload, set-up included "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: report the per-layer metrics from traced "
                          "repetitions instead of the end-to-end ones")
    run.add_argument("--json", metavar="FILE",
                     help="append each run's full record to FILE (JSON lines)")
    run.set_defaults(fn=cmd_run)

    compare = commands.add_parser(
        "compare", help="apply the per-metric bounds to two sets of runs"
    )
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
