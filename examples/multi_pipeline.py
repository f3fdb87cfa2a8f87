#!/usr/bin/env python3
"""Multi-pipeline demo: per-pipeline Mantis agents (paper Sections 4
and 6) and the future-work synchronized-commit extension.

A 3-pipeline switch runs one program; each pipeline has its own
register state and its own agent instance.  Reactions adapt each
pipeline independently; the synchronized-commit extension then shrinks
the cross-pipeline inconsistency window.

Run:  python examples/multi_pipeline.py
"""

from repro.multipipe import MultiPipelineSwitch
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.packet import Packet

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; out : 32; } }
header h_t hdr;
register load { width : 32; instance_count : 4; }
malleable value threshold { width : 32; init : 100; }
action observe() {
    register_write(load, 0, hdr.f);
    modify_field(hdr.out, ${threshold});
}
table t { actions { observe; } default_action : observe(); }
control ingress { apply(t); }

reaction adapt(reg load[0:3]) {
    // Track the observed load and set the threshold to double it.
    ${threshold} = load[0] * 2;
}
"""


def main() -> None:
    switch = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=3)
    switch.prologue()
    print(f"{len(switch)} pipelines, one compiled program, one clock\n")

    # Different traffic load per pipeline.
    loads = [10, 55, 200]
    for pipeline, value in zip(switch.pipelines, loads):
        pipeline.asic.process(Packet({"hdr.f": value}))

    switch.run_round()
    print("After one round-robin dialogue round:")
    for index, pipeline in enumerate(switch.pipelines):
        threshold = pipeline.agent.read_malleable("threshold")
        print(f"  pipeline {index}: observed load "
              f"{loads[index]:3d} -> threshold {threshold}")

    # Unsynchronized commits spread across the round; the extension
    # packs them back to back.
    start = switch.clock.now
    switch.run_round()
    round_us = switch.clock.now - start
    skew = switch.run_round_synchronized()
    print(f"\nCommit skew across pipelines:")
    print(f"  plain round-robin : up to {round_us:.1f} us")
    print(f"  synchronized      : {skew:.1f} us "
          "(the paper's future-work direction)")


if __name__ == "__main__":
    main()
