#!/usr/bin/env python3
"""Use case #2 demo: gray-failure detection and route recomputation
(paper Section 8.3.2 / Figure 16).

Four neighbors send 1 us heartbeats; the switch counts them per port
in the data plane.  The reaction compares each port's marginal count
against delta = floor(eta * T_d / T_s) and, after two consecutive
violations, recomputes routes (one BFS per destination over the ring's
FabricSpec, lowest port on ties) and installs them through the
malleable routing table.

Two failures are injected: a hard failure (heartbeats stop) and a gray
failure (the link stays up but drops 90% of heartbeats).

Run:  python examples/gray_failure_reroute.py
"""

from repro.apps.failover import build_failover_scenario
from repro.switch.packet import Packet


def show_route(app, dst, label):
    packet = Packet({"ipv4.dstAddr": dst, "ipv4.proto": 6})
    result = app.system.asic.process(packet)
    route = f"port {result[0]}" if result else "DROPPED"
    print(f"  {label}: dst {dst:#010x} -> {route}")


def main() -> None:
    app, sim, generators = build_failover_scenario(
        n_neighbors=4, heartbeat_period_us=1.0, eta=0.5
    )
    app.prologue()
    for generator in generators.values():
        generator.start(at_us=0.0)

    print("Ring of 4 neighbors, heartbeats every 1us, eta=0.5\n")
    sim.run_until(500.0)
    print(f"[t={sim.clock.now:7.1f}us] healthy:")
    for index in range(4):
        show_route(app, 0x0A000100 + index, f"n{index}")

    # --- hard failure: neighbor 2 goes silent -------------------------
    hard_fail = sim.clock.now
    generators[2].stop()
    print(f"\n[t={hard_fail:7.1f}us] HARD FAILURE on port 2 "
          "(heartbeats stop)")
    sim.run_until(hard_fail + 1_000.0)
    detect = app.detected_ports.get(2)
    reroute = app.reroute_times.get(2)
    print(f"  detected at t={detect:.1f}us "
          f"({detect - hard_fail:.1f}us after failure)")
    print(f"  rerouted at t={reroute:.1f}us "
          f"({reroute - hard_fail:.1f}us end-to-end, paper: 100-200us)")
    show_route(app, 0x0A000102, "n2 (via detour)")

    # --- gray failure: neighbor 1 drops 90% of heartbeats --------------
    gray_fail = sim.clock.now
    generators[1].set_gray_loss(0.9)
    print(f"\n[t={gray_fail:7.1f}us] GRAY FAILURE on port 1 "
          "(90% heartbeat loss, link nominally up)")
    sim.run_until(gray_fail + 2_000.0)
    if 1 in app.detected_ports:
        delay = app.detected_ports[1] - gray_fail
        print(f"  detected {delay:.1f}us after onset "
              "(a control-plane detector at 10s of ms would miss this "
              "for ~100x longer)")
        show_route(app, 0x0A000101, "n1 (via detour)")
    else:
        print("  not detected (unexpected)")

    print(f"\nRecomputations: {app.recomputations}; dialogue iterations: "
          f"{app.system.agent.iterations}")


if __name__ == "__main__":
    main()
