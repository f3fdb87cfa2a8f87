"""Multi-hop failover across a two-switch fabric (Section 8.3.2
scaled up): both Mantis agents run as scheduled actors on one
timeline, and cutting an inter-switch link reroutes the data path.
"""

from __future__ import annotations

import pytest

from repro.apps.failover import (
    H1_ADDR,
    RouteManager,
    build_multihop_failover,
    hb_sink_addr,
    run_multihop_failover,
)
from repro.net.fabric_builder import FabricSpec


class TestFabricPairTopology:
    """The scenario's two-switch FabricSpec, as its route managers see it."""

    @pytest.fixture(scope="class")
    def views(self):
        scenario = build_multihop_failover()
        return [app.routes.view for app in scenario.apps]

    def test_views_share_one_graph(self, views):
        view0, view1 = views
        assert view0.graph == view1.graph
        assert view0.switch_node == "s0"
        assert view1.switch_node == "s1"
        assert view0.dest_map == view1.dest_map == {H1_ADDR: "h1"}

    def test_parallel_links_are_distinct_nodes(self, views):
        view0, _ = views
        assert view0.port_map == {"s0=s1.0": 0, "s0=s1.1": 1, "h0": 2}
        for node in ("s0=s1.0", "s0=s1.1"):
            assert view0.graph[node] == ["s0", "s1"]

    def test_single_link_has_no_detour(self):
        spec = FabricSpec()
        spec.add_switch("s0")
        spec.add_switch("s1")
        spec.add_link("s0", 0, "s1", 0)
        spec.add_host("h1", "s1", 1, addr=H1_ADDR)
        assert spec.graph()["s0"] == ["s1"]  # no intermediate node
        manager = RouteManager(spec.switch_view("s0"))
        assert manager.compute_routes() == {H1_ADDR: 0}
        manager.fail_port(0)
        assert manager.compute_routes() == {H1_ADDR: None}


class TestMultiHopFailover:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_multihop_failover(duration_us=600.0, fail_at_us=200.0)

    def test_reroutes_around_dead_link(self, summary):
        assert summary["rerouted"] is True
        detection = summary["detection"]
        assert detection["s0_port0_detected_us"] > summary["fail_time_us"]
        assert detection["s0_rerouted_us"] >= detection["s0_port0_detected_us"]

    def test_both_switches_detect_independently(self, summary):
        detection = summary["detection"]
        assert detection["s1_port0_detected_us"] is not None
        assert summary["recomputations"] == {"s0": 1, "s1": 1}

    def test_delivery_continues_after_failover(self, summary):
        # The blackout costs at most the detection window's worth of
        # packets; the vast majority of the flow survives the cut.
        assert summary["sink_rx_packets"] > 0.8 * summary["sender_tx_packets"]
        # Traffic arrived in the windows after the reroute.
        rerouted_at = summary["detection"]["s0_rerouted_us"]
        post = [gbps for start, gbps in summary["sink_timeline_gbps"]
                if start > rerouted_at + 40.0]
        assert post and max(post) > 0.0

    def test_both_agents_scheduled_on_one_timeline(self, summary):
        iters = summary["agent_iterations"]
        # Interleaved busy-loops: neither agent starves the other.
        assert iters["s0"] > 10 and iters["s1"] > 10
        assert abs(iters["s0"] - iters["s1"]) <= 2
        # Every iteration after the two prologue commits (one direct
        # run_iteration per app) was an actor turn on the scheduler.
        assert summary["agent_actor_fires"] == iters["s0"] + iters["s1"] - 2

    def test_dead_link_charges_drops(self, summary):
        assert summary["s0_link0_dropped"] > 0

    def test_detection_latency_within_a_few_dialogues(self, summary):
        # Two consecutive violations at busy-loop cadence: the latency
        # is a handful of dialogue iterations, far under the run.
        assert 0 < summary["detection"]["detection_latency_us"] < 100.0


class TestLinkFlapRepair:
    """Satellite: ``restore_link_at`` models flap-and-repair -- the
    cable comes back, probes resume crossing it, and drops stop
    accumulating after the repair."""

    @pytest.fixture(scope="class")
    def flapped(self):
        scenario = build_multihop_failover()
        app0, app1 = scenario.apps
        app0.prologue()
        app1.prologue()
        for generator in scenario.generators:
            generator.start()
        scenario.sender.start()
        fabric = scenario.fabric
        start = scenario.clock.now
        link0 = fabric.links[0]
        fabric.fail_link_at(link0, start + 150.0)
        fabric.restore_link_at(link0, start + 300.0)
        s1 = fabric.switch("s1")
        counters = {}
        fabric.run_until(start + 290.0, agent=True)
        counters["during"] = s1.system.asic.registers["hb_count"].values[0]
        counters["drops_during"] = link0.fault_dropped + sum(
            fabric.switch(n).port_stats(0).dropped for n in ("s0", "s1")
        )
        fabric.run_until(start + 600.0, agent=True)
        counters["after"] = s1.system.asic.registers["hb_count"].values[0]
        counters["drops_after"] = link0.fault_dropped + sum(
            fabric.switch(n).port_stats(0).dropped for n in ("s0", "s1")
        )
        return scenario, link0, counters

    def test_link_is_back_up(self, flapped):
        _, link0, _ = flapped
        assert link0.up is True

    def test_probes_resume_after_repair(self, flapped):
        _, _, counters = flapped
        # hb_count[0] at s1 counts heartbeats that crossed link 0; it
        # froze during the outage and moves again after the repair.
        assert counters["after"] > counters["during"] + 100

    def test_dead_cable_charged_only_during_outage(self, flapped):
        scenario, _, counters = flapped
        assert counters["drops_during"] > 0
        # Post-repair traffic stops feeding the drop counters.
        resumed = counters["after"] - counters["during"]
        grew = counters["drops_after"] - counters["drops_during"]
        assert grew < resumed

    def test_data_still_delivered(self, flapped):
        scenario, _, _ = flapped
        assert scenario.sink.rx_packets > 0


class TestScenarioWiring:
    def test_probe_addressing_is_per_switch_per_link(self):
        assert hb_sink_addr(0, 0) != hb_sink_addr(0, 1)
        assert hb_sink_addr(0, 0) != hb_sink_addr(1, 0)

    def test_transit_switch_forwards_foreign_probes(self):
        """s0 must not count (or eat) probes addressed to s1."""
        scenario = build_multihop_failover()
        app0, app1 = scenario.apps
        app0.prologue()
        app1.prologue()
        for generator in scenario.generators:
            generator.start()
        scenario.fabric.run_until(scenario.clock.now + 60.0, agent=False)
        s1 = scenario.fabric.switch("s1")
        # Probes originated at s0's generators crossed the fabric and
        # were counted at s1 (hb_count indexed by s1's ingress port).
        counts = s1.system.asic.registers["hb_count"].values
        assert counts[0] > 0 and counts[1] > 0
        # And symmetrically at s0.
        s0 = scenario.fabric.switch("s0")
        counts0 = s0.system.asic.registers["hb_count"].values
        assert counts0[0] > 0 and counts0[1] > 0

    def test_data_path_uses_link0_initially(self):
        scenario = build_multihop_failover()
        app0, app1 = scenario.apps
        app0.prologue()
        app1.prologue()
        scenario.sender.start()
        scenario.fabric.run_until(scenario.clock.now + 50.0, agent=False)
        assert scenario.sink.rx_packets > 0
        s0 = scenario.fabric.switch("s0")
        assert s0.port_stats(0).tx_packets > 0
        # Data rides link 0; link 1 carries only probes (64 B).
        assert s0.port_stats(1).tx_bytes < s0.port_stats(0).tx_bytes
