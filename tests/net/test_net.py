"""Network-substrate tests: events, queues, hosts, TCP, traces."""

import pytest

from repro.net.events import EventQueue
from repro.net.flows import TraceConfig, synthetic_trace, trace_stats
from repro.net.hosts import HeartbeatGenerator, SinkHost, UdpSender
from repro.net.sim import NetworkSim, PortConfig
from repro.net.tcp import TcpFlow, TcpSink
from repro.switch.asic import STANDARD_METADATA_P4
from repro.system import MantisSystem

FORWARDER = STANDARD_METADATA_P4 + """
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; } }
header ipv4_t ipv4;
header_type tcp_t { fields { seq : 32; } }
header tcp_t tcp;

action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
table route {
    reads { ipv4.dstAddr : exact; }
    actions { forward; _drop; }
    default_action : _drop();
    size : 64;
}
control ingress { apply(route); }
"""


def build_sim(num_ports=8):
    system = MantisSystem.from_source(FORWARDER, num_ports=num_ports)
    sim = NetworkSim(system)
    return system, sim


class TestEventQueue:
    def test_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5.0, lambda t: seen.append(("b", t)))
        queue.schedule(1.0, lambda t: seen.append(("a", t)))
        queue.drain(10.0)
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_partial_drain(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, lambda t: seen.append(1))
        queue.schedule(9.0, lambda t: seen.append(9))
        queue.drain(5.0)
        assert seen == [1]
        assert len(queue) == 1
        assert queue.peek_time() == 9.0

    def test_events_scheduled_while_draining(self):
        queue = EventQueue()
        seen = []

        def cascade(t):
            seen.append("first")
            queue.schedule(t + 1.0, lambda t2: seen.append("second"))

        queue.schedule(1.0, cascade)
        queue.drain(10.0)
        assert seen == ["first", "second"]

    def test_negative_time_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, lambda t: None)

    def test_nan_time_rejected(self):
        from repro.errors import SimulationError

        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(float("nan"), lambda t: None)
        assert len(queue) == 0


class TestForwardingPath:
    def test_host_to_host_delivery(self):
        system, sim = build_sim()
        sender = UdpSender("s", {"ipv4.srcAddr": 1, "ipv4.dstAddr": 9},
                           rate_gbps=10.0)
        sink = SinkHost("d")
        sim.attach_host(sender, 0)
        sim.attach_host(sink, 1)
        system.driver.add_entry("route", [9], "forward", [1])
        sender.start(at_us=0.0)
        sim.run_until(100.0, agent=False)
        assert sink.rx_packets > 0
        assert sink.rx_packets <= sender.tx_packets

    def test_queue_capacity_drops(self):
        system, sim = build_sim()
        sim.configure_port(1, PortConfig(bandwidth_gbps=1.0,
                                         queue_capacity_pkts=4))
        sender = UdpSender("s", {"ipv4.srcAddr": 1, "ipv4.dstAddr": 9},
                           rate_gbps=25.0)
        sink = SinkHost("d")
        sim.attach_host(sender, 0)
        sim.attach_host(sink, 1)
        system.driver.add_entry("route", [9], "forward", [1])
        sender.start(at_us=0.0)
        sim.run_until(200.0, agent=False)
        stats = sim.port_stats(1)
        assert stats.dropped > 0
        assert sim.queue_depth(1) <= 4

    def test_queue_depth_visible_to_asic(self):
        system, sim = build_sim()
        sim.configure_port(1, PortConfig(bandwidth_gbps=1.0))
        sender = UdpSender("s", {"ipv4.srcAddr": 1, "ipv4.dstAddr": 9},
                           rate_gbps=25.0)
        sim.attach_host(sender, 0)
        sim.attach_host(SinkHost("d"), 1)
        system.driver.add_entry("route", [9], "forward", [1])
        sender.start(at_us=0.0)
        sim.run_until(50.0, agent=False)
        assert system.asic.ports[1].queue_depth == sim.queue_depth(1)
        assert system.asic.ports[1].queue_depth > 0

    def test_link_down_blackholes(self):
        system, sim = build_sim()
        sender = UdpSender("s", {"ipv4.srcAddr": 1, "ipv4.dstAddr": 9},
                           rate_gbps=10.0)
        sink = SinkHost("d")
        sim.attach_host(sender, 0)
        sim.attach_host(sink, 1)
        system.driver.add_entry("route", [9], "forward", [1])
        sim.set_link_up(0, False)  # ingress link down: nothing arrives
        sender.start(at_us=0.0)
        sim.run_until(100.0, agent=False)
        assert sink.rx_packets == 0

    def test_duplicate_host_port_rejected(self):
        from repro.errors import SimulationError

        _, sim = build_sim()
        sim.attach_host(SinkHost("a"), 0)
        with pytest.raises(SimulationError):
            sim.attach_host(SinkHost("b"), 0)


class TestHeartbeats:
    def test_periodic_generation(self):
        system, sim = build_sim()
        hb = HeartbeatGenerator("h", {"ipv4.srcAddr": 7, "ipv4.dstAddr": 9},
                                period_us=2.0)
        sink = SinkHost("d")
        sim.attach_host(hb, 0)
        sim.attach_host(sink, 1)
        system.driver.add_entry("route", [9], "forward", [1])
        hb.start(at_us=0.0)
        sim.run_until(100.0, agent=False)
        assert 45 <= hb.tx_packets <= 51

    def test_gray_loss(self):
        system, sim = build_sim()
        hb = HeartbeatGenerator("h", {"ipv4.srcAddr": 7, "ipv4.dstAddr": 9},
                                period_us=1.0)
        sim.attach_host(hb, 0)
        sim.attach_host(SinkHost("d"), 1)
        system.driver.add_entry("route", [9], "forward", [1])
        hb.set_gray_loss(0.5)
        hb.start(at_us=0.0)
        sim.run_until(1000.0, agent=False)
        # ~50% of 1000 heartbeats actually transmitted.
        assert 380 <= hb.tx_packets <= 620


class TestTcp:
    def _tcp_pair(self, bandwidth_gbps=10.0, queue=64):
        system, sim = build_sim()
        sim.configure_port(1, PortConfig(bandwidth_gbps=bandwidth_gbps,
                                         queue_capacity_pkts=queue))
        flow = TcpFlow("f", {"ipv4.srcAddr": 1, "ipv4.dstAddr": 9})
        sink = TcpSink("d")
        sink.register_flow(1, flow)
        sim.attach_host(flow, 0)
        sim.attach_host(sink, 1)
        system.driver.add_entry("route", [9], "forward", [1])
        return system, sim, flow, sink

    def test_flow_makes_progress(self):
        _, sim, flow, sink = self._tcp_pair()
        flow.start(at_us=0.0)
        sim.run_until(2000.0, agent=False)
        assert flow.acked > 10
        assert sink.rx_packets >= flow.acked

    def test_window_grows_without_congestion(self):
        _, sim, flow, _ = self._tcp_pair(bandwidth_gbps=100.0)
        flow.start(at_us=0.0)
        sim.run_until(2000.0, agent=False)
        assert flow.cwnd > 4.0

    def test_losses_shrink_window(self):
        # Tiny queue on a slow port -> drops -> timeouts -> backoff.
        _, sim, flow, _ = self._tcp_pair(bandwidth_gbps=0.2, queue=2)
        flow.start(at_us=0.0)
        sim.run_until(5000.0, agent=False)
        assert flow.timeouts > 0
        assert flow.cwnd < flow.max_cwnd / 2

    def test_flood_starves_tcp_then_recovery(self):
        """The Figure 15 mechanism in miniature."""
        system, sim, flow, sink = self._tcp_pair(bandwidth_gbps=1.0, queue=16)
        flood = UdpSender("evil", {"ipv4.srcAddr": 66, "ipv4.dstAddr": 9},
                          rate_gbps=25.0, size_bytes=1500)
        sim.attach_host(flood, 2)
        flow.start(at_us=0.0)
        sim.run_until(3000.0, agent=False)
        healthy_acks = flow.acked
        flood.start()
        sim.run_until(sim.clock.now + 3000.0, agent=False)
        flooded_acks = flow.acked - healthy_acks
        flood.stop()
        sim.run_until(sim.clock.now + 3000.0, agent=False)
        recovered_acks = flow.acked - healthy_acks - flooded_acks
        assert flooded_acks < healthy_acks  # starved
        assert recovered_acks > flooded_acks  # recovers after suppression


class TestTraces:
    def test_shape_and_determinism(self):
        config = TraceConfig(packets=20_000, flows=800, seed=7)
        first = synthetic_trace(config)
        second = synthetic_trace(config)
        assert (first.src_ips == second.src_ips).all()
        stats = trace_stats(first)
        assert stats["flows"] == 800
        assert abs(stats["packets"] - 20_000) / 20_000 < 0.2

    def test_heavy_tail(self):
        trace = synthetic_trace(TraceConfig(packets=50_000, flows=2_000))
        stats = trace_stats(trace)
        # Top 1% of flows should carry a large share of bytes.
        assert stats["top1pct_byte_share"] > 0.15

    def test_times_sorted_and_bounded(self):
        trace = synthetic_trace(TraceConfig(packets=5_000, flows=100,
                                            duration_us=1000.0))
        times = trace.times_us
        assert (times[:-1] <= times[1:]).all()
        assert times[-1] <= 1000.0

    def test_ground_truth_totals_match(self):
        trace = synthetic_trace(TraceConfig(packets=5_000, flows=100))
        totals = trace.true_flow_sizes()
        assert sum(totals.values()) == int(trace.sizes.sum())
