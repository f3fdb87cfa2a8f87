"""Burst event coalescing in the network simulator.

A burst sender folds ``burst_size`` packets into ONE event-queue entry
(``send_burst_to_switch`` -> ``SwitchAsic.process_batch``) while the
per-packet arrival times, queue accounting, and drop decisions stay
those of a scalar sender.  These tests pin the equal-timestamp FIFO
contract of the event queue itself, then the exactness of the
coalescing for a single sender, the aggregate agreement for the
multi-sender Figure 15 scenario, and the bit-identity of the
vectorized traffic-manager tail (``_BurstTM``) against the per-packet
sink closure.
"""

from __future__ import annotations

import pytest

from repro.apps.dos import DOS_P4R, build_dos_scenario
from repro.net.events import EventQueue
from repro.net.hosts import SinkHost, UdpSender
from repro.net.sim import LinkFaultModel, NetworkSim, PortConfig
from repro.switch.compiled import asic_state_snapshot
from repro.system import MantisSystem


class TestEventQueueOrdering:
    """Satellite: drain() is FIFO for events at equal timestamps."""

    def test_equal_timestamps_run_in_schedule_order(self):
        queue = EventQueue()
        ran = []
        for tag in range(8):
            queue.schedule(10.0, lambda _now, t=tag: ran.append(t))
        queue.drain(10.0)
        assert ran == list(range(8))

    def test_fifo_across_interleaved_times(self):
        queue = EventQueue()
        ran = []
        queue.schedule(5.0, lambda _n: ran.append("a@5"))
        queue.schedule(3.0, lambda _n: ran.append("a@3"))
        queue.schedule(5.0, lambda _n: ran.append("b@5"))
        queue.schedule(3.0, lambda _n: ran.append("b@3"))
        queue.drain(5.0)
        assert ran == ["a@3", "b@3", "a@5", "b@5"]

    def test_reentrant_schedule_keeps_fifo(self):
        """An event scheduled *during* a drain at an already-due time
        still runs after previously scheduled events at that time."""
        queue = EventQueue()
        ran = []

        def first(_now):
            ran.append("first")
            queue.schedule(10.0, lambda _n: ran.append("nested"))

        queue.schedule(10.0, first)
        queue.schedule(10.0, lambda _n: ran.append("second"))
        queue.drain(10.0)
        assert ran == ["first", "second", "nested"]


def _dos_system() -> MantisSystem:
    system = MantisSystem.from_source(DOS_P4R, num_ports=8)
    system.agent.prologue()
    system.driver.add_entry("route", [0x0A00FFFF], "forward", [1])
    return system


def _single_sender_run(burst_size: int):
    """One UDP sender into a slow bottleneck port (so queueing and
    tail drops actually happen), no agent.

    The sender rate gives an exact 1.5 us interval (1.5 is dyadic, so
    repeated addition is float-exact), and the stop time 360.25 us sits
    strictly between tick 240 and tick 241 for every burst size
    dividing 240 -- a coalesced sender cannot stop mid-burst, so exact
    equivalence needs the horizon on a common burst boundary."""
    system = _dos_system()
    sim = NetworkSim(system)
    sim.configure_port(
        1, PortConfig(bandwidth_gbps=2.0, queue_capacity_pkts=8)
    )
    sink = SinkHost("victim")
    sim.attach_host(sink, 1)
    sender = UdpSender(
        "src",
        {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": 0x0A00FFFF},
        rate_gbps=8.0,  # 1500 B -> one packet per 1.5 us
        burst_size=burst_size,
    )
    sim.attach_host(sender, 2)
    sender.start(at_us=1.0)
    sim.run_until(360.25, agent=False)
    sender.stop()
    # Flush in-flight serializations and deliveries.
    sim.run_until(460.0, agent=False)
    return system, sim, sender, sink


class TestSingleSenderBurstEquivalence:
    """With one sender there are no foreign events to reorder, so
    coalescing must be *exact*: same ASIC state, same deliveries, same
    tail drops, same timestamps."""

    @pytest.mark.parametrize("burst_size", [2, 5, 16])
    def test_burst_matches_scalar_exactly(self, burst_size: int):
        ref_system, ref_sim, ref_sender, ref_sink = _single_sender_run(1)
        system, sim, sender, sink = _single_sender_run(burst_size)

        assert sender.tx_packets == ref_sender.tx_packets == 240
        assert sink.rx_packets == ref_sink.rx_packets
        assert sink.windows == ref_sink.windows  # per-window bytes
        assert sim.delivered == ref_sim.delivered
        assert sim.switch_drops == ref_sim.switch_drops
        port = sim.port_stats(1)
        ref_port = ref_sim.port_stats(1)
        assert port.dropped == ref_port.dropped
        assert port.tx_packets == ref_port.tx_packets
        assert port.busy_until == ref_port.busy_until  # float-exact
        state = asic_state_snapshot(system.asic)
        ref_state = asic_state_snapshot(ref_system.asic)
        for section in state:
            assert state[section] == ref_state[section], section

    def test_burst_collapses_event_count(self):
        _, ref_sim, _, _ = _single_sender_run(1)
        _, sim, _, _ = _single_sender_run(8)
        # One ingress event per burst instead of per packet; delivery
        # events stay per packet, so the total strictly shrinks.
        assert sim.events.processed < ref_sim.events.processed

    def test_burst_sees_live_queue_depth_mid_burst(self):
        """deq_qdepth must grow *within* a burst: packet i+1 sees the
        depth after packet i's enqueue (incremental accounting, not a
        frozen snapshot)."""
        system = _dos_system()
        sim = NetworkSim(system)
        sim.configure_port(
            1, PortConfig(bandwidth_gbps=1.0, queue_capacity_pkts=64)
        )
        sink = SinkHost("victim")
        sim.attach_host(sink, 1)
        depths = []
        sender = UdpSender(
            "src",
            {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": 0x0A00FFFF},
            rate_gbps=100.0,  # far above the 1 Gbps drain rate
            burst_size=12,
        )
        sim.attach_host(sender, 2)

        original = system.asic.queue_model

        def spying_queue_model(port, now):
            depth = original(port, now)
            if port == 1:
                depths.append(depth)
            return depth

        system.asic.queue_model = spying_queue_model
        sender.start(at_us=1.0)
        sim.run_until(30.0, agent=False)
        sender.stop()
        assert len(depths) >= 12
        # Monotone growth across the first burst: drain is ~80x slower
        # than arrival, so each packet sees one more queued than the last.
        first_burst = depths[:12]
        assert first_burst == sorted(first_burst)
        assert first_burst[-1] > first_burst[0]


class TestMultiSenderBurstAggregate:
    """With competing senders, coalescing reorders events inside a
    burst window, so per-packet equality is not guaranteed -- but the
    aggregate Figure 15 behaviour must be preserved."""

    def test_dos_scenario_aggregate_matches(self):
        def run(burst_size):
            app, sim, flows, sink, attacker = build_dos_scenario(
                n_benign=5,
                attack_rate_gbps=20.0,
                min_duration_us=100.0,
                burst_size=burst_size,
            )
            app.prologue()
            for flow in flows:
                flow.start(at_us=5.0)
            attacker.start(at_us=20.0)
            sim.run_until(600.0)
            return app, sim, attacker

        ref_app, ref_sim, ref_attacker = run(1)
        app, sim, attacker = run(6)
        # A coalesced sender cannot stop mid-burst, so the horizon may
        # cost up to one extra burst; everything else must agree.
        assert (
            0 <= attacker.tx_packets - ref_attacker.tx_packets < 6
        )
        assert app.system.asic.packets_processed == pytest.approx(
            ref_app.system.asic.packets_processed, rel=0.05
        )
        # The flooder is detected and blocked in both configurations.
        assert ref_app.is_blocked(0x0AFF0001)
        assert app.is_blocked(0x0AFF0001)
        # Burst mode actually took the batched pipeline path.
        stats = app.system.asic.batch_stats
        assert stats.batches > 0
        assert stats.packets >= stats.batches


class _TimedSink(SinkHost):
    """SinkHost that also logs (receive time, fields) per packet so
    delivery *timestamps* can be compared bit-for-bit."""

    def __init__(self, name: str):
        super().__init__(name)
        self.log = []

    def receive(self, packet, now):
        super().receive(packet, now)
        self.log.append((now, tuple(sorted(packet.fields.items()))))


class TestVectorizedBurstTail:
    """Tentpole: the vectorized traffic-manager tail (``_BurstTM``,
    prefix-sum queue accounting over the burst's arrival instants)
    must be bit-identical to the per-packet sink closure -- delivery
    ports, timestamps, queue stats, and the whole drop ledger --
    across engines, capacity hits, idle gaps, down ports, and link
    fault plans."""

    @staticmethod
    def _run(
        execution_mode: str,
        vectorized: bool,
        rate_gbps: float = 8.0,
        burst: int = 16,
        down_window=None,
        fault_seed=None,
    ):
        system = MantisSystem.from_source(
            DOS_P4R, num_ports=8, execution_mode=execution_mode
        )
        system.agent.prologue()
        system.driver.add_entry("route", [0x0A00FFFF], "forward", [1])
        sim = NetworkSim(system)
        if not vectorized:
            sim._default_switch._burst_vec = False
        sim.configure_port(
            1, PortConfig(bandwidth_gbps=2.0, queue_capacity_pkts=8)
        )
        sink = _TimedSink("victim")
        sim.attach_host(sink, 1)
        if fault_seed is not None:
            sim.port_stats(2)
            fault = LinkFaultModel(
                seed=fault_seed, drop_rate=0.15, corrupt_rate=0.1,
                corrupt_fields=("ipv4.srcAddr",), corrupt_mask=0x8,
            )
            sim._default_switch.set_port_fault(2, fault)
        sender = UdpSender(
            "src",
            {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": 0x0A00FFFF},
            rate_gbps=rate_gbps,
            burst_size=burst,
        )
        sim.attach_host(sender, 2)
        sender.start(at_us=1.0)
        if down_window is not None:
            start, end = down_window
            sim.events.schedule(
                start, lambda _n: sim.set_link_up(1, False)
            )
            sim.events.schedule(end, lambda _n: sim.set_link_up(1, True))
        sim.run_until(360.25, agent=False)
        sender.stop()
        sim.run_until(600.0, agent=False)
        return system, sim, sink

    @classmethod
    def _observe(cls, system, sim, sink):
        port = sim.port_stats(1)
        return {
            "rx": sink.rx_packets,
            "windows": sink.windows,
            "log": sink.log,
            "delivered": sim.delivered,
            "switch_drops": sim.switch_drops,
            "dropped": port.dropped,
            "tx_packets": port.tx_packets,
            "tx_bytes": port.tx_bytes,
            "rx_dropped": port.rx_dropped,
            "busy_until": port.busy_until,
            "totals": sim.drop_totals(),
            "state": asic_state_snapshot(system.asic),
        }

    @pytest.mark.parametrize("execution_mode", ["compiled", "columnar"])
    def test_bottleneck_matches_scalar_sink(self, execution_mode: str):
        """Queueing + tail drops: capacity hits exercise the per-lane
        replay inside the vectorized admit."""
        if execution_mode == "columnar":
            pytest.importorskip("numpy")
        ref = self._observe(*self._run(execution_mode, vectorized=False))
        vec = self._observe(*self._run(execution_mode, vectorized=True))
        assert vec == ref
        assert ref["dropped"] > 0  # the scenario actually tail-drops

    def test_idle_gaps_match_scalar_sink(self):
        """Arrival slower than drain: the queue empties inside each
        burst, breaking the continuous-busy prefix-sum fast path."""
        pytest.importorskip("numpy")
        ref = self._observe(
            *self._run("columnar", vectorized=False, rate_gbps=1.0, burst=8)
        )
        vec = self._observe(
            *self._run("columnar", vectorized=True, rate_gbps=1.0, burst=8)
        )
        assert vec == ref
        assert ref["dropped"] == 0

    def test_down_port_matches_scalar_sink(self):
        pytest.importorskip("numpy")
        ref = self._observe(*self._run(
            "columnar", vectorized=False, down_window=(50.0, 120.0)
        ))
        vec = self._observe(*self._run(
            "columnar", vectorized=True, down_window=(50.0, 120.0)
        ))
        assert vec == ref
        assert ref["dropped"] > 0  # packets died on the dead cable

    @pytest.mark.parametrize("seed", [3, 11])
    def test_link_fault_plan_matches_scalar_sink(self, seed: int):
        pytest.importorskip("numpy")
        ref = self._observe(
            *self._run("columnar", vectorized=False, fault_seed=seed)
        )
        vec = self._observe(
            *self._run("columnar", vectorized=True, fault_seed=seed)
        )
        assert vec == ref

    def test_gate_accepts_dos_and_rejects_recirculation(self):
        """``_burst_vec_ok`` is a static reachability check: the DoS
        program qualifies (drops are ingress-only), a recirculating
        program does not."""
        pytest.importorskip("numpy")
        from repro.net.fabric import _burst_vec_ok
        from repro.switch.asic import STANDARD_METADATA_P4

        dos = MantisSystem.from_source(DOS_P4R, num_ports=8)
        assert _burst_vec_ok(dos) is True
        recirc_src = STANDARD_METADATA_P4 + """
        header_type h_t { fields { hops : 8; } }
        header h_t hdr;
        action bounce() {
            add_to_field(hdr.hops, 1);
            modify_field(standard_metadata.egress_spec, 1);
            recirculate();
        }
        table hopper { actions { bounce; } default_action : bounce(); }
        control ingress { apply(hopper); }
        """
        recirc = MantisSystem.from_source(recirc_src, num_ports=8)
        assert _burst_vec_ok(recirc) is False
        sim = NetworkSim(recirc)
        assert sim._default_switch._burst_vec is False


class TestSerializationPrecompute:
    """Satellite: per-port bytes->us factor is computed once and
    matches PortConfig.serialization_us bit-for-bit."""

    @pytest.mark.parametrize("bandwidth_gbps", [0.5, 1.0, 9.7, 25.0, 100.0])
    def test_rate_factor_matches_config(self, bandwidth_gbps: float):
        config = PortConfig(bandwidth_gbps=bandwidth_gbps)
        system = _dos_system()
        sim = NetworkSim(system)
        sim.configure_port(3, config)
        port = sim.port_stats(3)
        for size in (64, 577, 1500, 9000):
            assert (
                size * 8 / port.rate_bits_per_us
                == config.serialization_us(size)
            )
