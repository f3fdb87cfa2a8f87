"""Template bursts against packet-list bursts.

A burst sender hands the switch a :class:`TemplateBurst` -- one
template plus a lane count -- instead of ``n`` packet dicts.  The
columnar engine reads it as template columns and builds a
:class:`Packet` only for a lane that leaves the switch; scalar engines
and fault models iterate it, which builds every lane.  Each test here
sends the same burst both ways through every engine and compares
everything observable: per-lane results, :class:`BatchStats`, port
counters, fault drop counts, ASIC state, and every delivered packet's
``fields`` including key order.  The last class pins the gain itself:
lanes that never leave the switch are never built.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.dos import DOS_P4R
from repro.errors import SwitchError
from repro.net.hosts import SinkHost, UdpSender
from repro.net.sim import LinkFaultModel, NetworkSim, PortConfig
from repro.switch import columnar
from repro.switch import packet as packet_module
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.compiled import asic_state_snapshot
from repro.switch.packet import Packet, PacketTemplate, TemplateBurst
from repro.system import MantisSystem

FAULT_SEED = int(os.environ.get("MANTIS_FAULT_SEED", "0"))
ATTACKER = 0x0AFF0001
VICTIM = 0x0A00FFFF
FIELDS = {"ipv4.srcAddr": ATTACKER, "ipv4.dstAddr": VICTIM}

needs_numpy = pytest.mark.skipif(
    not columnar.HAVE_NUMPY, reason="columnar engine requires numpy"
)
ENGINES = [
    "interpreter",
    "compiled",
    pytest.param("columnar", marks=needs_numpy),
]

# Egress can drop (by the depth a lane saw at the traffic manager), so
# the fabric keeps the per-lane sink tail.
EGRESS_DROP_P4R = DOS_P4R + """
action keep() { no_op(); }
action shed() { drop(); }
table trim {
    reads { standard_metadata.enq_qdepth : exact; }
    actions { keep; shed; }
    default_action : keep();
}
control egress { apply(trim); }
"""

# Every lane bounces through ingress twice before leaving on port 3.
BOUNCE_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; } }
header ipv4_t ipv4;
header_type h_t { fields { hops : 8; } }
header h_t hdr;
action bounce() {
    add_to_field(hdr.hops, 1);
    modify_field(standard_metadata.egress_spec, 1);
    recirculate();
}
action finish() { modify_field(standard_metadata.egress_spec, 3); }
table hopper {
    reads { hdr.hops : exact; }
    actions { bounce; finish; }
    default_action : finish();
}
control ingress { apply(hopper); }
"""

# Identical lanes that still differ: a register counts the burst's
# packets, and the count picks each lane's fate.
COUNTED_P4R = STANDARD_METADATA_P4 + """
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; } }
header ipv4_t ipv4;
header_type m_t { fields { k : 16; } }
metadata m_t m;
register ctr { width : 16; instance_count : 1; }
action step() {
    register_read(m.k, ctr, 0);
    add_to_field(m.k, 1);
    register_write(ctr, 0, m.k);
}
table count { actions { step; } default_action : step(); }
action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action spec_from_count() {
    modify_field(standard_metadata.egress_spec, m.k);
}
action _drop() { drop(); }
table route {
    reads { m.k : exact; }
    actions { forward; spec_from_count; _drop; }
    default_action : _drop();
}
control ingress { apply(count); apply(route); }
"""


def _as_list(burst: TemplateBurst):
    return [Packet.from_template(burst.template) for _ in range(len(burst))]


def _fields(packet: Packet):
    return (
        list(packet.fields.items()),  # key order included
        sorted(packet.valid_headers),
        packet.size_bytes,
    )


def _stats(system: MantisSystem):
    stats = system.asic.batch_stats
    return (
        stats.batches, stats.packets, stats.fused, stats.slow_path,
        stats.columnar, stats.columnar_fallback,
    )


def _asic_observation(system: MantisSystem):
    asic = system.asic
    return {
        "stats": _stats(system),
        "ports": [(p.tx_packets, p.tx_bytes) for p in asic.ports],
        "processed": asic.packets_processed,
        "passes": asic.pipeline_passes,
        "dropped": asic.packets_dropped,
        "state": asic_state_snapshot(asic),
    }


# ---------------------------------------------------------------------------
# Through the fabric: UdpSender -> send_burst_to_switch -> process_batch


class _LogSink(SinkHost):
    def __init__(self):
        super().__init__("victim")
        self.log = []

    def receive(self, packet, now):
        super().receive(packet, now)
        self.log.append((now, _fields(packet)))


def _fabric_run(source: str, mode: str, as_list: bool, fault: bool = False,
                entries=()):
    """A 16-packet-burst flooder into a slow port (queueing and tail
    drops), blocked at ingress from 150 us on."""
    system = _system(
        source, mode, [("route", [VICTIM], "forward", [1]), *entries]
    )
    sim = NetworkSim(system)
    sim.configure_port(
        1, PortConfig(bandwidth_gbps=2.0, queue_capacity_pkts=8)
    )
    sink = _LogSink()
    sim.attach_host(sink, 1)
    model = None
    if fault:
        model = LinkFaultModel(
            seed=FAULT_SEED, drop_rate=0.15, corrupt_rate=0.1,
            corrupt_fields=("ipv4.srcAddr",), corrupt_mask=0x8,
        )
        sim.port_stats(2)
        sim._default_switch.set_port_fault(2, model)
    sender = UdpSender("src", FIELDS, rate_gbps=8.0, burst_size=16)
    sim.attach_host(sender, 2)
    if as_list:
        switch = sender.sim
        send = switch.send_burst_to_switch
        switch.send_burst_to_switch = (
            lambda burst, port, **kw: send(_as_list(burst), port, **kw)
        )
    sim.events.schedule(
        150.0, lambda _now: system.driver.set_default("blocklist", "block")
    )
    sender.start(at_us=1.0)
    sim.run_until(360.25, agent=False)
    sender.stop()
    sim.run_until(600.0, agent=False)
    port = sim.port_stats(1)
    observed = _asic_observation(system)
    observed.update({
        "log": sink.log,
        "windows": sink.windows,
        "totals": sim.drop_totals(),
        "switch_drops": sim.switch_drops,
        "port": (port.dropped, port.tx_packets, port.tx_bytes,
                 port.busy_until, port.rx_dropped),
        "fault": None if model is None else (
            model.dropped, model.corrupted, model.events
        ),
    })
    return observed


class TestFabricTemplateBurst:
    @pytest.mark.parametrize("mode", ENGINES)
    def test_vector_tm_tail(self, mode: str):
        ref = _fabric_run(DOS_P4R, mode, as_list=True)
        got = _fabric_run(DOS_P4R, mode, as_list=False)
        assert got == ref
        assert ref["port"][0] > 0  # tail drops happened
        assert ref["switch_drops"] > 0  # and ingress blocking

    @pytest.mark.parametrize("mode", ENGINES)
    def test_sink_tail_with_egress_drops(self, mode: str):
        shed = [("trim", [3], "shed", [])]
        ref = _fabric_run(EGRESS_DROP_P4R, mode, True, entries=shed)
        got = _fabric_run(EGRESS_DROP_P4R, mode, False, entries=shed)
        assert got == ref
        assert ref["totals"]["switch_drops"] > 0

    @pytest.mark.parametrize("mode", ENGINES)
    def test_ingress_link_fault(self, mode: str):
        ref = _fabric_run(DOS_P4R, mode, as_list=True, fault=True)
        got = _fabric_run(DOS_P4R, mode, as_list=False, fault=True)
        assert got == ref
        assert ref["fault"][0] > 0  # the model actually dropped


# ---------------------------------------------------------------------------
# Straight into SwitchAsic.process_batch


def _system(source: str, mode: str, entries=()):
    system = MantisSystem.from_source(
        source, num_ports=8, execution_mode=mode
    )
    system.agent.prologue()
    for table, key, action, args in entries:
        system.driver.add_entry(table, key, action, args)
    return system


def _batch_run(source: str, mode: str, as_list: bool, entries=(), n=16,
               fields=FIELDS):
    system = _system(source, mode, entries)
    template = PacketTemplate(fields, size_bytes=1000)
    burst = TemplateBurst(template, n)
    burst.ingress_port = 2
    packets = _as_list(burst) if as_list else burst
    if as_list:
        for packet in packets:
            packet.fields["standard_metadata.ingress_port"] = 2
    times = [10.0 + 0.5 * lane for lane in range(n)]
    error = None
    results = []
    try:
        results = system.asic.process_batch(packets, times)
    except SwitchError as exc:
        error = str(exc)
    observed = _asic_observation(system)
    observed.update({
        "error": error,
        "results": [
            None if r is None else (r[0], _fields(r[1])) for r in results
        ],
    })
    return observed, packets


COUNTED = [("route", [k], "forward", [1]) for k in (2, 5, 7)]


class TestBatchTemplateBurst:
    @pytest.mark.parametrize("mode", ENGINES)
    def test_per_lane_fates(self, mode: str):
        ref, _ = _batch_run(COUNTED_P4R, mode, True, COUNTED)
        got, _ = _batch_run(COUNTED_P4R, mode, False, COUNTED)
        assert got == ref
        assert [r is not None for r in ref["results"]].count(True) == 3

    @pytest.mark.parametrize("mode", ENGINES)
    def test_field_beyond_int64(self, mode: str):
        """Template columns cannot hold the value, so the burst is
        gathered lane by lane like a packet list."""
        wide = {**FIELDS, "ipv4.dstAddr": 1 << 64}
        ref, _ = _batch_run(COUNTED_P4R, mode, True, COUNTED, fields=wide)
        got, _ = _batch_run(COUNTED_P4R, mode, False, COUNTED, fields=wide)
        assert got == ref
        assert [r is not None for r in ref["results"]].count(True) == 3

    @pytest.mark.parametrize("mode", ENGINES)
    def test_recirculation(self, mode: str):
        entries = [("hopper", [h], "bounce", []) for h in (0, 1)]
        ref, _ = _batch_run(BOUNCE_P4R, mode, True, entries)
        got, _ = _batch_run(BOUNCE_P4R, mode, False, entries)
        assert got == ref
        assert ref["passes"] == 3 * 16

    @pytest.mark.parametrize("mode", ENGINES)
    def test_mid_burst_out_of_range_egress_spec(self, mode: str):
        """Lane 7 counts to 8, one past the last port: the burst raises
        there with lanes 0..6 committed, identically both ways."""
        entries = [
            ("route", [k], "spec_from_count", []) for k in range(1, 17)
        ]
        ref, ref_packets = _batch_run(COUNTED_P4R, mode, True, entries)
        got, packets = _batch_run(COUNTED_P4R, mode, False, entries)
        assert got == ref
        assert "egress_spec" in ref["error"]
        for lane in range(7):
            assert _fields(packets[lane]) == _fields(ref_packets[lane])


# ---------------------------------------------------------------------------
# The gain: a lane is built only where someone can observe it


def _packets_built(run) -> int:
    before = next(packet_module._packet_ids)
    run()
    return next(packet_module._packet_ids) - before - 1


@needs_numpy
class TestColumnarBuildsOnlyDeliveredLanes:
    def test_ingress_dropped_burst_builds_nothing(self):
        system = _system(DOS_P4R, "columnar")
        system.driver.set_default("blocklist", "block")
        burst = TemplateBurst(PacketTemplate(FIELDS), 64)
        times = [float(lane) for lane in range(64)]
        results = []
        assert _packets_built(
            lambda: results.extend(system.asic.process_batch(burst, times))
        ) == 0
        assert results == [None] * 64

    def test_fabric_burst_blocked_at_ingress_builds_nothing(self):
        system = _system(DOS_P4R, "columnar")
        system.driver.set_default("blocklist", "block")
        sim = NetworkSim(system)
        sender = UdpSender("src", FIELDS, rate_gbps=8.0, burst_size=32)
        sim.attach_host(sender, 2)
        sender.start(at_us=1.0)
        assert _packets_built(
            lambda: sim.run_until(100.0, agent=False)
        ) == 0
        assert sim.switch_drops == sender.tx_packets > 0

    def test_k_delivered_lanes_build_k_packets(self):
        system = _system(COUNTED_P4R, "columnar", COUNTED)
        burst = TemplateBurst(PacketTemplate(FIELDS), 16)
        results = []
        assert _packets_built(
            lambda: results.extend(system.asic.process_batch(burst))
        ) == 3
        delivered = [r for r in results if r is not None]
        assert len(delivered) == 3
        # The results hold the burst's own lane objects.
        lanes = [lane for lane, r in enumerate(results) if r is not None]
        assert lanes == [1, 4, 6]
        for lane, (_port, packet) in zip(lanes, delivered):
            assert packet is burst[lane]
        assert system.asic.batch_stats.columnar == 16

    def test_counting_helper(self):
        assert _packets_built(lambda: Packet()) == 1
        assert _packets_built(lambda: None) == 0
