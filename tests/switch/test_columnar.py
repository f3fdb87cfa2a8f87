"""Columnar (struct-of-arrays) engine: vectorized must be invisible.

``ColumnarPipeline`` executes bursts as numpy array sweeps; these
tests require the result to be bit-identical to the scalar engines --
egress sequences, field maps, registers, counters, table statistics,
and port counters -- across the full use-case corpus, the
``process_batch_columnar`` entry over template bursts, forced
fallbacks (RNG, overlapping register footprints), randomized mixed
bursts, recirculating lanes finishing through the one scalar pass
routine (pass counts on error paths included, and a randomized
differential against per-packet ``process``), and the batch-stats
accounting invariant on error paths.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_batch import (  # noqa: E402  (corpus helpers)
    APPS,
    SHARED_REG_P4R,
    _build,
    _observable,
    _run_batch,
    _run_scalar,
)

from repro.errors import SwitchError
from repro.switch import columnar
from repro.switch.asic import MAX_RECIRCULATIONS, STANDARD_METADATA_P4
from repro.switch.columnar import ColumnarBatch, ColumnarPipeline
from repro.switch.compiled import asic_state_snapshot
from repro.switch.packet import Packet, PacketTemplate, TemplateBurst
from repro.system import MantisSystem

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

pytestmark = pytest.mark.skipif(
    not columnar.HAVE_NUMPY, reason="columnar engine requires numpy"
)


def _run_batch_nosink(system, workload, batch_size: int) -> List[object]:
    """Like test_batch._run_batch but without a sink, so the columnar
    engine keeps the vectorized traffic-manager tail."""
    observed: List[object] = []
    for start in range(0, len(workload), batch_size):
        chunk = [
            Packet(fields, size_bytes=1000)
            for fields in workload[start:start + batch_size]
        ]
        observed.extend(
            _observable(r) for r in system.asic.process_batch(chunk)
        )
    return observed


def _assert_same_state(reference, candidate) -> None:
    state_ref = asic_state_snapshot(reference.asic)
    state_new = asic_state_snapshot(candidate.asic)
    for section in state_ref:
        assert state_new[section] == state_ref[section], section


class TestColumnarEquivalence:
    """Tentpole: columnar == compiled == interpreter on every program."""

    N_PACKETS = 96

    @pytest.mark.parametrize("name", sorted(APPS))
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_matches_compiled_with_sink(self, name: str, batch_size: int):
        """A sink forces the scalar tail; vectorized ingress sweeps
        still run above it."""
        workload = APPS[name][2](self.N_PACKETS)
        compiled = _build(name, "compiled")
        compiled_obs = _run_batch(compiled, workload, batch_size)
        col = _build(name, "columnar")
        col_obs = _run_batch(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)

    @pytest.mark.parametrize("name", sorted(APPS))
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_matches_compiled_vectorized_tail(
        self, name: str, batch_size: int
    ):
        workload = APPS[name][2](self.N_PACKETS)
        compiled = _build(name, "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col = _build(name, "columnar")
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)

    @pytest.mark.parametrize("name", ["dos", "ecmp", "recirc"])
    def test_matches_interpreter(self, name: str):
        workload = APPS[name][2](48)
        interp = _build(name, "interpreter")
        interp_obs = _run_scalar(interp, workload)
        col = _build(name, "columnar")
        col_obs = _run_batch_nosink(col, workload, batch_size=16)
        assert col_obs == interp_obs
        _assert_same_state(interp, col)

    def test_dos_batch_counts_as_columnar(self):
        system = _build("dos", "columnar")
        assert isinstance(system.asic.executor, ColumnarPipeline)
        assert system.asic.executor.columnar_ops("ingress") is not None
        _run_batch_nosink(system, APPS["dos"][2](64), batch_size=32)
        stats = system.asic.batch_stats
        assert stats.columnar == 64
        assert stats.columnar_fallback == 0
        assert stats.packets == stats.fused + stats.slow_path


class TestColumnarEntry:
    """process_batch_columnar over template-backed batches agrees with
    packet-list bursts through the compiled engine."""

    def test_template_bursts_match_packet_batches(self):
        # Each workload packet becomes a burst of three same lanes.
        workload = [
            fields for fields in APPS["dos"][2](48) for _ in range(3)
        ]
        compiled = _build("dos", "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=3)
        col = _build("dos", "columnar")
        col_obs: List[object] = []
        for start in range(0, len(workload), 3):
            burst = TemplateBurst(
                PacketTemplate(workload[start], size_bytes=1000), 3
            )
            col_obs.extend(
                _observable(r) for r in col.asic.process_batch_columnar(
                    ColumnarBatch.from_burst(burst)
                )
            )
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)

    def test_entry_requires_columnar_plans(self):
        compiled = _build("dos", "compiled")
        burst = TemplateBurst(PacketTemplate({"ipv4.srcAddr": 1}), 1)
        with pytest.raises(SwitchError):
            compiled.asic.process_batch_columnar(
                ColumnarBatch.from_burst(burst)
            )


RNG_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { roll : 16; } }
header h_t hdr;

action sample() {
    modify_field_rng_uniform(hdr.roll, 0, 1023);
    modify_field(standard_metadata.egress_spec, 1);
}
table sampler { actions { sample; } default_action : sample(); }
control ingress { apply(sampler); }
"""


class TestForcedFallbacks:
    """Non-vectorizable shapes must drain scalar, never diverge."""

    def _diff(self, source: str, workload, batch_size: int = 16):
        kwargs = dict(num_ports=8)
        compiled = MantisSystem.from_source(
            source, execution_mode="compiled", **kwargs
        )
        compiled.agent.prologue()
        col = MantisSystem.from_source(
            source, execution_mode="columnar", **kwargs
        )
        col.agent.prologue()
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        return col

    def test_rng_action_drains_per_lane(self):
        """Both engines seed random.Random(0), so the per-lane drain
        must consume the stream in exactly the scalar order."""
        workload = [{"hdr.roll": 0} for _ in range(48)]
        col = self._diff(RNG_P4R, workload)
        counts = col.asic.executor.fallback_counts
        assert counts.get("drain:sampler") == 48
        stats = col.asic.batch_stats
        assert stats.columnar == 48
        assert stats.columnar_fallback == 48
        assert stats.packets == stats.fused + stats.slow_path

    def test_overlapping_footprints_disable_columnar(self):
        """Two tables RMW-ing one register: the footprint rule rejects
        the program, so no columnar plans; the bound controls run the
        burst lane by lane."""
        workload = [{"hdr.f": 0} for _ in range(24)]
        col = self._diff(SHARED_REG_P4R, workload)
        assert col.asic.executor.columnar_ops("ingress") is None
        assert col.asic.batch_stats.columnar == 0

    def test_recirculating_program_stays_scalar(self):
        workload = APPS["recirc"][2](32)
        compiled = _build("recirc", "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=8)
        col = _build("recirc", "columnar")
        col_obs = _run_batch_nosink(col, workload, batch_size=8)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.executor.columnar_ops("ingress") is None

    def test_ecmp_burst_fully_vectorized(self):
        """ecmp's tables still sweep as columns, but its hash action
        and its egress counter are outside the vector atom set: both
        drain per lane, with exactly these fallback keys."""
        workload = APPS["ecmp"][2](60)
        compiled = _build("ecmp", "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=20)
        col = _build("ecmp", "columnar")
        col_obs = _run_batch_nosink(col, workload, batch_size=20)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.executor.fallback_counts == {
            "drain:ecmp_hash": 60, "drain:egress_counter": 60,
        }
        stats = col.asic.batch_stats
        assert stats.packets == stats.fused + stats.slow_path


CONST_INDEX_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 16; i : 8; } }
header h_t hdr;
register r { width : 16; instance_count : 4; }
counter c { type : packets; instance_count : 4; }
action stash() {
    modify_field(hdr.i, 3);
    %s
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { stash; } default_action : stash(); }
control ingress { apply(t); }
"""


class TestConstantValuedIndex:
    """An index field the action body itself set to a constant: the
    write lowers as a constant-index register cell (it once reached the
    scatter path as a Python int and crashed ``prepare``), and the
    counter drains per lane."""

    @pytest.mark.parametrize(
        "primitive, fallbacks",
        [
            ("register_write(r, hdr.i, hdr.f);", {}),
            ("count(c, hdr.i);", {"drain:t": 8}),
        ],
        ids=["register_write", "count"],
    )
    def test_matches_compiled(self, primitive: str, fallbacks):
        source = CONST_INDEX_P4R % primitive
        workload = [{"hdr.f": 100 + i} for i in range(8)]
        systems = []
        for mode in ("compiled", "columnar"):
            system = MantisSystem.from_source(
                source, num_ports=8, execution_mode=mode
            )
            system.agent.prologue()
            systems.append(system)
        compiled, col = systems
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=8)
        col_obs = _run_batch_nosink(col, workload, batch_size=8)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.executor.fallback_counts == fallbacks
        if "register_write" in primitive:
            assert col.asic.registers["r"].values == [0, 0, 0, 107]
        else:
            assert col.asic.counters["c"].array.values == [0, 0, 0, 8]


class TestRandomizedDifferential:
    """Hypothesis: arbitrary field mixes and batch splits through the
    DoS pipeline agree with the compiled engine, state included."""

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),  # srcAddr
                st.integers(min_value=0, max_value=2**32 - 1),  # dstAddr
                st.integers(min_value=0, max_value=255),        # proto
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(min_value=1, max_value=17),
        route_victim=st.booleans(),
    )
    def test_dos_random_workloads(self, seeds, batch_size, route_victim):
        workload = [
            {"ipv4.srcAddr": src, "ipv4.dstAddr": dst, "ipv4.proto": proto,
             "tcp.seq": i}
            for i, (src, dst, proto) in enumerate(seeds)
        ]
        if route_victim and workload:
            workload[0]["ipv4.dstAddr"] = 0x0B000001
        compiled = _build("dos", "compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col = _build("dos", "columnar")
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        stats = col.asic.batch_stats
        assert stats.packets == stats.fused + stats.slow_path


class TestRotatedHashRandomized:
    """Hypothesis: ECMP traffic with the malleable hash inputs rotated
    between batches -- the columnar engine (its hash drained per lane)
    must track every staged alt configuration exactly like the
    compiled engine."""

    @settings(max_examples=15, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),  # srcAddr
                st.integers(min_value=0, max_value=2**32 - 1),  # dstAddr
                st.integers(min_value=0, max_value=255),        # proto
                st.integers(min_value=0, max_value=2**16 - 1),  # sport
                st.integers(min_value=0, max_value=2**16 - 1),  # dport
            ),
            min_size=1,
            max_size=48,
        ),
        rotations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # hash_in1 alt
                st.integers(min_value=0, max_value=2),  # hash_in2 alt
            ),
            min_size=1,
            max_size=3,
        ),
        batch_size=st.integers(min_value=1, max_value=19),
    )
    def test_ecmp_rotated_inputs(self, flows, rotations, batch_size):
        workload = [
            {"ipv4.srcAddr": src, "ipv4.dstAddr": dst, "ipv4.proto": proto,
             "l4.sport": sport, "l4.dport": dport}
            for src, dst, proto, sport, dport in flows
        ]

        def run(mode):
            system = _build("ecmp", mode)
            observed: List[object] = []
            for index, (alt1, alt2) in enumerate(rotations):
                system.agent.write_malleable("hash_in1", alt1)
                system.agent.write_malleable("hash_in2", alt2)
                system.agent.run_iteration()  # vv flip commits the alts
                observed.append(
                    _run_batch_nosink(system, workload, batch_size)
                )
            return system, observed

        compiled, compiled_obs = run("compiled")
        col, col_obs = run("columnar")
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        lanes = len(workload) * len(rotations)
        assert col.asic.executor.fallback_counts == {
            "drain:ecmp_hash": lanes, "drain:egress_counter": lanes,
        }


class TestEngineSelection:
    """MANTIS_PIPELINE=columnar and the numpy fail-fast (satellite 1)."""

    def test_env_selects_columnar(self, monkeypatch):
        monkeypatch.setenv("MANTIS_PIPELINE", "columnar")
        system = MantisSystem.from_source(APPS["dos"][0], num_ports=8)
        assert isinstance(system.asic.executor, ColumnarPipeline)

    def test_missing_numpy_fails_fast(self, monkeypatch):
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        with pytest.raises(SwitchError, match="requires numpy"):
            MantisSystem.from_source(
                APPS["dos"][0], num_ports=8, execution_mode="columnar"
            )

    def test_profiling_disables_columnar_plans_not_correctness(self):
        workload = APPS["dos"][2](36)
        plain = _build("dos", "columnar")
        plain_obs = _run_batch_nosink(plain, workload, batch_size=12)
        profiled = _build("dos", "columnar")
        profile = profiled.asic.enable_profiling()
        assert isinstance(profiled.asic.executor, ColumnarPipeline)
        assert profiled.asic.executor.columnar_ops("ingress") is None
        profiled_obs = _run_batch_nosink(profiled, workload, batch_size=12)
        assert profiled_obs == plain_obs
        _assert_same_state(plain, profiled)
        assert profile.snapshot()["control_runs"]["ingress"] == 36
        assert profiled.asic.batch_stats.columnar == 0


class TestNetworkSimBurst:
    """The fabric's burst path on the columnar engine: coalesced
    sends agree with the compiled engine packet-for-packet."""

    @staticmethod
    def _run(execution_mode: str):
        from repro.apps.dos import DOS_P4R
        from repro.net.hosts import SinkHost, UdpSender
        from repro.net.sim import NetworkSim, PortConfig

        system = MantisSystem.from_source(
            DOS_P4R, num_ports=8, execution_mode=execution_mode
        )
        system.agent.prologue()
        system.driver.add_entry("route", [0x0A00FFFF], "forward", [1])
        sim = NetworkSim(system)
        sim.configure_port(
            1, PortConfig(bandwidth_gbps=2.0, queue_capacity_pkts=8)
        )
        sink = SinkHost("victim")
        sim.attach_host(sink, 1)
        sender = UdpSender(
            "src",
            {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": 0x0A00FFFF},
            rate_gbps=8.0,
            burst_size=16,
        )
        sim.attach_host(sender, 2)
        sender.start(at_us=1.0)
        sim.run_until(360.25, agent=False)
        sender.stop()
        sim.run_until(460.0, agent=False)
        return system, sim, sink

    def test_columnar_burst_matches_compiled(self):
        ref_system, ref_sim, ref_sink = self._run("compiled")
        system, sim, sink = self._run("columnar")
        assert sink.rx_packets == ref_sink.rx_packets
        assert sink.windows == ref_sink.windows
        assert sim.delivered == ref_sim.delivered
        assert sim.switch_drops == ref_sim.switch_drops
        state = asic_state_snapshot(system.asic)
        ref_state = asic_state_snapshot(ref_system.asic)
        for section in state:
            assert state[section] == ref_state[section], section
        stats = system.asic.batch_stats
        assert stats.packets == stats.fused + stats.slow_path
        assert stats.columnar > 0  # vectorized ingress above the sink


# Fallback keys each corpus app produces over 96 packets in bursts of
# 32, and how many lanes left the vector path: dos runs entirely in
# the vector atom set; the others hash, count or gather at a dynamic
# index (drained per lane), or branch in egress (rl's queue-depth
# ``if``: no egress plan, scalar tail).
ADMISSION_FALLBACKS = {
    "dos": ({}, 0),
    "ecmp": ({"drain:ecmp_hash": 96, "drain:egress_counter": 96}, 96),
    "failover": ({"drain:hb_filter": 32}, 32),
    "sketch": ({"drain:cm_sketch": 96}, 96),
    "rl": ({"tail:egress-plan": 96}, 0),
}


class TestVectorizedAdmission:
    """Every corpus app keeps a columnar ingress plan, and falls back
    exactly where its actions leave the vector atom set."""

    @pytest.mark.parametrize("name", sorted(ADMISSION_FALLBACKS))
    def test_zero_fallbacks(self, name: str):
        """dos has zero fallbacks; every other app's keys are pinned."""
        col = _build(name, "columnar")
        assert col.asic.executor.columnar_ops("ingress") is not None
        _run_batch_nosink(col, APPS[name][2](96), batch_size=32)
        fallbacks, fallback_lanes = ADMISSION_FALLBACKS[name]
        assert col.asic.executor.fallback_counts == fallbacks
        stats = col.asic.batch_stats
        assert stats.columnar == 96
        assert stats.columnar_fallback == fallback_lanes

    @pytest.mark.parametrize("name", ["ecmp", "rl"])
    def test_egress_plan_admits(self, name: str):
        """ecmp's egress counter table still sweeps (its action drains
        per lane); rl's egress ``if`` makes admission refuse egress."""
        col = _build(name, "columnar")
        egress = col.asic.executor.columnar_ops("egress")
        assert (egress is None) == (name == "rl")


COND_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 16; g : 16; } }
header h_t hdr;
action to_a() { modify_field(standard_metadata.egress_spec, 1); }
action to_b() { modify_field(standard_metadata.egress_spec, 2); }
table ta { actions { to_a; } default_action : to_a(); }
table tb { actions { to_b; } default_action : to_b(); }
control ingress {
    if (hdr.f > 100) { apply(ta); } else { apply(tb); }
}
"""

COND_NESTED_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 16; g : 16; } }
header h_t hdr;
action to_a() { modify_field(standard_metadata.egress_spec, 1); }
action to_b() { modify_field(standard_metadata.egress_spec, 2); }
table ta { actions { to_a; } default_action : to_a(); }
table tb { actions { to_b; } default_action : to_b(); }
control ingress {
    if (hdr.f > 100) {
        if (hdr.g == 7) { apply(ta); } else { apply(tb); }
    } else { apply(tb); }
}
"""


class TestMaskedSelectConditional:
    """A control-level if/if-else makes admission refuse the program:
    its bursts run the generated controls lane by lane and agree with
    the compiled engine."""

    def _workload(self, n: int):
        return [{"hdr.f": (i * 37) % 256, "hdr.g": i % 9} for i in range(n)]

    @pytest.mark.parametrize("batch_size", [1, 9, 32])
    def test_if_else_matches_compiled(self, batch_size: int):
        workload = self._workload(64)
        compiled = MantisSystem.from_source(
            COND_P4R, num_ports=8, execution_mode="compiled"
        )
        compiled.agent.prologue()
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col = MantisSystem.from_source(
            COND_P4R, num_ports=8, execution_mode="columnar"
        )
        col.agent.prologue()
        assert col.asic.executor.columnar_ops("ingress") is None
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.batch_stats.columnar == 0
        # Both arms actually fire in this workload.
        ports = {obs[0] for obs in col_obs if obs is not None}
        assert ports == {1, 2}

    def test_nested_if_stays_scalar_but_agrees(self):
        """Nested conditionals take the same lane-by-lane path."""
        workload = self._workload(40)
        compiled = MantisSystem.from_source(
            COND_NESTED_P4R, num_ports=8, execution_mode="compiled"
        )
        compiled.agent.prologue()
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=10)
        col = MantisSystem.from_source(
            COND_NESTED_P4R, num_ports=8, execution_mode="columnar"
        )
        col.agent.prologue()
        assert col.asic.executor.columnar_ops("ingress") is None
        col_obs = _run_batch_nosink(col, workload, batch_size=10)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)


BOUNCE_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { hops : 8; } }
header h_t hdr;
action bounce() {
    add_to_field(hdr.hops, 1);
    modify_field(standard_metadata.egress_spec, 1);
    recirculate();
}
action finish() { modify_field(standard_metadata.egress_spec, 3); }
action fling() { modify_field(standard_metadata.egress_spec, 200); }
table hopper {
    reads { hdr.hops : exact; }
    actions { bounce; finish; fling; }
    default_action : finish();
}
control ingress { apply(hopper); }
"""


def _bounce_build(mode: str, bounce_until: int = 2):
    system = MantisSystem.from_source(
        BOUNCE_P4R, num_ports=8, execution_mode=mode
    )
    system.agent.prologue()
    for hops in range(bounce_until):
        system.driver.add_entry("hopper", [hops], "bounce", [])
    return system


class TestColumnarRecirculation:
    """A recirculation-only program keeps its columnar plan; lanes the
    vectorized tail leaves flagged finish through the scalar pass
    routine in lane order."""

    def _workload(self, n: int):
        return [{"hdr.hops": i % 2, "ipv4.srcAddr": i} for i in range(n)]

    @pytest.mark.parametrize("batch_size", [1, 7, 24])
    def test_stateless_bounce_matches_compiled(self, batch_size: int):
        workload = self._workload(48)
        compiled = _bounce_build("compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col = _bounce_build("columnar")
        assert col.asic.executor.columnar_ops("ingress") is not None
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        # hops 0 and 1 both bounce: every lane recirculates.
        assert col.asic.executor.fallback_counts == {"recirc": 48}
        stats = col.asic.batch_stats
        ref = compiled.asic.batch_stats
        assert stats.packets == stats.fused + stats.slow_path
        assert (stats.packets, stats.columnar) == (48, 48)
        assert col.asic.pipeline_passes == compiled.asic.pipeline_passes

    def test_budget_exhaustion_matches_compiled(self):
        """Every pass re-bounces: the budget runs out and the packet
        delivers from its final pass with the flag cleared -- same as
        the scalar loop."""
        workload = self._workload(16)
        compiled = _bounce_build("compiled", bounce_until=16)
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size=8)
        col = _bounce_build("columnar", bounce_until=16)
        col_obs = _run_batch_nosink(col, workload, batch_size=8)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.pipeline_passes == compiled.asic.pipeline_passes
        for obs in col_obs:
            assert obs is not None
            port, fields, _headers = obs
            assert port == 1  # bounce's egress_spec
            assert fields["standard_metadata.recirculate_flag"] == 0

    def test_oor_spec_mid_recirc_raises_in_both_engines(self):
        """A lane that recirculates into an out-of-range egress_spec
        falls to the scalar continuation and raises exactly like the
        compiled loop; the stats invariant survives."""
        workload = [{"hdr.hops": 0, "ipv4.srcAddr": i} for i in range(12)]
        for mode in ("compiled", "columnar"):
            system = MantisSystem.from_source(
                BOUNCE_P4R, num_ports=8, execution_mode=mode
            )
            system.agent.prologue()
            system.driver.add_entry("hopper", [0], "bounce", [])
            system.driver.add_entry("hopper", [1], "fling", [])
            with pytest.raises(SwitchError, match="egress_spec"):
                _run_batch_nosink(system, workload, batch_size=12)
            stats = system.asic.batch_stats
            assert stats.packets == stats.fused + stats.slow_path


ENGINES = ("interpreter", "compiled", "columnar")


def _ignore(index, result) -> None:
    pass


class TestRecirculationErrorPassCount:
    """A lane that fails on its second pass has started two pipeline
    passes, whichever entry ran it: ``hops=0`` bounces, ``hops=1``
    flings to an out-of-range ``egress_spec``."""

    @pytest.mark.parametrize(
        "entry",
        ["process", "process_batch", "process_batch+sink", "template_burst"],
    )
    @pytest.mark.parametrize("mode", ENGINES)
    def test_error_on_second_pass_counts_two(self, mode: str, entry: str):
        system = _bounce_build(mode, bounce_until=1)
        system.driver.add_entry("hopper", [1], "fling", [])
        asic = system.asic
        fields = {"hdr.hops": 0}
        with pytest.raises(SwitchError, match="egress_spec"):
            if entry == "process":
                asic.process(Packet(fields))
            elif entry == "template_burst":
                asic.process_batch(TemplateBurst(PacketTemplate(fields), 1))
            elif entry == "process_batch":
                asic.process_batch([Packet(fields)])
            else:
                asic.process_batch([Packet(fields)], sink=_ignore)
        assert asic.pipeline_passes == 2


# Hops values of the optional fling chain: above every mix lane (0..7,
# bouncing at most up to 6), so only the spliced lane reaches them.
FLING_BASE = 10


def _differential_system(mode: str, bounce_until: int, fling):
    system = _bounce_build(mode, bounce_until)
    if fling is not None:
        chain, _position = fling
        for hops in range(FLING_BASE, FLING_BASE + chain):
            system.driver.add_entry("hopper", [hops], "bounce", [])
        system.driver.add_entry("hopper", [FLING_BASE + chain], "fling", [])
    return system


def _homogeneous_runs(chunk):
    """A chunk of hops values as maximal runs of one value."""
    runs = []
    for hops in chunk:
        if runs and runs[-1][0] == hops:
            runs[-1][1] += 1
        else:
            runs.append([hops, 1])
    return runs


class TestRecirculationDifferential:
    """Hypothesis: the bounce program through per-packet ``process``,
    packet-list bursts and template bursts, with and without a sink,
    on every engine.  Budgets run past ``MAX_RECIRCULATIONS``, and an
    optional lane spliced in as its own burst fails on a random
    recirculation pass; every run stops at its first error."""

    @settings(max_examples=30, deadline=None)
    @given(
        bounce_until=st.integers(min_value=0, max_value=6),
        hops=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=48
        ),
        split=st.integers(min_value=1, max_value=32),
        fling=st.one_of(
            st.none(),
            st.tuples(
                # Bounces before the fling; MAX_RECIRCULATIONS + 1
                # spends the budget first and delivers instead.
                st.integers(min_value=1, max_value=MAX_RECIRCULATIONS + 1),
                st.integers(min_value=0, max_value=64),  # splice point
            ),
        ),
    )
    def test_every_entry_matches_process(
        self, bounce_until, hops, split, fling
    ):
        chunks = [hops[i:i + split] for i in range(0, len(hops), split)]
        if fling is not None:
            chunks.insert(fling[1] % (len(chunks) + 1), [FLING_BASE])
        observed = {}
        for mode in ENGINES:
            for variant in ("process", "list", "list+sink", "template",
                            "template+sink"):
                system = _differential_system(mode, bounce_until, fling)
                results, error = self._drive(system, variant, chunks)
                observed[mode, variant] = (
                    results, asic_state_snapshot(system.asic), error
                )
                if variant == "process":
                    continue
                stats = system.asic.batch_stats
                assert stats.packets == stats.fused + stats.slow_path
                if mode == "columnar":
                    allowed = {"recirc"}
                    if variant.endswith("sink"):
                        allowed.add("tail:sink")
                    counts = system.asic.executor.fallback_counts
                    assert set(counts) <= allowed, counts
        reference = observed["interpreter", "process"]
        for key, got in observed.items():
            assert got == reference, key

    @staticmethod
    def _drive(system, variant: str, chunks):
        """Observables of every lane before the first error, and that
        error's type (``None`` if the input ran through).  A sink must
        see exactly what its burst returns."""
        asic = system.asic
        results: List[object] = []
        sunk: List[object] = []

        def sink(index, result) -> None:
            sunk.append(_observable(result))

        def run_burst(burst) -> None:
            with_sink = variant.endswith("sink")
            returned = [
                _observable(result) for result in asic.process_batch(
                    burst, sink=sink if with_sink else None
                )
            ]
            if with_sink:
                assert sunk == returned
                sunk.clear()
            results.extend(returned)

        try:
            for chunk in chunks:
                if variant == "process":
                    for hops in chunk:
                        results.append(_observable(asic.process(
                            Packet({"hdr.hops": hops}, size_bytes=1000)
                        )))
                elif variant.startswith("list"):
                    run_burst([
                        Packet({"hdr.hops": hops}, size_bytes=1000)
                        for hops in chunk
                    ])
                else:
                    for hops, n in _homogeneous_runs(chunk):
                        template = PacketTemplate(
                            {"hdr.hops": hops}, size_bytes=1000
                        )
                        run_burst(TemplateBurst(template, n))
        except SwitchError as error:
            return results, type(error)
        return results, None


OOR_SPEC_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;

action widecast() { modify_field(standard_metadata.egress_spec, 200); }
table blast { actions { widecast; } default_action : widecast(); }
control ingress { apply(blast); }
"""


ERROR_CONFIGS = [
    pytest.param("compiled", False, id="compiled"),
    pytest.param("columnar", False, id="columnar"),
    pytest.param("interpreter", False, id="interpreter"),
    pytest.param("compiled", True, id="profiled-compiled"),
    pytest.param("columnar", True, id="profiled-columnar"),
]


class TestBatchStatsErrorAccounting:
    """A SwitchError mid-batch counts the whole burst the same way on
    every engine: ``packets`` and ``packets_processed`` both grow by
    the burst length, and ``packets == fused + slow_path`` (every
    packet bucketed once, unreached lanes as slow path)."""

    @staticmethod
    def _system(mode: str, profiled: bool):
        system = MantisSystem.from_source(
            OOR_SPEC_P4R, num_ports=8, execution_mode=mode
        )
        system.agent.prologue()
        if profiled:
            system.asic.enable_profiling()
        return system

    @pytest.mark.parametrize("mode, profiled", ERROR_CONFIGS)
    def test_oor_egress_spec_keeps_invariant(self, mode: str, profiled):
        system = self._system(mode, profiled)
        packets = [Packet({"hdr.f": i}) for i in range(10)]
        with pytest.raises(SwitchError, match="egress_spec"):
            system.asic.process_batch(packets)
        stats = system.asic.batch_stats
        assert stats.packets == 10
        assert system.asic.packets_processed == stats.packets
        assert stats.packets == stats.fused + stats.slow_path

    @pytest.mark.parametrize("mode, profiled", ERROR_CONFIGS)
    def test_oor_egress_spec_with_sink_keeps_invariant(
        self, mode: str, profiled
    ):
        system = self._system(mode, profiled)
        packets = [Packet({"hdr.f": i}) for i in range(6)]
        with pytest.raises(SwitchError, match="egress_spec"):
            system.asic.process_batch(packets, sink=lambda i, r: None)
        stats = system.asic.batch_stats
        assert stats.packets == 6
        assert system.asic.packets_processed == stats.packets
        assert stats.packets == stats.fused + stats.slow_path


# Whole-table fallbacks: each program is admitted (columnar plans
# exist) but one table cannot sweep at run time, so every live lane
# runs the generated per-table apply in lane order.

SHARED_GROUPS_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { k : 8; v : 32; } }
header h_t hdr;
register acc { width : 32; instance_count : 2; }
action bump(step, port) {
    register_read(hdr.v, acc, 0);
    add_to_field(hdr.v, step);
    register_write(acc, 0, hdr.v);
    modify_field(standard_metadata.egress_spec, port);
}
table tally {
    reads { hdr.k : exact; }
    actions { bump; }
    default_action : bump(100, 3);
}
control ingress { apply(tally); }
"""

WIDE_KEY_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { mac : 48; ip : 32; } }
header h_t hdr;
counter seen { type : packets; instance_count : 4; }
action forward(port) {
    count(seen, port);
    modify_field(standard_metadata.egress_spec, port);
}
table l2l3 {
    reads { hdr.mac : exact; hdr.ip : exact; }
    actions { forward; }
    default_action : forward(3);
}
control ingress { apply(l2l3); }
"""

HEADROOM_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { big : 56; v : 32; } }
header h_t hdr;
register total { width : 32; instance_count : 1; }
action sum_big() {
    register_read(hdr.v, total, 0);
    add_to_field(hdr.v, hdr.big);
    register_write(total, 0, hdr.v);
    modify_field(standard_metadata.egress_spec, 1);
}
table summer { actions { sum_big; } default_action : sum_big(); }
control ingress { apply(summer); }
"""


def _shared_groups_setup(system) -> None:
    system.driver.add_entry("tally", [1], "bump", [1, 1])
    system.driver.add_entry("tally", [2], "bump", [7, 2])


def _wide_key_setup(system) -> None:
    system.driver.add_entry("l2l3", [0x0000AABBCCDD01, 0x0A000001],
                            "forward", [1])
    system.driver.add_entry("l2l3", [0xFFFFFFFFFFFF, 0xFFFFFFFF],
                            "forward", [2])


WHOLE_TABLE_FALLBACKS = {
    "shared-state-groups": (
        SHARED_GROUPS_P4R, _shared_groups_setup, "tally",
        # Both entries (and the default) RMW one register cell.
        lambda i: {"hdr.k": (1, 2, 1, 9)[i % 4]},
    ),
    "unpackable": (
        WIDE_KEY_P4R, _wide_key_setup, "l2l3",
        # 48 + 32 key bits do not pack into one int64.
        lambda i: (
            {"hdr.mac": 0x0000AABBCCDD01, "hdr.ip": 0x0A000001},
            {"hdr.mac": 0xFFFFFFFFFFFF, "hdr.ip": 0xFFFFFFFF},
            {"hdr.mac": i, "hdr.ip": i},
        )[i % 3],
    ),
    "runtime-check": (
        HEADROOM_P4R, lambda system: None, "summer",
        # A 56-bit delta prefix-summed over >= 16 lanes overflows the
        # int64 headroom check in _VecProgram.prepare.
        lambda i: {"hdr.big": (1 << 56) - 1 - i},
    ),
}


class TestWholeTableFallback:
    """``_TableSweep._run_scalar`` against the compiled engine: same
    outputs and ASIC state, and the exact fallback reason."""

    N_PACKETS = 64

    @pytest.mark.parametrize("batch_size", [16, 64])
    @pytest.mark.parametrize("reason", sorted(WHOLE_TABLE_FALLBACKS))
    def test_matches_compiled(self, reason: str, batch_size: int):
        source, setup, table, make = WHOLE_TABLE_FALLBACKS[reason]
        workload = [make(i) for i in range(self.N_PACKETS)]

        def build(mode):
            system = MantisSystem.from_source(
                source, num_ports=8, execution_mode=mode
            )
            system.agent.prologue()
            setup(system)
            return system

        compiled = build("compiled")
        compiled_obs = _run_batch_nosink(compiled, workload, batch_size)
        col = build("columnar")
        assert col.asic.executor.columnar_ops("ingress") is not None
        col_obs = _run_batch_nosink(col, workload, batch_size)
        assert col_obs == compiled_obs
        _assert_same_state(compiled, col)
        assert col.asic.executor.fallback_counts == {
            f"table:{table}:{reason}": self.N_PACKETS
        }
        stats = col.asic.batch_stats
        assert stats.columnar_fallback == self.N_PACKETS
        assert stats.packets == stats.fused + stats.slow_path


class TestUniqueSorted:
    """``unique_sorted`` gives ``np.unique``'s values and first-occurrence
    indices (it replaces it on the burst path, which must not import
    ``numpy.ma``)."""

    @pytest.mark.parametrize("values", [
        [], [7], [3, 3, 3, 3], [-2, 5, -2, 0, 5, 9, 0, -2],
        [2 ** 62, -(2 ** 62), 0, 2 ** 62],
    ], ids=["empty", "single", "all-equal", "mixed", "extremes"])
    def test_matches_np_unique(self, values):
        np = columnar.np
        array = np.array(values, np.int64)
        expected_values, expected_first = np.unique(array, return_index=True)
        got_values, got_first = columnar.unique_sorted(array, True)
        assert got_values.dtype == np.int64
        assert got_values.tolist() == expected_values.tolist()
        assert got_first.tolist() == expected_first.tolist()
        assert columnar.unique_sorted(array).tolist() == \
            expected_values.tolist()

    def test_matches_np_unique_on_random_arrays(self):
        np = columnar.np
        rng = np.random.default_rng(40)
        for size in (1, 2, 17, 256, 1000):
            for span in (1, 4, 1 << 40):
                array = rng.integers(-span, span + 1, size, dtype=np.int64)
                expected = np.unique(array, return_index=True)
                got = columnar.unique_sorted(array, return_index=True)
                assert got[0].tolist() == expected[0].tolist()
                assert got[1].tolist() == expected[1].tolist()
