"""Differential tests: compiled pipeline vs reference interpreter.

The compiled engine must be observationally identical to the
tree-walking ``PipelineExecutor`` on every program: same field values,
same drops, same register/counter state, same table statistics, same
RNG stream.  These tests replay mixed workloads -- all four match
kinds, valid matches, if/else control flow, arithmetic, hashing,
recirculation, and mid-stream control-plane add/modify/delete --
through both engines and compare everything observable.
"""

import random
from collections import Counter

import pytest

from repro.apps.dos import DOS_P4R
from repro.apps.fabric_lb import FABRIC_P4R, build_fattree_rebalance
from repro.compiler.transform import compile_p4r
from repro.errors import SwitchError
from repro.p4.parser import parse_p4
from repro.switch import columnar, hashing
from repro.switch.asic import STANDARD_METADATA_P4, SwitchAsic
from repro.switch.compiled import (
    CompiledPipeline,
    asic_state_snapshot,
    packet_snapshot,
    run_differential,
)
from repro.switch.packet import Packet
from repro.switch.pipeline import PipelineExecutor

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# One program exercising every match kind, nested if/else with boolean
# connectives, registers, both counter modes, hashing, rng, width
# wrap-around, and recirculation.
WORKLOAD_PROGRAM = STANDARD_METADATA_P4 + """
header_type ipv4_t {
    fields { srcAddr : 32; dstAddr : 32; ttl : 8; proto : 8; len : 16; }
}
header ipv4_t ipv4;
header_type meta_t {
    fields { bucket : 16; rngv : 8; acc : 8; class : 4; }
}
metadata meta_t meta;

register seen { width : 32; instance_count : 8; }
counter pkts { type : packets; instance_count : 8; }
counter volume { type : bytes; instance_count : 8; }

field_list flow_fl { ipv4.srcAddr; ipv4.dstAddr; }
field_list_calculation flow_hash {
    input { flow_fl; }
    algorithm : crc16;
    output_width : 16;
}

action set_class(c) { modify_field(meta.class, c); }
action note(idx) {
    register_write(seen, idx, ipv4.srcAddr);
    count(pkts, idx);
    count(volume, idx);
    add_to_field(meta.acc, 250);
    subtract_from_field(ipv4.ttl, 1);
}
action pick_route(port) {
    modify_field(standard_metadata.egress_spec, port);
    modify_field_with_hash_based_offset(meta.bucket, 0, flow_hash, 8);
    modify_field_rng_uniform(meta.rngv, 0, 200);
}
action spin() { recirculate(); }
action block() { drop(); }

table classify {
    reads { ipv4.proto : ternary; }
    actions { set_class; block; }
    default_action : set_class(0);
}
table prefixes {
    reads { ipv4.dstAddr : lpm; }
    actions { note; }
    default_action : note(0);
}
table ranged {
    reads { ipv4.len : range; }
    actions { set_class; spin; block; }
    default_action : set_class(1);
}
table acl {
    reads { valid(ipv4) : exact; ipv4.srcAddr : exact; }
    actions { block; set_class; }
    default_action : set_class(2);
}
table route {
    reads { ipv4.dstAddr : exact; }
    actions { pick_route; block; }
    default_action : block();
}

control ingress {
    apply(classify);
    if (meta.class == 3 && ipv4.ttl > 2) {
        apply(acl);
    } else {
        apply(prefixes);
    }
    if (ipv4.len < 64 || ipv4.proto == 99) {
        apply(ranged);
    }
    apply(route);
}
"""


def build_asic(execution_mode: str) -> SwitchAsic:
    asic = SwitchAsic(
        parse_p4(WORKLOAD_PROGRAM),
        num_ports=8,
        seed=7,
        execution_mode=execution_mode,
    )
    asic.tables["route"].add_entry([0xDEAD0001], "pick_route", [3])
    asic.tables["route"].add_entry([0xDEAD0002], "pick_route", [5])
    asic.tables["classify"].add_entry([(6, 0xFF)], "set_class", [3],
                                      priority=2)
    asic.tables["classify"].add_entry([(0, 0x0F)], "set_class", [1],
                                      priority=1)
    asic.tables["prefixes"].add_entry([(0xDEAD0000, 16)], "note", [2])
    asic.tables["prefixes"].add_entry([(0xDEAD0002, 32)], "note", [3])
    asic.tables["ranged"].add_entry([(0, 63)], "spin")
    asic.tables["acl"].add_entry([True, 0xBAD], "block")
    return asic


def packet_stream(count: int = 120):
    """A deterministic packet mix hitting every table path."""
    for index in range(count):
        yield {
            "ipv4.srcAddr": 0xBAD if index % 7 == 0 else 0xC0A80000 + index,
            "ipv4.dstAddr": 0xDEAD0001 + index % 3,
            "ipv4.ttl": index % 9,
            "ipv4.proto": (6, 17, 99, 0)[index % 4],
            "ipv4.len": 40 + (index * 13) % 100,
        }, 64 + (index * 37) % 1400


def drive_stream(asic: SwitchAsic, mutate: bool = False):
    """Process the stream; with ``mutate`` the control plane
    adds/modifies/deletes entries mid-stream (as the Mantis agent's
    shadow flips do)."""
    observed = []
    added = []
    for index, (fields, size) in enumerate(packet_stream()):
        if mutate and index == 30:
            added.append(
                asic.tables["route"].add_entry([0xDEAD0000], "pick_route", [2])
            )
            added.append(
                asic.tables["prefixes"].add_entry([(0xDEAD0000, 24)],
                                                  "note", [5])
            )
        if mutate and index == 60:
            asic.tables["route"].modify_entry(added[0], action_args=[6])
            asic.tables["classify"].add_entry([(17, 0xFF)], "block",
                                              priority=3)
        if mutate and index == 90:
            asic.tables["prefixes"].delete_entry(added[1])
            asic.tables["ranged"].set_default("set_class", [2])
        packet = Packet(fields=dict(fields), size_bytes=size)
        asic.process(packet)
        observed.append(packet_snapshot(packet))
    return observed


class TestDifferential:
    def test_static_workload(self):
        run_differential(build_asic, drive_stream)

    def test_mid_stream_table_updates(self):
        run_differential(
            build_asic, lambda asic: drive_stream(asic, mutate=True)
        )

    def test_divergence_is_reported(self):
        def drive_differently(asic):
            # Poison one engine's state so the hook must notice.
            if asic.execution_mode == "compiled":
                asic.registers["seen"].write(7, 123)
            return []

        with pytest.raises(SwitchError, match="differential mismatch"):
            run_differential(build_asic, drive_differently)

    def test_rng_stream_shared(self):
        """Both engines draw modify_field_rng_uniform from the same
        seeded stream, packet for packet."""
        interp = build_asic("interpreter")
        fast = build_asic("compiled")
        draws = 0
        for fields, size in packet_stream(40):
            a = Packet(fields=dict(fields), size_bytes=size)
            b = Packet(fields=dict(fields), size_bytes=size)
            interp.process(a)
            fast.process(b)
            assert a.fields.get("meta.rngv") == b.fields.get("meta.rngv")
            draws += "meta.rngv" in a.fields
        assert draws > 0


class TestSteppedExecution:
    def test_yields_match_interpreter(self):
        interp = build_asic("interpreter")
        fast = build_asic("compiled")
        for fields, size in packet_stream(25):
            a = Packet(fields=dict(fields), size_bytes=size)
            b = Packet(fields=dict(fields), size_bytes=size)
            steps_a = list(interp.process_stepped(a))
            steps_b = list(fast.process_stepped(b))
            assert steps_a == steps_b
            assert packet_snapshot(a) == packet_snapshot(b)

    def test_mid_packet_mutation_visible(self):
        """The compiled engine looks the entry up *after* the yield,
        so a control-plane write landing mid-packet takes effect --
        same contract as the interpreter."""
        asic = build_asic("compiled")
        packet = Packet(
            fields={
                "ipv4.srcAddr": 1, "ipv4.dstAddr": 0xDEAD0001,
                "ipv4.ttl": 1, "ipv4.proto": 0, "ipv4.len": 500,
            },
            size_bytes=100,
        )
        stepper = asic.process_stepped(packet)
        for kind, table in stepper:
            if table == "route":
                entry = asic.tables["route"].find_entry([0xDEAD0001])
                asic.tables["route"].modify_entry(
                    entry.entry_id, action_name="block", action_args=[]
                )
        assert packet.dropped


class TestModeSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("MANTIS_PIPELINE", raising=False)
        asic = SwitchAsic(parse_p4(WORKLOAD_PROGRAM))
        assert asic.execution_mode == "compiled"
        assert isinstance(asic.executor, CompiledPipeline)
        assert isinstance(asic.interpreter, PipelineExecutor)

    def test_constructor_flag(self):
        asic = SwitchAsic(
            parse_p4(WORKLOAD_PROGRAM), execution_mode="interpreter"
        )
        assert asic.executor is asic.interpreter

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("MANTIS_PIPELINE", "interpreter")
        asic = SwitchAsic(parse_p4(WORKLOAD_PROGRAM))
        assert asic.execution_mode == "interpreter"
        assert asic.executor is asic.interpreter

    def test_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv("MANTIS_PIPELINE", "interpreter")
        asic = SwitchAsic(
            parse_p4(WORKLOAD_PROGRAM), execution_mode="compiled"
        )
        assert isinstance(asic.executor, CompiledPipeline)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SwitchError, match="unknown execution mode"):
            SwitchAsic(parse_p4(WORKLOAD_PROGRAM), execution_mode="jit")


WRAP_PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { narrow : 4; } }
header h_t h;
action bump() { add_to_field(h.narrow, 10); }
action dip() { subtract_from_field(h.narrow, 10); }
table bump_t { actions { bump; } default_action : bump(); }
table dip_t { reads { h.narrow : exact; } actions { dip; } }
control ingress { apply(bump_t); apply(dip_t); }
"""


class TestWidthMasking:
    @pytest.mark.parametrize("mode", ["interpreter", "compiled"])
    def test_add_to_field_wraps_at_width(self, mode):
        asic = SwitchAsic(
            parse_p4(WRAP_PROGRAM), num_ports=4, execution_mode=mode
        )
        packet = Packet(fields={"h.narrow": 12})
        asic.process(packet)
        # 12 + 10 = 22 wraps to 6 in the 4-bit field.
        assert packet.fields["h.narrow"] == 6

    @pytest.mark.parametrize("mode", ["interpreter", "compiled"])
    def test_subtract_from_field_wraps_at_width(self, mode):
        asic = SwitchAsic(
            parse_p4(WRAP_PROGRAM), num_ports=4, execution_mode=mode
        )
        asic.tables["dip_t"].add_entry([9], "dip")
        packet = Packet(fields={"h.narrow": 15})
        asic.process(packet)
        # bump: 15+10 wraps to 9; dip: 9-10 wraps to 15.
        assert packet.fields["h.narrow"] == 15


class TestSnapshots:
    def test_state_snapshot_covers_live_state(self):
        asic = build_asic("compiled")
        before = asic_state_snapshot(asic)
        drive_stream(asic)
        after = asic_state_snapshot(asic)
        assert before != after
        assert after["packets_processed"] == 120
        assert any(v for v in after["registers"]["seen"])
        assert any(v for v in after["counters"]["pkts"])


# ---- generated engine vs interpreter under control-plane churn -------------
#
# The programs are the Mantis compiler's output (init table, malleable
# loads, measurement mirrors), the control plane is driven between
# packets the way the agent drives it, and every packet plus the final
# ASIC state (hit/miss counters included) must match the interpreter.

CHURN_PROGRAMS = {
    "fabric": {
        "p4": compile_p4r(FABRIC_P4R).p4_source,
        "fields": lambda k: {
            "ipv4.srcAddr": 0x0A000000 + k % 5,
            "ipv4.dstAddr": 0x0B000000 + k % 7,
            "ipv4.proto": 17,
            "l4.sport": 1024 + k % 97,
            "l4.dport": 443,
        },
        # (table, action, one exclusive upper bound per argument)
        "defaults": [
            ("p4r_init_", "p4r_init_action_", (2, 2, 2, 2)),
            ("route", "to_upper", ()),
            ("route", "_drop", ()),
            ("up_select", "skip", ()),
        ],
        # (table, key from entropy, candidate (action, argument bounds))
        "entries": [
            ("route", lambda k: [0x0B000000 + k % 7],
             [("forward", (8,)), ("to_upper", ()), ("_drop", ())]),
            ("up_select", lambda k: [k % 4],
             [("forward", (8,)), ("skip", ())]),
        ],
        "registers": ["egr_count", "egr_count_p4r_seq_"],
    },
    "dos": {
        "p4": compile_p4r(DOS_P4R).p4_source,
        "fields": lambda k: {
            "ipv4.srcAddr": 0x0A000000 + k % 6,
            "ipv4.dstAddr": 0x0A0000FE + k % 3,
            "ipv4.proto": 6,
            "tcp.seq": k,
        },
        "defaults": [
            ("p4r_init_", "p4r_init_action_", (2, 2)),
            ("blocklist", "block", ()),
            ("blocklist", "allow", ()),
        ],
        "entries": [
            ("blocklist", lambda k: [0x0A000000 + k % 6, k // 6 % 2],
             [("block", ()), ("allow", ())]),
            ("route", lambda k: [0x0A0000FE + k % 3],
             [("forward", (8,)), ("_drop", ())]),
        ],
        "registers": ["total_bytes", "p4r_measure_0_"],
    },
}

CHURN_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(
            ["packet"] * 4 + ["default", "add", "modify", "delete", "register"]
        ),
        st.integers(0, 1 << 20),
    ),
    max_size=60,
)


def _churn_args(bounds, k: int):
    return [(k >> (3 * i)) % bound for i, bound in enumerate(bounds)]


def drive_churn(asic: SwitchAsic, program: dict, events):
    """Replay ``(kind, entropy)`` events: packets interleaved with
    set_default / add / modify / delete and register writes."""
    handles = []  # (table, entry id, candidate actions)
    observed = []
    for kind, k in events:
        if kind == "packet":
            packet = Packet(program["fields"](k), size_bytes=64 + k % 1400)
            result = asic.process(packet)
            observed.append(
                (None if result is None else result[0],
                 packet_snapshot(packet))
            )
        elif kind == "default":
            table, action, bounds = program["defaults"][
                k % len(program["defaults"])
            ]
            asic.tables[table].set_default(action, _churn_args(bounds, k))
        elif kind == "add":
            table, key, actions = program["entries"][
                k % len(program["entries"])
            ]
            action, bounds = actions[k % len(actions)]
            runtime = asic.tables[table]
            if runtime.entry_count == runtime.decl.size:
                continue
            handles.append((
                table,
                runtime.add_entry(key(k), action, _churn_args(bounds, k)),
                actions,
            ))
        elif kind == "modify" and handles:
            table, entry_id, actions = handles[k % len(handles)]
            action, bounds = actions[k % len(actions)]
            asic.tables[table].modify_entry(
                entry_id, action_name=action,
                action_args=_churn_args(bounds, k),
            )
        elif kind == "delete" and handles:
            table, entry_id, _actions = handles.pop(k % len(handles))
            asic.tables[table].delete_entry(entry_id)
        elif kind == "register":
            register = asic.registers[
                program["registers"][k % len(program["registers"])]
            ]
            register.write(k % register.instance_count, k * 2654435761)
    return observed


class TestGeneratedEngineChurn:
    @pytest.mark.parametrize("name", sorted(CHURN_PROGRAMS))
    @settings(max_examples=30, deadline=None)
    @given(events=CHURN_EVENTS)
    def test_matches_interpreter(self, name, events):
        program = CHURN_PROGRAMS[name]
        run_differential(
            lambda mode: SwitchAsic(
                parse_p4(program["p4"]), num_ports=8, seed=5,
                execution_mode=mode,
            ),
            lambda asic: drive_churn(asic, program, events),
        )

    @pytest.mark.parametrize("name", sorted(CHURN_PROGRAMS))
    def test_long_scripted_run(self, name):
        """One long seeded script, so every event kind fires many
        times against a populated table."""
        rng = random.Random(name)
        kinds = ["packet"] * 6 + [
            "default", "add", "add", "modify", "delete", "register"
        ]
        events = [
            (rng.choice(kinds), rng.randrange(1 << 20)) for _ in range(1500)
        ]
        program = CHURN_PROGRAMS[name]
        observed = run_differential(
            lambda mode: SwitchAsic(
                parse_p4(program["p4"]), num_ports=8, seed=5,
                execution_mode=mode,
            ),
            lambda asic: drive_churn(asic, program, events),
        )
        forwarded = [port for port, _packet in observed if port is not None]
        assert forwarded and len(forwarded) < len(observed)


def _unknown_action(asic):
    # Behind the driver's back: add_entry/set_default validate names.
    asic.tables["route"].default_action = ("ghost", [])


# Expected SwitchError text -> the control-plane write that provokes it
# on the next packet missing into route's default action.
ERROR_CASES = {
    "unknown action 'ghost'": _unknown_action,
    "action forward: expected 1 args, got 0":
        lambda asic: asic.tables["route"].set_default("forward", []),
    "egress_spec 40 out of range":
        lambda asic: asic.tables["route"].set_default("forward", [40]),
    # Port 20 exists (32 ports) but egr_count has 16 cells.
    "register egr_count: index 20 out of range [0, 16)":
        lambda asic: asic.tables["route"].set_default("forward", [20]),
}


class TestErrorParity:
    @pytest.mark.parametrize("message", sorted(ERROR_CASES))
    def test_same_error_same_state(self, message):
        program = CHURN_PROGRAMS["fabric"]
        fields = program["fields"]
        outcomes = []
        for mode in ("interpreter", "compiled"):
            asic = SwitchAsic(
                parse_p4(program["p4"]), num_ports=32, seed=1,
                execution_mode=mode,
            )
            asic.tables["route"].add_entry([0x0B000001], "forward", [3])
            asic.tables["up_select"].add_entry([0xFFFF], "skip")
            asic.process(Packet(fields(1)))   # hits the entry
            ERROR_CASES[message](asic)
            with pytest.raises(SwitchError) as raised:
                asic.process(Packet(fields(2)))   # misses into the default
            asic.tables["route"].set_default("_drop", [])
            asic.process(Packet(fields(1)))   # the engine still works
            outcomes.append((str(raised.value), asic_state_snapshot(asic)))
        assert outcomes[0][0] == message
        assert outcomes[0] == outcomes[1]


class TestProfiledAndSteppedFlavours:
    """The counting and generator variants come out of the same
    emitter as the plain controls: same applies, same action runs,
    same yield sequence as the interpreter."""

    def test_profile_counts_and_yields(self):
        interp = build_asic("interpreter")
        plain = build_asic("compiled")
        profiled = build_asic("compiled")
        profile = profiled.enable_profiling()
        stepped = build_asic("compiled")
        stepped_profile = stepped.enable_profiling()
        applies = Counter()
        for fields, size in packet_stream(60):
            packets = [
                Packet(fields=dict(fields), size_bytes=size) for _ in range(4)
            ]
            yields = list(interp.process_stepped(packets[0]))
            applies.update(table for _kind, table in yields)
            plain.process(packets[1])
            profiled.process(packets[2])
            assert list(stepped.process_stepped(packets[3])) == yields
            assert len({
                repr(sorted(packet_snapshot(p).items())) for p in packets
            }) == 1
        snap = profile.snapshot()
        assert {t: c for t, c in snap["table_applies"].items() if c} == applies
        # Every table of the workload program has a default action, so
        # each apply runs exactly one action.
        assert sum(snap["action_runs"].values()) == sum(applies.values())
        assert snap["control_runs"]["ingress"] == profiled.pipeline_passes
        stepped_snap = stepped_profile.snapshot()
        assert stepped_snap["table_applies"] == snap["table_applies"]
        assert stepped_snap["action_runs"] == snap["action_runs"]
        assert asic_state_snapshot(profiled) == asic_state_snapshot(plain)
        assert asic_state_snapshot(stepped) == asic_state_snapshot(interp)


def _crc16_bitwise(data: bytes) -> int:
    """CRC-16/CCITT-FALSE one bit at a time: the reference the
    table-driven implementations are held to."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


HASH_PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t {
    fields { nib : 4; odd : 9; half : 16; word : 32; wide : 48; out : 16; }
}
header h_t h;
field_list fl { h.nib; h.odd; h.half; h.word; h.wide; }
field_list_calculation crc { input { fl; } algorithm : crc16; output_width : 16; }
field_list_calculation crc_narrow {
    input { fl; } algorithm : crc16; output_width : 10;
}
field_list_calculation other {
    input { fl; } algorithm : crc32; output_width : 16;
}
action mix(base, size) {
    modify_field_with_hash_based_offset(h.out, base, crc, size);
    modify_field_with_hash_based_offset(h.half, 3, crc_narrow, 0);
    modify_field_with_hash_based_offset(h.word, 0, other, 1000);
}
table t { actions { mix; } default_action : mix(5, 7); }
control ingress { apply(t); }
"""


class TestTableDrivenCrc:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_scalar_crc16_matches_bitwise(self, data):
        assert hashing.crc16(data) == _crc16_bitwise(data)

    @settings(max_examples=40, deadline=None)
    @given(
        packets=st.lists(
            # Wider than the declared fields, and negative: the byte
            # layout must mask exactly like fields_to_bytes.
            st.lists(st.integers(-(1 << 50), 1 << 50), min_size=5, max_size=5),
            min_size=1, max_size=6,
        ),
        size=st.integers(0, 64),
    )
    def test_inlined_hash_matches_interpreter(self, packets, size):
        names = ("h.nib", "h.odd", "h.half", "h.word", "h.wide")

        def drive(asic):
            asic.tables["t"].set_default("mix", [9, size])
            observed = []
            for values in packets:
                packet = Packet(fields=dict(zip(names, values)))
                asic.process(packet)
                observed.append(packet_snapshot(packet))
            return observed

        run_differential(
            lambda mode: SwitchAsic(
                parse_p4(HASH_PROGRAM), num_ports=4, execution_mode=mode
            ),
            drive,
        )


MASKED_PROGRAM = STANDARD_METADATA_P4 + """
header_type m_t { fields { a : 16; b : 16; c : 8; } }
header m_t m;
action const_mask() { modify_field(m.a, m.b, 0x0ff0); }
action field_mask(value) { modify_field(m.b, value, m.c); }
table t1 { actions { const_mask; } default_action : const_mask(); }
table t2 { actions { field_mask; } default_action : field_mask(0xabcd); }
control ingress { apply(t1); apply(t2); }
"""


class TestMaskedModifyField:
    """P4-14: ``modify_field(dst, src, mask)`` writes only the masked
    bits, ``(dst & ~mask) | (src & mask)``, on all three engines."""

    WORKLOAD = [
        {"m.a": 0x1234, "m.b": 0xFFFF, "m.c": 0x0F},
        {"m.a": 0xFFFF, "m.b": 0x0000, "m.c": 0xF0},
        {"m.a": 0xA5A5, "m.b": 0x5A5A, "m.c": 0x00},
        {"m.b": 0x0770, "m.c": 0xFF},  # unset destination reads as 0
    ]

    def _run(self, mode):
        asic = SwitchAsic(
            parse_p4(MASKED_PROGRAM), num_ports=4, execution_mode=mode
        )
        packets = [Packet(fields=dict(fields)) for fields in self.WORKLOAD]
        if mode == "columnar":
            asic.process_batch(packets)
            assert not asic.executor.fallback_counts
        else:
            for packet in packets:
                asic.process(packet)
        return [
            (p.fields["m.a"], p.fields["m.b"]) for p in packets
        ], asic_state_snapshot(asic)

    def test_only_masked_bits_are_written(self):
        outcome, _state = self._run("interpreter")
        for fields, (a, b) in zip(self.WORKLOAD, outcome):
            a0, b0, c = fields.get("m.a", 0), fields["m.b"], fields["m.c"]
            assert a == (a0 & ~0x0FF0 | b0 & 0x0FF0) & 0xFFFF
            assert b == (b0 & ~c | 0xABCD & c) & 0xFFFF

    @pytest.mark.skipif(
        not columnar.HAVE_NUMPY, reason="columnar engine requires numpy"
    )
    def test_three_engines_agree(self):
        reference = self._run("interpreter")
        assert self._run("compiled") == reference
        assert self._run("columnar") == reference


class TestFleetEngineParity:
    def test_fattree_interpreter_vs_default_engine(self, monkeypatch):
        """The whole fleet -- 20 switches, agents, routes, traffic --
        ends in the same state under the reference interpreter and the
        default generated engine."""

        def run():
            scenario = build_fattree_rebalance(k=4)
            fabric = scenario.fabric
            for sender in scenario.senders:
                sender.start()
            fabric.run_until(fabric.clock.now + 800.0, agent=True)
            systems = {
                name: switch.system
                for name, switch in fabric.switches.items()
            }
            return {
                "modes": {s.asic.execution_mode for s in systems.values()},
                "drop_totals": fabric.drop_totals(),
                "shift_times": {
                    name: list(app.shift_times)
                    for name, app in scenario.apps.items()
                },
                "ops_issued": {
                    name: s.driver.ops_issued for name, s in systems.items()
                },
                "clock": fabric.clock.now,
                "registers": {
                    name: asic_state_snapshot(s.asic)["registers"]
                    for name, s in systems.items()
                },
            }

        monkeypatch.setenv("MANTIS_PIPELINE", "interpreter")
        reference = run()
        monkeypatch.delenv("MANTIS_PIPELINE")
        generated = run()
        assert reference.pop("modes") == {"interpreter"}
        assert generated.pop("modes") == {"compiled"}
        assert generated == reference
        assert reference["drop_totals"]["delivered"] > 0
