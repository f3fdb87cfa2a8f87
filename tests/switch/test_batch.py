"""Burst-mode data plane: batch execution must be invisible.

``SwitchAsic.process_batch`` has two shapes -- the columnar engine's
vectorized sweeps when its admission accepts the program, otherwise
the bound generated controls lane by lane -- and both must be
behaviourally transparent.  These tests drive every use-case program
(DoS, ECMP, failover, sketch, RL) plus a recirculating program through
scalar and batch execution and require bit-identical egress
sequences, register/counter state, and table statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest

from repro.apps.dos import DOS_P4R
from repro.apps.ecmp import ECMP_P4R
from repro.apps.failover import FAILOVER_P4R, HEARTBEAT_PROTO
from repro.apps.rl import RL_P4R
from repro.apps.sketch import SKETCH_P4R
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.compiled import asic_state_snapshot
from repro.switch.packet import Packet
from repro.system import MantisSystem

RECIRC_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { passes : 8; } }
header h_t hdr;
register seen { width : 32; instance_count : 4; }

action bounce() {
    add_to_field(hdr.passes, 1);
    recirculate();
    modify_field(standard_metadata.egress_spec, 1);
}
action done() {
    register_read(hdr.passes, seen, 0);
    add_to_field(hdr.passes, 1);
    register_write(seen, 0, hdr.passes);
    modify_field(standard_metadata.egress_spec, 2);
}
table pingpong {
    reads { hdr.passes : exact; }
    actions { bounce; done; }
    default_action : done();
}
control ingress { apply(pingpong); }
"""

DST = 0x0B000001


def _dos_setup(system: MantisSystem) -> None:
    system.driver.add_entry("route", [DST], "forward", [1])
    # blocklist is malleable: entries go through the agent handle and
    # become visible at the next vv commit.
    system.agent.table("blocklist").add([0x0AFF0099], "block")
    system.agent.run_iteration()


def _dos_workload(n: int) -> List[Dict[str, int]]:
    out = []
    for i in range(n):
        src = (0x0AFF0099, 0x0AFF0001, 0x0A000001 + i % 5)[i % 3]
        out.append({"ipv4.srcAddr": src, "ipv4.dstAddr": DST,
                    "ipv4.proto": 17, "tcp.seq": i})
    return out


def _ecmp_setup(system: MantisSystem) -> None:
    for bucket in range(4):
        system.driver.add_entry(
            "ecmp_select", [bucket], "forward", [bucket]
        )


def _ecmp_workload(n: int) -> List[Dict[str, int]]:
    return [
        {"ipv4.srcAddr": 0x0A000001 + i * 7919, "ipv4.dstAddr": DST,
         "ipv4.proto": 6, "l4.sport": 1000 + i * 13, "l4.dport": 443}
        for i in range(n)
    ]


def _failover_setup(system: MantisSystem) -> None:
    system.driver.add_entry("hb_filter", [HEARTBEAT_PROTO, DST], "count_hb", [])
    system.agent.table("route").add([DST], "forward", [3])
    system.agent.run_iteration()


def _failover_workload(n: int) -> List[Dict[str, int]]:
    out = []
    for i in range(n):
        # Every third packet is a heartbeat (counted + dropped).
        proto = HEARTBEAT_PROTO if i % 3 == 0 else 6
        out.append({"ipv4.srcAddr": 0x0A000001 + i % 4,
                    "ipv4.dstAddr": DST, "ipv4.proto": proto})
    return out


def _sketch_setup(system: MantisSystem) -> None:
    system.driver.add_entry("route", [DST], "forward", [2])


def _sketch_workload(n: int) -> List[Dict[str, int]]:
    return [
        {"ipv4.srcAddr": 0x0A000001 + i % 7, "ipv4.dstAddr": DST,
         "ipv4.proto": 17}
        for i in range(n)
    ]


def _rl_setup(system: MantisSystem) -> None:
    system.driver.add_entry("route", [DST], "forward", [1])


def _rl_workload(n: int) -> List[Dict[str, int]]:
    return [
        {"ipv4.srcAddr": 0x0A000001, "ipv4.dstAddr": DST, "tcp.seq": i}
        for i in range(n)
    ]


def _recirc_setup(system: MantisSystem) -> None:
    # passes 0 and 1 bounce; 2 falls through to done().
    system.driver.add_entry("pingpong", [0], "bounce", [])
    system.driver.add_entry("pingpong", [1], "bounce", [])


def _recirc_workload(n: int) -> List[Dict[str, int]]:
    return [{"hdr.passes": 0, "ipv4.srcAddr": i} for i in range(n)]


APPS = {
    "dos": (DOS_P4R, _dos_setup, _dos_workload),
    "ecmp": (ECMP_P4R, _ecmp_setup, _ecmp_workload),
    "failover": (FAILOVER_P4R, _failover_setup, _failover_workload),
    "sketch": (SKETCH_P4R, _sketch_setup, _sketch_workload),
    "rl": (RL_P4R, _rl_setup, _rl_workload),
    "recirc": (RECIRC_P4R, _recirc_setup, _recirc_workload),
}


def _build(name: str, execution_mode: str = "compiled") -> MantisSystem:
    source, setup, _workload = APPS[name]
    system = MantisSystem.from_source(
        source, num_ports=16, execution_mode=execution_mode
    )
    system.agent.prologue()
    setup(system)
    return system


def _observable(result) -> object:
    if result is None:
        return None
    port, packet = result
    return (port, dict(packet.fields), frozenset(packet.valid_headers))


def _run_scalar(system: MantisSystem, workload) -> List[object]:
    return [
        _observable(system.asic.process(Packet(fields, size_bytes=1000)))
        for fields in workload
    ]


def _run_batch(
    system: MantisSystem, workload, batch_size: int
) -> List[object]:
    observed: List[object] = []
    for start in range(0, len(workload), batch_size):
        chunk = [
            Packet(fields, size_bytes=1000)
            for fields in workload[start:start + batch_size]
        ]
        sunk: List[object] = [None] * len(chunk)

        def sink(index: int, result, sunk=sunk) -> None:
            sunk[index] = _observable(result)

        returned = system.asic.process_batch(chunk, sink=sink)
        assert [_observable(r) for r in returned] == sunk
        observed.extend(sunk)
    return observed


class TestBatchEquivalence:
    """Satellite: batch == single-packet for every use-case program."""

    N_PACKETS = 96

    @pytest.mark.parametrize("name", sorted(APPS))
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_batch_matches_scalar(self, name: str, batch_size: int):
        workload = APPS[name][2](self.N_PACKETS)
        scalar = _build(name)
        scalar_obs = _run_scalar(scalar, workload)
        batched = _build(name)
        batch_obs = _run_batch(batched, workload, batch_size)
        assert batch_obs == scalar_obs
        state_scalar = asic_state_snapshot(scalar.asic)
        state_batch = asic_state_snapshot(batched.asic)
        for section in state_scalar:
            assert state_batch[section] == state_scalar[section], section

    @pytest.mark.parametrize("name", ["dos", "recirc"])
    def test_interpreter_batch_fallback_matches(self, name: str):
        """The interpreter runs a burst through its bound controls
        lane by lane, like the compiled engine, and must agree with
        it."""
        workload = APPS[name][2](40)
        interp = _build(name, execution_mode="interpreter")
        interp_obs = _run_batch(interp, workload, batch_size=16)
        compiled = _build(name)
        compiled_obs = _run_batch(compiled, workload, batch_size=16)
        assert compiled_obs == interp_obs
        state_interp = asic_state_snapshot(interp.asic)
        state_compiled = asic_state_snapshot(compiled.asic)
        for section in state_interp:
            assert state_compiled[section] == state_interp[section], section

    def test_batch_times_stamp_per_packet_timestamps(self):
        system = _build("dos")
        workload = _dos_workload(4)
        packets = [Packet(fields) for fields in workload]
        times = [100.25, 101.5, 103.75, 110.0]
        results = system.asic.process_batch(packets, times=times)
        for result, t in zip(results, times):
            if result is None:
                continue
            _, packet = result
            key = "standard_metadata.ingress_global_timestamp"
            assert packet.fields[key] == int(t)

    def test_entries_added_between_batches_take_effect(self):
        """Nothing a burst resolves outlives it: a table entry
        installed after a batch must apply to the next one."""
        system = _build("dos")
        fields = {"ipv4.srcAddr": 0x0AFF0001, "ipv4.dstAddr": DST}
        first = system.asic.process_batch([Packet(fields)])
        assert first[0] is not None  # forwarded
        system.agent.table("blocklist").add([0x0AFF0001], "block")
        system.agent.run_iteration()
        second = system.asic.process_batch([Packet(fields)])
        assert second == [None]  # now dropped


SHARED_REG_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;
register shared { width : 32; instance_count : 4; }

action first_touch() {
    register_read(hdr.f, shared, 0);
    add_to_field(hdr.f, 1);
    register_write(shared, 0, hdr.f);
}
action second_touch() {
    register_read(hdr.f, shared, 0);
    register_write(shared, 1, hdr.f);
    modify_field(standard_metadata.egress_spec, 1);
}
table t1 { actions { first_touch; } default_action : first_touch(); }
table t2 { actions { second_touch; } default_action : second_touch(); }
control ingress { apply(t1); apply(t2); }
"""


class TestColumnarAdmission:
    """Table-major columnar sweeps are only legal when tables share no
    state; everything else runs lane by lane through the controls."""

    def test_disjoint_program_gets_columnar_plan(self):
        system = _build("dos", "columnar")
        assert system.asic.executor.columnar_ops("ingress") is not None

    def test_shared_register_disables_columnar(self):
        """Two ingress tables touching the same register array cannot
        be reordered table-major: packet k's t2 must see the register
        as left by packet k's t1, not by the whole batch's t1 sweep."""
        system = MantisSystem.from_source(
            SHARED_REG_P4R, num_ports=4, execution_mode="columnar"
        )
        system.agent.prologue()
        assert system.asic.executor.columnar_ops("ingress") is None
        # And the batch path (the bound controls, lane by lane) still
        # matches scalar execution exactly.
        workload = [{"hdr.f": 0} for _ in range(20)]
        scalar = MantisSystem.from_source(
            SHARED_REG_P4R, num_ports=4, execution_mode="compiled"
        )
        scalar.agent.prologue()
        scalar_obs = _run_scalar(scalar, workload)
        batch_obs = _run_batch(system, workload, batch_size=8)
        assert batch_obs == scalar_obs
        assert (
            system.asic.get_register("shared").values
            == scalar.asic.get_register("shared").values
        )
        assert system.asic.batch_stats.columnar == 0

    def test_recirculating_program_has_no_columnar_plan(self):
        """Stateful recirculation replays ingress out of sweep order."""
        system = _build("recirc", "columnar")
        assert system.asic.executor.columnar_ops("ingress") is None


class TestBatchProfiling:
    """--profile counters: the instrumented engine counts hot loops,
    so a profiled burst has no columnar plan and runs the counting
    controls lane by lane."""

    def test_counters_cover_controls_tables_actions(self):
        system = _build("dos")
        profile = system.asic.enable_profiling()
        workload = _dos_workload(30)
        _run_batch(system, workload, batch_size=10)
        snap = profile.snapshot()
        assert snap["control_runs"]["ingress"] == 30
        assert snap["table_applies"]["blocklist"] == 30
        assert snap["table_applies"]["route"] == 20  # 10 blocked
        assert snap["action_runs"]["block"] == 10
        assert snap["action_runs"]["account"] == 20

    def test_profiled_batch_matches_unprofiled(self):
        workload = _dos_workload(36)
        plain = _build("dos")
        plain_obs = _run_batch(plain, workload, batch_size=12)
        profiled = _build("dos", "columnar")
        assert profiled.asic.executor.columnar_ops("ingress") is not None
        profiled.asic.enable_profiling()
        assert profiled.asic.executor.columnar_ops("ingress") is None
        profiled_obs = _run_batch(profiled, workload, batch_size=12)
        assert profiled_obs == plain_obs
        state_plain = asic_state_snapshot(plain.asic)
        state_profiled = asic_state_snapshot(profiled.asic)
        for section in state_plain:
            assert state_profiled[section] == state_plain[section], section

    def test_profiling_requires_compiled_engine(self):
        from repro.errors import SwitchError

        system = _build("dos", execution_mode="interpreter")
        with pytest.raises(SwitchError):
            system.asic.enable_profiling()
