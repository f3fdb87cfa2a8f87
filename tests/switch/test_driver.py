"""Driver cost-model tests (the substrate behind Figures 10-12)."""

import ast
import inspect
import textwrap

import pytest

from repro.errors import DriverError, SwitchError
from repro.p4.parser import parse_p4
from repro.switch.asic import STANDARD_METADATA_P4, SwitchAsic
from repro.switch.driver import (
    Driver,
    DriverCostModel,
    plain_tail_guard,
    plain_tail_source,
)

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;

register wide { width : 32; instance_count : 64; }
register other { width : 32; instance_count : 64; }

action set_f(v) { modify_field(hdr.f, v); }
action nop() { no_op(); }

table t1 {
    reads { hdr.f : exact; }
    actions { set_f; nop; }
    default_action : nop();
}
control ingress { apply(t1); }
"""


@pytest.fixture
def driver():
    asic = SwitchAsic(parse_p4(PROGRAM))
    return Driver(asic, record_timeline=True)


class TestCostModel:
    def test_each_op_pays_pcie(self, driver):
        model = driver.model
        start = driver.clock.now
        driver.write_register("wide", 0, 1)
        one_op = driver.clock.now - start
        assert one_op == pytest.approx(
            model.pcie_rtt_us + model.op_prep_us + model.register_write_us
        )

    def test_batch_shares_pcie(self, driver):
        model = driver.model
        start = driver.clock.now
        with driver.batch():
            driver.write_register("wide", 0, 1)
            driver.write_register("wide", 1, 2)
            driver.write_register("wide", 2, 3)
        elapsed = driver.clock.now - start
        expected = model.pcie_rtt_us + 3 * (
            model.op_prep_us + model.register_write_us
        )
        assert elapsed == pytest.approx(expected)

    @pytest.mark.parametrize("record_timeline", [False, True])
    def test_failed_apply_leaves_batch_pcie_owed(self, record_timeline):
        """An op whose ``apply`` raises costs nothing -- so it must not
        use up its batch's PCIe round trip either (plain and full
        tail)."""

        def batch_cost(lead_with_bad_op: bool) -> float:
            driver = Driver(
                SwitchAsic(parse_p4(PROGRAM)), record_timeline=record_timeline
            )
            start = driver.clock.now
            with driver.batch():
                if lead_with_bad_op:
                    with pytest.raises(SwitchError):
                        driver.add_entry("t1", [1], "nonexistent_action", [1])
                    assert driver.clock.now == start
                driver.add_entry("t1", [1], "set_f", [1])
                driver.add_entry("t1", [2], "set_f", [2])
            return driver.clock.now - start

        model = DriverCostModel()
        assert batch_cost(True) == batch_cost(False) == pytest.approx(
            model.pcie_rtt_us + 2 * (model.op_prep_us + model.table_add_us)
        )

    def test_memoization_reduces_prep(self, driver):
        model = driver.model
        memo = driver.memoize("register", "wide")
        start = driver.clock.now
        driver.write_register("wide", 0, 1, memo=memo)
        elapsed = driver.clock.now - start
        assert elapsed == pytest.approx(
            model.pcie_rtt_us + model.memoized_prep_us + model.register_write_us
        )

    def test_memoize_is_idempotent(self, driver):
        first = driver.memoize("table", "t1")
        t = driver.clock.now
        second = driver.memoize("table", "t1")
        assert first is second
        assert driver.clock.now == t  # no extra prologue cost

    def test_implicit_memo_lookup(self, driver):
        """Once memoized, plain calls use the cached instruction buffer."""
        driver.memoize("register", "wide")
        start = driver.clock.now
        driver.write_register("wide", 0, 1)
        elapsed = driver.clock.now - start
        assert elapsed < driver.model.pcie_rtt_us + driver.model.op_prep_us

    def test_burst_read_cheaper_than_separate_arrays(self, driver):
        """Figure 10a: N entries of one array ~ constant; N arrays linear."""
        start = driver.clock.now
        driver.read_registers("wide", 0, 15)
        burst = driver.clock.now - start

        start = driver.clock.now
        for _ in range(8):
            driver.read_registers("wide", 0, 0)
            driver.read_registers("other", 0, 0)
        separate = driver.clock.now - start
        assert burst < separate / 3

    def test_register_read_per_byte_slope(self):
        model = DriverCostModel()
        c4 = model.register_read_cost(1, 32)
        c64 = model.register_read_cost(16, 32)
        slope_per_byte = (c64 - c4) / 60
        assert slope_per_byte == pytest.approx(model.register_read_per_byte_us)
        # "10s of ns" per extra byte, per the paper.
        assert 0.005 <= slope_per_byte <= 0.05


class TestDriverOps:
    def test_table_lifecycle(self, driver):
        entry = driver.add_entry("t1", [5], "set_f", [9])
        assert driver.asic.tables["t1"].entries[entry].action_args == [9]
        driver.modify_entry("t1", entry, args=[11])
        assert driver.asic.tables["t1"].entries[entry].action_args == [11]
        driver.delete_entry("t1", entry)
        assert not driver.asic.tables["t1"].entries

    def test_set_default(self, driver):
        driver.set_default("t1", "set_f", [3])
        assert driver.asic.tables["t1"].default_action == ("set_f", [3])

    def test_read_registers_values(self, driver):
        driver.asic.registers["wide"].write(3, 33)
        assert driver.read_registers("wide", 2, 4) == [0, 33, 0]

    def test_memo_mismatch_rejected(self, driver):
        memo = driver.memoize("register", "wide")
        with pytest.raises(DriverError):
            driver.write_register("other", 0, 1, memo=memo)

    def test_unknown_memo_kind(self, driver):
        with pytest.raises(DriverError):
            driver.memoize("gizmo", "wide")

    def test_timeline_records_channels(self, driver):
        driver.write_register("wide", 0, 1, channel="mantis")
        driver.write_register("wide", 1, 2, channel="legacy")
        channels = [op.channel for op in driver.timeline]
        assert channels == ["mantis", "legacy"]
        assert driver.timeline[0].end_us <= driver.timeline[1].start_us

    def test_ops_issued_counter(self, driver):
        driver.write_register("wide", 0, 1)
        driver.read_registers("wide")
        assert driver.ops_issued == 2


class TestPlainTailSource:
    """Generated code replays ``Driver._execute``'s plain tail from
    ``plain_tail_guard``/``plain_tail_source``; these fail when the
    tail and its source copy drift apart."""

    #: Driver attributes ``_execute`` reads that cannot fail, delay or
    #: watch an op: its pricing, batch state, clock, retry budget and
    #: the counters it bumps.  A new attribute read there that *can*
    #: observe an op belongs in ``plain_tail_guard`` instead.
    BOOKKEEPING = {
        "model", "_batch", "clock", "memoization_enabled", "retry_policy",
        "op_attempts", "ops_issued", "timeline_total", "timeouts_total",
        "retries_total", "op_retries", "_record_error", "_record_op",
    }

    @staticmethod
    def _plain_branch() -> ast.If:
        source = textwrap.dedent(inspect.getsource(Driver._execute))
        function = ast.parse(source).body[0]
        for node in function.body:
            if isinstance(node, ast.If) and "session is None" in ast.unparse(
                node.test
            ):
                return node
        raise AssertionError("Driver._execute has no plain-tail branch")

    @staticmethod
    def _self_attributes(tree: ast.AST) -> set:
        return {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }

    def test_guard_is_execute_test(self):
        branch = self._plain_branch()
        tested = {ast.unparse(term) for term in branch.test.values}
        guard = ast.parse(plain_tail_guard("self"), mode="eval").body
        copied = {ast.unparse(term) for term in guard.values}
        # The guard adds memoization (the prep it prices); ``_execute``
        # picks the prep separately.
        assert tested - {"session is None"} == copied - {
            "self.memoization_enabled"
        }

    def test_execute_reads_nothing_the_guard_misses(self):
        function = ast.parse(
            textwrap.dedent(inspect.getsource(Driver._execute))
        )
        guarded = self._self_attributes(ast.parse(plain_tail_guard("self")))
        unguarded = self._self_attributes(function) - guarded - self.BOOKKEEPING
        assert not unguarded, (
            f"Driver._execute reads {sorted(unguarded)}: if it can observe "
            "an op, add it to plain_tail_guard"
        )

    def test_source_bumps_what_the_tail_bumps(self):
        def effects(tree: ast.AST) -> list:
            out = []
            for node in ast.walk(tree):
                if isinstance(node, ast.AugAssign):
                    out.append(f"{ast.unparse(node.target)} +=")
                elif isinstance(node, ast.Assign):
                    out.extend(ast.unparse(t) + " =" for t in node.targets)
                elif isinstance(node, ast.Call) and ast.unparse(
                    node.func
                ).endswith(".advance"):
                    out.append("advance")
            return sorted(
                line.replace("self.", "").replace("batch.", "")
                for line in out
                if not line.startswith(("pcie ", "result ", "c "))
            )

        tail = ast.Module(body=self._plain_branch().body, type_ignores=[])
        copy = ast.parse(
            plain_tail_source("self", "batch", "self.clock", "pass", "a", "b")
        )
        assert effects(tail) == effects(copy)
