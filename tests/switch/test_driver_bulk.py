"""Driver bulk transactions (``write_batch``), the plan behind them
(differentially against per-op execution, blocking and pipelined), and
the bounded timeline ring (``timeline_limit``)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctrl import CtrlService
from repro.errors import DriverError, SwitchError, TransientDriverError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.p4.parser import parse_p4
from repro.runtime.scheduler import Scheduler
from repro.switch.asic import STANDARD_METADATA_P4, SwitchAsic
from repro.switch.driver import Driver, RetryPolicy

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;

register wide { width : 32; instance_count : 64; }
register narrow { width : 8; instance_count : 16; }

action set_f(v) { modify_field(hdr.f, v); }
action nop() { no_op(); }

table t1 {
    reads { hdr.f : exact; }
    actions { set_f; nop; }
    default_action : nop();
    size : 256;
}
control ingress { apply(t1); }
"""


def make_driver(**kwargs):
    asic = SwitchAsic(parse_p4(PROGRAM))
    return Driver(asic, record_timeline=True, **kwargs)


class TestWriteBatch:
    def test_heterogeneous_batch_applies_in_order(self):
        driver = make_driver()
        results = driver.write_batch([
            ("add", "t1", [1], "set_f", [10]),
            ("add", "t1", [2], "set_f", [20]),
            ("write_register", "wide", 3, 33),
            ("set_default", "t1", "set_f", [7]),
        ])
        entry_id_1, entry_id_2 = results[0], results[1]
        table = driver.asic.get_table("t1")
        assert tuple(table.entries[entry_id_1].key) == (1,)
        assert tuple(table.entries[entry_id_2].key) == (2,)
        assert driver.asic.registers["wide"].read(3) == 33
        assert table.default_action == ("set_f", [7])
        # Deletes and modifies round-trip through the same verb table.
        driver.write_batch([
            ("modify", "t1", entry_id_1, None, [11]),
            ("delete", "t1", entry_id_2),
        ])
        assert table.entries[entry_id_1].action_args == [11]
        assert entry_id_2 not in table.entries

    def test_one_transaction_one_timeline_slot_n_ops(self):
        driver = make_driver()
        ops = [("write_register", "wide", i, i) for i in range(32)]
        driver.write_batch(ops)
        assert driver.ops_issued == 32
        assert driver.bulk_txns == 1
        assert len(driver.timeline) == 1
        record = driver.timeline[0]
        assert record.kind == "bulk_write"
        assert record.ops == 32
        model = driver.model
        width = record.excl_end_us - record.excl_start_us
        assert width == pytest.approx(model.bulk_write_cost(0, 32))

    def test_bulk_is_cheaper_than_per_op_beyond_small_batches(self):
        driver_bulk = make_driver()
        driver_solo = make_driver()
        ops = [("write_register", "wide", i % 64, i) for i in range(64)]
        driver_bulk.write_batch(ops)
        for op in ops:
            driver_solo.write_register(op[1], op[2], op[3])
        assert driver_bulk.clock.now < driver_solo.clock.now
        assert driver_bulk.ops_issued == driver_solo.ops_issued == 64

    def test_bulk_cost_model_components(self):
        model = make_driver().model
        assert model.bulk_write_cost(0, 0) == pytest.approx(
            model.bulk_setup_us
        )
        assert model.bulk_write_cost(10, 4) == pytest.approx(
            model.bulk_setup_us
            + 10 * model.bulk_table_entry_us
            + 4 * model.bulk_register_entry_us
        )

    def test_empty_batch_is_a_no_op(self):
        driver = make_driver()
        before = driver.clock.now
        assert driver.write_batch([]) == []
        assert driver.clock.now == before
        assert driver.bulk_txns == 0

    def test_unknown_verb_rejected_before_any_mutation(self):
        driver = make_driver()
        with pytest.raises(DriverError):
            driver.write_batch([
                ("add", "t1", [1], "set_f", [10]),
                ("upsert", "t1", [2], "set_f", [20]),
            ])
        assert len(driver.asic.get_table("t1").entries) == 0
        assert driver.ops_issued == 0


# ---- the plan, differentially --------------------------------------------
#
# Reference: the same op tuples issued one by one through the per-op
# Driver methods.  A bulk transaction must leave the registers, the
# table and the per-op results exactly as that leaves them; the only
# things it may change are the price and *when* an error surfaces:
#
# - verb / arity / unknown-target errors are found while planning, so
#   the transaction containing one mutates nothing and charges nothing;
# - device-side errors (register index out of range, dead entry id,
#   undeclared action) are found at op k while applying: ops < k of
#   that transaction stay landed, the transaction is not counted.

REGISTER_SIZES = {"wide": 64, "narrow": 16}
PRELOADED = 4
DEAD_ENTRY = 9999
ARITIES = {
    "add": (5, 6), "modify": (5,), "delete": (3,), "set_default": (4,),
    "write_register": (4,),
}


_value = st.integers(0, 2 ** 40)
_args = st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=1)
# Entry ids are slots into the preloaded entries (None: a dead id)
# until `materialize`.
_slot = st.integers(0, PRELOADED - 1)
_key = st.tuples(st.integers(0, 7))
_run = st.tuples(
    st.sampled_from(sorted(REGISTER_SIZES)),
    st.lists(st.tuples(st.integers(0, 15), _value), min_size=1, max_size=6),
).map(lambda run: [("write_register", run[0], i, v) for i, v in run[1]])
_table_op = st.one_of(
    st.tuples(st.just("add"), st.just("t1"), _key, st.just("set_f"), _args),
    st.tuples(st.just("add"), st.just("t1"), _key, st.just("set_f"), _args,
              st.integers(0, 3)),
    st.tuples(st.just("modify"), st.just("t1"), _slot,
              st.sampled_from([None, "set_f", "nop"]),
              st.one_of(st.none(), _args)),
    st.tuples(st.just("delete"), st.just("t1"), _slot),
    st.tuples(st.just("set_default"), st.just("t1"), st.just("set_f"), _args),
).map(lambda op: [op])
# Valid op lists (a slot deleted twice is the one error they can hold)...
_valid_ops = st.lists(
    st.one_of(_run, _table_op), min_size=1, max_size=8,
).map(lambda groups: [op for group in groups for op in group])
# ...into which at most one bad op is spliced at some position k.
_bad_op = st.sampled_from([
    ("write_register", "wide", 64, 1),            # device-side, at apply
    ("write_register", "narrow", 16, 1),
    ("write_register", "narrow", -1, 1),
    ("modify", "t1", None, "set_f", [1]),
    ("delete", "t1", None),
    ("add", "t1", (1,), "bogus_action", [1]),
    ("set_default", "t1", "bogus_action", [1]),
    ("upsert", "t1", (1,), "set_f", [1]),         # unknown verb
    ("delete", "t1"),                             # wrong arity
    ("write_register", "wide", 1),
    ("modify", "t1", 0, "set_f", [1], 0),
    ("add", "t1", (1,), "set_f"),
    ("write_register", "nope", 0, 1),             # unknown target
    ("set_default", "nope", "set_f", [1]),
])


def _splice(drawn):
    ops, bad, where = drawn
    if bad is None:
        return ops
    k = where % (len(ops) + 1)
    return ops[:k] + [bad] + ops[k:]


_op_lists = st.tuples(
    _valid_ops, st.one_of(st.none(), _bad_op), st.integers(0, 64),
).map(_splice)

PARSED = parse_p4(PROGRAM)


def fresh_driver():
    driver = Driver(SwitchAsic(PARSED))
    ids = [
        driver.add_entry("t1", [100 + i], "set_f", [i])
        for i in range(PRELOADED)
    ]
    return driver, ids


def materialize(ops, ids):
    """Turn entry slots into the preloaded entries' ids."""
    return [
        op[:2] + (DEAD_ENTRY if op[2] is None else ids[op[2]],) + op[3:]
        if op[0] in ("modify", "delete") and len(op) > 2 else op
        for op in ops
    ]


def plan_error(op):
    """The exception type planning raises for ``op`` (None if it
    plans): verb first, then arity, then the target."""
    verb = op[0]
    if verb not in ARITIES:
        return DriverError
    if len(op) not in ARITIES[verb]:
        return ValueError
    known = REGISTER_SIZES if verb == "write_register" else ("t1",)
    return None if op[1] in known else SwitchError


def issue(driver, op):
    verb = op[0]
    if verb == "add":
        return driver.add_entry(*op[1:])
    if verb == "modify":
        return driver.modify_entry(*op[1:])
    if verb == "delete":
        return driver.delete_entry(*op[1:])
    if verb == "set_default":
        return driver.set_default(*op[1:])
    return driver.write_register(*op[1:])


def reference(ops, chunk_size):
    """Issue ``ops`` one by one, transaction by transaction.  Returns
    the driver, one outcome per transaction reached (its per-op results,
    or the type of the device-side error that cut it short) and the
    type of the planning error that stopped submission, if any."""
    driver, _ = fresh_driver()
    outcomes = []
    for base in range(0, len(ops), chunk_size):
        chunk = ops[base:base + chunk_size]
        refused = next(filter(None, map(plan_error, chunk)), None)
        if refused is not None:
            return driver, outcomes, refused
        results = []
        try:
            for op in chunk:
                results.append(issue(driver, op))
        except SwitchError as error:
            outcomes.append(type(error))
        else:
            outcomes.append(results)
    return driver, outcomes, None


def device_state(driver):
    asic = driver.asic
    table = asic.get_table("t1")
    return (
        {name: list(asic.get_register(name).values)
         for name in REGISTER_SIZES},
        {entry_id: (tuple(entry.key), entry.action_name,
                    list(entry.action_args), entry.priority)
         for entry_id, entry in table.entries.items()},
        table.default_action,
    )


def landed(outcomes):
    """``(ops, transactions)`` the bulk paths must count: whole
    transactions only."""
    good = [outcome for outcome in outcomes if isinstance(outcome, list)]
    return sum(map(len, good)), len(good)


def pipelined(driver, **service_kwargs):
    """A bulk-class session on a service fronting ``driver``."""
    service = CtrlService(driver, **service_kwargs)
    service.attach_scheduler(Scheduler(driver.clock))
    return service.open_session("loader", priority="bulk")


class TestBulkPlanDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_op_lists)
    def test_blocking_write_batch_matches_per_op(self, templates):
        driver, ids = fresh_driver()
        ops = materialize(templates, ids)
        expected, outcomes, refused = reference(ops, len(ops))
        (outcome,) = outcomes or [refused]
        before = (driver.clock.now, driver.ops_issued, driver.timeline_total)
        if isinstance(outcome, list):
            assert driver.write_batch(ops) == outcome
            assert driver.ops_issued == expected.ops_issued
            assert driver.bulk_txns == 1
            assert driver.timeline_total == before[2] + 1
            assert driver.clock.now > before[0]
        else:
            with pytest.raises(SwitchError if refused is None
                               else (SwitchError, ValueError)) as raised:
                driver.write_batch(ops)
            assert type(raised.value) is outcome
            # Uncharged and uncounted, whichever moment it came at.
            assert (driver.clock.now, driver.ops_issued,
                    driver.timeline_total) == before
            assert driver.bulk_txns == 0
        # Planning errors: `expected` is untouched.  Device-side error
        # at op k: `expected` holds ops < k.
        assert device_state(driver) == device_state(expected)

    @settings(max_examples=150, deadline=None)
    @given(_op_lists, st.sampled_from([3, 8]))
    def test_pipelined_submit_batch_matches_per_op(self, templates, chunk):
        driver, ids = fresh_driver()
        ops = materialize(templates, ids)
        expected, outcomes, refused = reference(ops, chunk)
        session = pipelined(driver, bulk_chunk=chunk)
        service = session.service
        finished = []
        if refused is None:
            tickets = session.submit_batch(ops, on_done=finished.append)
            assert len(tickets) == len(outcomes)
        else:
            with pytest.raises((SwitchError, ValueError)) as raised:
                session.submit_batch(ops, on_done=finished.append)
            assert type(raised.value) is refused
        # Nothing lands at submit, not even for the chunks accepted
        # before a refused one.
        assert device_state(driver) == device_state(fresh_driver()[0])
        session.drain()
        assert len(finished) == len(outcomes)
        for ticket, outcome in zip(finished, outcomes):
            assert ticket.done
            if isinstance(outcome, list):
                assert ticket.error is None and ticket.result == outcome
            else:
                assert type(ticket.error) is outcome
                assert ticket.result is None
        assert device_state(driver) == device_state(expected)
        ops_landed, txns = landed(outcomes)
        assert driver.ops_issued == PRELOADED + ops_landed
        assert driver.bulk_txns == txns
        if txns == len(outcomes) and refused is None:
            assert driver.ops_issued == expected.ops_issued
        assert service.in_flight == 0
        assert service.class_stats["bulk"].failed == len(outcomes) - txns


MIXED_RUNS = [
    ("write_register", "wide", 1, 11),
    ("write_register", "wide", 2, 22),
    ("write_register", "narrow", 1, 0x1FF),
    ("add", "t1", [9], "set_f", [9]),
    ("write_register", "wide", 1, 33),
]


class TestBulkPlanUnderFaults:
    def transient_once(self, driver):
        return FaultInjector(FaultPlan(seed=3, specs=[
            FaultSpec(kind="transient", max_triggers=1,
                      op_kinds=frozenset({"bulk_write"})),
        ])).attach(driver)

    def test_transient_rejects_the_transaction_before_any_run_lands(self):
        driver, _ = fresh_driver()
        untouched = device_state(driver)
        self.transient_once(driver)
        with pytest.raises(TransientDriverError):
            driver.write_batch(MIXED_RUNS)
        assert device_state(driver) == untouched
        assert driver.ops_issued == PRELOADED and driver.bulk_txns == 0
        # The fault is spent: the same batch now lands whole.
        driver.write_batch(MIXED_RUNS)
        assert driver.asic.get_register("wide").read_range(1, 2) == [33, 22]
        assert driver.asic.get_register("narrow").read(1) == 0xFF

    def test_pipelined_transient_retries_and_lands_exactly_once(self):
        driver, _ = fresh_driver()
        driver.retry_policy = RetryPolicy()
        injector = self.transient_once(driver)
        session = pipelined(driver)
        (ticket,) = session.submit_batch(MIXED_RUNS)
        session.drain()
        assert injector.triggered == 1 and ticket.attempts == 2
        assert ticket.error is None and len(ticket.result) == len(MIXED_RUNS)
        assert len(driver.asic.get_table("t1").entries) == PRELOADED + 1
        assert driver.bulk_txns == 1

    def test_drop_spec_never_matches_a_bulk_write(self):
        driver, _ = fresh_driver()
        injector = FaultInjector(
            FaultPlan(seed=3, specs=[FaultSpec(kind="drop")])
        ).attach(driver)
        driver.write_batch(MIXED_RUNS)
        assert injector.triggered == 0
        assert driver.asic.get_register("wide").read(1) == 33

    @pytest.mark.parametrize("path", ["blocking", "pipelined"])
    def test_dropped_transaction_pays_its_window_and_lands_nothing(
        self, path
    ):
        """The drop branch itself (an injector that forces it): the
        plan is never applied, the window is consumed, success is
        reported."""
        driver, _ = fresh_driver()
        untouched = device_state(driver)
        driver.fault_injector = SimpleNamespace(
            intercept=lambda *_: SimpleNamespace(kind="drop", extra_us=0.0)
        )
        start = driver.clock.now
        if path == "blocking":
            assert driver.write_batch(MIXED_RUNS) is None
        else:
            session = pipelined(driver)
            (ticket,) = session.submit_batch(MIXED_RUNS)
            session.drain()
            assert ticket.done and ticket.error is None
            assert ticket.result is None
            assert ticket.schedule.excl_end_us > ticket.schedule.excl_start_us
        assert device_state(driver) == untouched
        assert driver.clock.now > start
        assert driver.ops_issued == PRELOADED + len(MIXED_RUNS)
        assert driver.bulk_txns == 1


class TestTimelineRing:
    def test_ring_bounds_memory_and_counts_total(self):
        driver = make_driver(timeline_limit=16)
        for i in range(100):
            driver.write_register("wide", i % 64, i)
        assert len(driver.timeline) == 16
        assert driver.timeline_total == 100
        # The ring keeps the newest records.
        targets = [op.start_us for op in driver.timeline]
        assert targets == sorted(targets)
        assert driver.timeline[-1].end_us == driver.clock.now

    def test_unlimited_timeline_still_counts_total(self):
        driver = make_driver()
        for i in range(10):
            driver.write_register("wide", i, i)
        assert len(driver.timeline) == 10
        assert driver.timeline_total == 10

    def test_invalid_limit_rejected(self):
        with pytest.raises(DriverError):
            make_driver(timeline_limit=0)
        with pytest.raises(DriverError):
            make_driver(timeline_limit=-5)

    def test_fig12_analysis_unaffected_by_generous_ring(self):
        """A ring larger than the op count records exactly what the
        unbounded timeline records."""
        bounded = make_driver(timeline_limit=1000)
        unbounded = make_driver()
        for driver in (bounded, unbounded):
            for i in range(50):
                driver.write_register("wide", i % 64, i, channel="mantis")
        as_tuples = lambda d: [
            (op.start_us, op.end_us, op.kind, op.target, op.channel)
            for op in d.timeline
        ]
        assert as_tuples(bounded) == as_tuples(unbounded)
