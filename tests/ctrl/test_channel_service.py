"""Unit tests for the pipelined channel model and the control-plane
service: reservation math, in-flight window, strict-priority
arbitration, bounded queues with backpressure, and fairness stats."""

import sys

import pytest

from repro.ctrl import CtrlService, PipelinedChannel, PRIORITY_CLASSES
from repro.errors import BackpressureError, DriverError, SwitchError
from repro.runtime.scheduler import Scheduler
from repro.switch.asic import STANDARD_METADATA_P4
from repro.system import MantisSystem

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { a : 32; } }
header h_t h;
register scratch { width : 32; instance_count : 64; }
action set_a(v) { modify_field(h.a, v); }
action nop() { no_op(); }
table t {
    reads { h.a : exact; }
    actions { set_a; nop; }
    default_action : nop();
    size : 256;
}
control ingress { apply(t); }
"""


def make_stack(**service_kwargs):
    system = MantisSystem.from_source(PROGRAM)
    scheduler = Scheduler(system.clock)
    service = CtrlService(system.driver, **service_kwargs)
    service.attach_scheduler(scheduler)
    return system, scheduler, service


# ---- channel math ----------------------------------------------------------


def test_uncontended_reservation_prices_like_sync():
    channel = PipelinedChannel(window=4)
    sched = channel.reserve(10.0, 10.6, 0.5, 0.9)
    assert sched.excl_start_us == 10.6  # waits for prep
    assert sched.excl_end_us == pytest.approx(11.1)
    assert sched.done_us == pytest.approx(12.0)  # pcie after the window
    assert channel.device_free_us == pytest.approx(11.1)


def test_contended_reservations_stack_on_device_only():
    channel = PipelinedChannel(window=4)
    first = channel.reserve(0.0, 0.0, 2.0, 0.9)
    second = channel.reserve(0.0, 0.5, 2.0, 0.9)
    # Second op's prep finished long before the device freed: its
    # window opens exactly when the first closes, and PCIe return of
    # the first overlaps the second's device window.
    assert second.excl_start_us == first.excl_end_us == 2.0
    assert second.done_us == pytest.approx(4.9)
    assert channel.device_busy_us == pytest.approx(4.0)


def test_utilization_is_busy_over_elapsed():
    channel = PipelinedChannel()
    channel.reserve(0.0, 0.0, 3.0, 0.0)
    assert channel.utilization(6.0) == pytest.approx(0.5)
    assert channel.utilization(0.0) == 0.0


# ---- service wiring --------------------------------------------------------


def test_open_session_validates_priority_and_name():
    _, _, service = make_stack()
    service.open_session("a", priority="mantis")
    with pytest.raises(DriverError):
        service.open_session("a", priority="mantis")  # duplicate
    with pytest.raises(DriverError):
        service.open_session("b", priority="realtime")  # unknown class


def test_failed_apply_leaves_session_batch_pcie_owed():
    """Session-scoped twin of the plain driver's rule: an op that
    raises from ``apply`` is free, PCIe round trip included."""

    def batch_cost(lead_with_bad_op: bool) -> float:
        system = MantisSystem.from_source(PROGRAM, ctrl_service=True)
        driver = system.agent_session.driver
        start = system.clock.now
        with driver.batch():
            if lead_with_bad_op:
                with pytest.raises(SwitchError):
                    driver.add_entry("t", [1], "nonexistent_action", [1])
                assert system.clock.now == start
            driver.add_entry("t", [1], "set_a", [1])
            driver.add_entry("t", [2], "set_a", [2])
        return system.clock.now - start

    assert batch_cost(True) == batch_cost(False)


def test_submit_without_scheduler_is_an_error():
    system = MantisSystem.from_source(PROGRAM)
    service = CtrlService(system.driver)
    session = service.open_session("a")
    with pytest.raises(DriverError):
        session.submit_write_register("scratch", 0, 1)


def test_pipelined_submits_complete_with_correct_values():
    system, _, service = make_stack(window=4)
    session = service.open_session("writer", priority="mantis")
    tickets = [
        session.submit_write_register("scratch", i, 100 + i)
        for i in range(16)
    ]
    session.drain()
    assert all(t.done and t.error is None for t in tickets)
    register = system.asic.registers["scratch"]
    assert [register.read(i) for i in range(16)] == list(range(100, 116))
    # Completion times are strictly ordered and latencies positive.
    dones = [t.schedule.done_us for t in tickets]
    assert dones == sorted(dones)
    assert all(t.latency_us > 0 for t in tickets)
    assert system.driver.ops_issued == 16


def test_in_flight_window_bounds_admission():
    _, _, service = make_stack(window=2)
    session = service.open_session("writer", priority="mantis")
    for i in range(8):
        session.submit_write_register("scratch", i, i)
    # Only `window` ops admitted; the rest queue.
    assert service.in_flight == 2
    assert session.pending == 6
    session.drain()
    assert service.in_flight == 0
    assert session.pending == 0


def test_strict_priority_arbitration_orders_device_windows():
    _, _, service = make_stack(window=1)
    bulk = service.open_session("loader", priority="bulk")
    mantis = service.open_session("agent2", priority="mantis")
    legacy = service.open_session("legacy", priority="legacy")
    # Submit in worst-to-best order while the window is saturated by
    # the first bulk op; the queued ops must be admitted mantis >
    # legacy > bulk regardless of submit order.
    blocker = bulk.submit_write_register("scratch", 0, 1)
    t_bulk = bulk.submit_write_register("scratch", 1, 1)
    t_legacy = legacy.submit_write_register("scratch", 2, 1)
    t_mantis = mantis.submit_write_register("scratch", 3, 1)
    service.drain()
    assert blocker.schedule.excl_start_us < t_mantis.schedule.excl_start_us
    assert (
        t_mantis.schedule.excl_start_us
        < t_legacy.schedule.excl_start_us
        < t_bulk.schedule.excl_start_us
    )


def test_backpressure_bounds_the_queue_and_on_drain_fires():
    _, _, service = make_stack(window=1)
    session = service.open_session("loader", priority="bulk", queue_limit=4)
    drained = []
    session.on_drain = lambda: drained.append(service.clock.now)
    accepted = 0
    rejected = 0
    for i in range(12):
        try:
            session.submit_write_register("scratch", i % 64, i)
            accepted += 1
        except BackpressureError:
            rejected += 1
    assert rejected > 0
    # queue_limit bounds pending (one op is in flight, rest queued).
    assert session.pending <= 4
    assert service.class_stats["bulk"].rejected == rejected
    service.drain()
    assert drained, "on_drain must fire after a saturated queue empties"
    assert session.completed == accepted


def test_try_submit_returns_none_instead_of_raising():
    _, _, service = make_stack(window=1)
    session = service.open_session("loader", priority="bulk", queue_limit=1)
    assert session.try_submit_batch(
        [("write_register", "scratch", 0, 1)]
    ) is not None
    # Window holds op 1, queue holds op 2 -> the third is rejected.
    session.submit_write_register("scratch", 1, 1)
    assert session.try_submit_batch(
        [("write_register", "scratch", 2, 1)]
    ) is None
    service.drain()


def test_apply_error_fails_its_own_ticket_not_the_clock_advancer():
    """A device-side error inside a pipelined op's window (here: a bulk
    chunk with an out-of-range register index, and a modify of a dead
    entry id) belongs to that op's ticket.  It must not surface in
    whichever client is advancing the clock, leak the window slot, or
    stall the submitter's drain."""
    system, _, service = make_stack(window=2)
    loader = service.open_session("loader", priority="bulk")
    agent = service.open_session("agent2", priority="mantis")
    finished = []
    (bad,) = loader.submit_batch([
        ("write_register", "scratch", 0, 11),
        ("write_register", "scratch", 999, 1),
        ("write_register", "scratch", 1, 22),
    ], on_done=finished.append)
    dead = loader.submit_modify("t", 12345, None, [1], on_done=finished.append)
    good = agent.submit_write_register("scratch", 5, 55)
    agent.drain()  # parent: SwitchError from the loader's op raised here
    assert good.done and good.error is None
    loader.drain()  # parent: "drain stalled"
    assert finished == [bad, dead]
    for ticket in (bad, dead):
        assert ticket.done and ticket.result is None
        assert isinstance(ticket.error, SwitchError)
    assert "999" in str(bad.error)
    assert service.in_flight == 0 and loader.in_flight == 0
    assert service.class_stats["bulk"].failed == 2
    assert service.class_stats["bulk"].completed == 0
    assert system.driver.errors_total == 2
    assert system.driver.last_error == str(dead.error)
    # Ops before the failing one landed, the ones after did not --
    # what blocking write_batch leaves -- and nothing was counted.
    register = system.asic.registers["scratch"]
    assert [register.read(i) for i in (0, 1, 5)] == [11, 0, 55]
    assert system.driver.ops_issued == 1
    assert system.driver.bulk_txns == 0
    # The window the failed chunk reserved was consumed, and the
    # channel keeps working afterwards.
    assert bad.schedule.excl_end_us <= dead.schedule.excl_start_us
    assert loader.submit_batch(
        [("write_register", "scratch", 1, 22)]
    )[0].error is None
    loader.drain()
    assert register.read(1) == 22


def _python_calls(fn):
    """Names of the Python functions ``fn()`` enters (``call`` events
    under ``sys.setprofile``; C functions are ``c_call`` and not
    counted)."""
    names = []

    def profiler(frame, event, _arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return names


def test_bulk_chunk_is_planned_not_interpreted_per_op():
    """Structural tripwire (no timing): one 64-op single-register chunk
    costs a fixed handful of Python calls from submit to completion --
    not a closure, a lookup and a bounds-check frame per op (296 calls
    before the plan, 42 with it)."""
    _, _, service = make_stack(window=4, bulk_chunk=64)
    session = service.open_session("loader", priority="bulk")
    ops = [("write_register", "scratch", i % 64, i) for i in range(64)]

    def one_chunk():
        session.submit_batch(ops)
        session.drain()

    one_chunk()  # warm: first-use paths are not the steady state
    calls = _python_calls(one_chunk)
    assert len(calls) <= 50, sorted(calls)
    assert calls.count("get_register") == 1
    assert calls.count("write_run") == 1


def test_refused_chunk_is_not_planned():
    """Admission comes before planning: a chunk refused on a full
    queue resolves nothing."""
    _, _, service = make_stack(window=1)
    session = service.open_session("loader", priority="bulk", queue_limit=1)
    ops = [("write_register", "scratch", i, i) for i in range(8)]
    session.submit_batch(ops)  # in the window
    session.submit_batch(ops)  # fills the queue
    refused = []
    calls = _python_calls(
        lambda: refused.append(session.try_submit_batch(ops))
    )
    assert refused == [None]
    assert service.class_stats["bulk"].rejected == 1
    assert "get_register" not in calls and "get_table" not in calls
    assert "__init__" not in calls  # no plan, no ticket
    service.drain()


def test_bulk_chunking_prices_one_txn_per_chunk():
    system, _, service = make_stack(window=4, bulk_chunk=8)
    session = service.open_session("loader", priority="bulk")
    ops = [("write_register", "scratch", i % 64, i) for i in range(20)]
    tickets = session.submit_batch(ops)
    assert len(tickets) == 3  # 8 + 8 + 4
    assert [t.op_count for t in tickets] == [8, 8, 4]
    session.drain()
    assert system.driver.ops_issued == 20
    assert system.driver.bulk_txns == 3
    model = system.driver.model
    for ticket in tickets:
        expected = model.bulk_write_cost(0, ticket.op_count)
        width = ticket.schedule.excl_end_us - ticket.schedule.excl_start_us
        assert width == pytest.approx(expected)


def test_fairness_stats_account_all_classes():
    _, _, service = make_stack(window=2)
    fast = service.open_session("fast", priority="mantis")
    slow = service.open_session("slow", priority="bulk")
    for i in range(6):
        fast.submit_write_register("scratch", i, i)
        slow.submit_write_register("scratch", 32 + i, i)
    service.drain()
    stats = service.stats()
    assert stats["classes"]["mantis"]["completed"] == 6
    assert stats["classes"]["bulk"]["completed"] == 6
    # Low-priority ops wait at least as long on average.
    assert (
        stats["classes"]["bulk"]["mean_wait_us"]
        >= stats["classes"]["mantis"]["mean_wait_us"]
    )
    assert stats["channel"]["reservations"] == 12
    assert 0.0 < stats["channel"]["utilization"] <= 1.0
    assert stats["sessions"]["fast"]["p99_latency_us"] >= \
        stats["sessions"]["fast"]["p50_latency_us"]


def test_priority_classes_are_the_documented_three():
    assert PRIORITY_CLASSES == {"mantis": 0, "legacy": 1, "bulk": 2}


def _session_ops():
    """``Driver`` methods taking a ``session`` parameter: device ops
    that must reserve the session's channel."""
    import inspect

    from repro.switch.driver import Driver

    return sorted(
        name for name, fn in vars(Driver).items()
        if callable(fn) and "session" in inspect.signature(fn).parameters
    )


def test_every_session_op_is_wrapped_or_refused():
    from repro.ctrl.service import SessionDriver

    _system, _scheduler, service = make_stack()
    facade = service.open_session("client").driver
    wrapped = [name for name in _session_ops() if name in vars(SessionDriver)]
    # The eleven public device ops keep hand-written wrappers (the bench
    # tracer patches them by name); anything else must not fall through.
    assert len(wrapped) == 11 and "write_batch" in wrapped
    for name in _session_ops():
        if name not in wrapped:
            with pytest.raises(AttributeError):
                getattr(facade, name)
    assert facade.errors_total == 0  # plain attributes still fall through


def test_new_driver_op_without_wrapper_raises(monkeypatch):
    from repro.switch.driver import Driver

    _system, _scheduler, service = make_stack()
    facade = service.open_session("client").driver

    def new_op(self, name, channel="mantis", session=None):
        return self._execute("register_read", name, 0.0, None, channel,
                             session=session)

    def helper(self, name):
        return name

    monkeypatch.setattr(Driver, "new_op", new_op, raising=False)
    monkeypatch.setattr(Driver, "helper", helper, raising=False)
    assert "new_op" in _session_ops()
    with pytest.raises(AttributeError, match="new_op"):
        facade.new_op
    assert facade.helper("x") == "x"  # no session: forwarded
