"""Event-driven multi-client control-plane service.

One :class:`CtrlService` fronts one :class:`~repro.switch.driver.Driver`
and arbitrates any number of client *sessions* over the simulated PCIe
channel:

- **blocking ops** (``session.driver.modify_entry(...)``) run inline on
  the caller's (simulated) thread through the unchanged
  ``Driver._execute`` path, but reserve their device-exclusive window
  on the shared channel -- so two clients' blocking ops serialize on
  the device exactly as Section 6 describes, while each keeps its own
  software-prep pipeline.  Uncontended, timing is bit-identical to the
  bare synchronous driver.
- **pipelined ops** (``session.submit_modify(...)``) return an
  :class:`OpTicket` immediately; up to ``window`` requests are in
  flight at once, software prep runs ahead on the session's CPU, and
  the completion callback fires at the op's simulated completion time
  through the fabric :class:`~repro.runtime.scheduler.Scheduler`.
- **bulk streams** (``session.submit_batch(...)``) chunk a large
  heterogeneous write list into DMA-burst transactions
  (:meth:`Driver.write_batch` pricing), so priority traffic can slip
  between chunks.

Arbitration is strict priority by class (``mantis`` > ``legacy`` >
``bulk``), FIFO within a class.  Each session's submit queue is
bounded; a full queue raises
:class:`~repro.errors.BackpressureError` (or returns ``None`` from
``try_submit_*``), and ``on_drain`` fires once the queue drains to
half.  Fault admission, retry/backoff, and error accounting run
through the same driver hooks as the synchronous path, so an injected
transient failure is retried without ever double-applying a mutation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    BackpressureError,
    DriverError,
    DriverTimeoutError,
    SwitchError,
    TransientDriverError,
)
from repro.switch.driver import (
    BatchState,
    BulkPlan,
    Driver,
    MemoHandle,
    OpRecord,
    BatchScope,
)

from repro.ctrl.channel import ChannelSchedule, PipelinedChannel

#: Arbitration classes, lowest rank wins the next device window.
PRIORITY_CLASSES: Dict[str, int] = {"mantis": 0, "legacy": 1, "bulk": 2}

DEFAULT_QUEUE_LIMIT = 256
DEFAULT_BULK_CHUNK = 512


@dataclass
class OpTicket:
    """Handle for one pipelined (or bulk-chunk) operation.

    ``done`` flips at the op's simulated completion time; ``result``
    or ``error`` is populated then, and ``on_done(ticket)`` fires if
    registered at submit."""

    seq: int
    kind: str
    target: str
    channel: str
    session: str
    submit_us: float
    op_count: int = 1
    done: bool = False
    result: object = None
    error: Optional[Exception] = None
    schedule: Optional[ChannelSchedule] = None
    attempts: int = 0

    @property
    def latency_us(self) -> float:
        if self.schedule is None:
            return 0.0
        return self.schedule.done_us - self.submit_us


class _PendingOp:
    """Service-internal state for one submitted op."""

    __slots__ = (
        "ticket", "apply", "device_us", "pcie_us", "prep_us",
        "prep_end_us", "deadline_us", "on_done", "session",
        "fault_target",
    )

    def __init__(self, ticket, apply, device_us, pcie_us, prep_us,
                 prep_end_us, deadline_us, on_done, session,
                 fault_target):
        self.ticket = ticket
        self.fault_target = fault_target
        self.apply = apply
        self.device_us = device_us
        self.pcie_us = pcie_us
        self.prep_us = prep_us
        self.prep_end_us = prep_end_us
        self.deadline_us = deadline_us
        self.on_done = on_done
        self.session = session


@dataclass
class _ClassStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    rejected: int = 0
    wait_us: float = 0.0
    latency_us: float = 0.0
    max_latency_us: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        completed = max(1, self.completed)
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "rejected": self.rejected,
            "mean_wait_us": self.wait_us / completed,
            "mean_latency_us": self.latency_us / completed,
            "max_latency_us": self.max_latency_us,
        }


class CtrlService:
    """Arbitrated, pipelined access to one switch's driver."""

    def __init__(
        self,
        driver: Driver,
        scheduler=None,
        window: int = 8,
        bulk_chunk: int = DEFAULT_BULK_CHUNK,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ):
        self.driver = driver
        self.clock = driver.clock
        self.scheduler = scheduler
        self.channel = PipelinedChannel(window)
        self.bulk_chunk = bulk_chunk
        self.queue_limit = queue_limit
        self.sessions: Dict[str, "CtrlSession"] = {}
        self.in_flight = 0
        self._seq = 0
        # One FIFO per priority class, scanned in rank order.
        self._queues: List[deque] = [
            deque() for _ in range(len(PRIORITY_CLASSES))
        ]
        self.class_stats: Dict[str, _ClassStats] = {
            name: _ClassStats() for name in PRIORITY_CLASSES
        }

    # ---- wiring ------------------------------------------------------------

    def attach_scheduler(self, scheduler) -> "CtrlService":
        """Attach the fabric scheduler (required for pipelined ops)."""
        self.scheduler = scheduler
        return self

    def open_session(
        self,
        name: str,
        priority: str = "mantis",
        channel: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ) -> "CtrlSession":
        """Register a client session in one arbitration class."""
        if priority not in PRIORITY_CLASSES:
            raise DriverError(
                f"unknown priority class {priority!r} "
                f"(choose from {sorted(PRIORITY_CLASSES)})"
            )
        if name in self.sessions:
            raise DriverError(f"session {name!r} already open")
        session = CtrlSession(
            self, name, priority,
            channel or name,
            self.queue_limit if queue_limit is None else queue_limit,
        )
        self.sessions[name] = session
        return session

    # ---- submission --------------------------------------------------------

    def _admit(self, session: "CtrlSession") -> None:
        """Refuse a submit the session's bounded queue cannot take."""
        if self.scheduler is None:
            raise DriverError(
                "pipelined submit needs a scheduler: call "
                "CtrlService.attach_scheduler(...) first"
            )
        if session.pending >= session.queue_limit:
            session._saturated = True
            session.class_stats.rejected += 1
            raise BackpressureError(
                f"session {session.name!r} queue full "
                f"({session.queue_limit} pending)"
            )

    def _submit(self, session: "CtrlSession", kind: str, target: str,
                fault_target: str, device_us: float, prep_us: float,
                apply: Callable[[], object], op_count: int,
                on_done) -> OpTicket:
        self._admit(session)
        now = self.clock.now
        self._seq += 1
        ticket = OpTicket(
            seq=self._seq, kind=kind, target=target,
            channel=session.channel, session=session.name,
            submit_us=now, op_count=op_count,
        )
        # Software prep runs on the session CPU starting now; it may
        # queue behind this session's earlier preps and run ahead of
        # device admission -- that overlap is the pipelining win.
        prep_start = max(now, session.cpu_free_us)
        prep_end = prep_start + prep_us
        session.cpu_free_us = prep_end
        policy = self.driver.retry_policy
        deadline = None
        if policy is not None and policy.deadline_us is not None:
            deadline = now + policy.deadline_us
        op = _PendingOp(
            ticket, apply, device_us, self.driver.model.pcie_rtt_us,
            prep_us, prep_end, deadline, on_done, session, fault_target,
        )
        session.pending += 1
        session.class_stats.submitted += 1
        session.queue.append(op)
        self._pump()
        return ticket

    # ---- admission / device lifecycle --------------------------------------

    def _pump(self) -> None:
        """Admit queued ops into the in-flight window, best priority
        first, FIFO within a class."""
        while self.in_flight < self.channel.window:
            op = None
            for queue in self._queues:
                if queue:
                    op = queue.popleft()
                    break
            if op is None:
                return
            now = self.clock.now
            sched = self.channel.reserve(
                now, op.prep_end_us, op.device_us, op.pcie_us
            )
            op.ticket.schedule = sched
            op.session.pending -= 1
            op.session.in_flight += 1
            self.in_flight += 1
            self.scheduler.at(
                sched.excl_start_us, lambda _t, op=op: self._apply(op)
            )

    def _apply(self, op: _PendingOp) -> None:
        """Fires at the op's device-window start: fault admission,
        then the ASIC mutation, then completion scheduling."""
        driver = self.driver
        ticket = op.ticket
        ticket.attempts += 1
        fault_target = op.fault_target
        fault = driver.admit_fault(ticket.kind, fault_target, ticket.channel)
        sched = ticket.schedule
        if fault is not None and fault.kind == "transient":
            message = (
                f"injected transient failure on {ticket.kind} "
                f"{fault_target!r}"
            )
            driver.note_error(ticket.kind, message)
            self.scheduler.at(
                sched.done_us,
                lambda _t, op=op, m=message: self._retry_or_fail(op, m),
            )
            return
        result = None
        if fault is not None and fault.kind == "drop":
            pass  # silently lost write: window consumed, nothing lands
        else:
            try:
                result = op.apply()
            except SwitchError as error:  # DriverError included
                # The device refused the op (bad register index, dead
                # entry id, full table): its window is spent, and the
                # failure belongs to this ticket -- not to whichever
                # client happens to be advancing the clock.  What a
                # bulk chunk landed before the bad op stays landed.
                driver.note_error(ticket.kind, str(error))
                self.scheduler.at(
                    sched.done_us,
                    lambda _t, op=op, e=error: self._fail(op, e),
                )
                return
        extra = (
            fault.extra_us
            if fault is not None and fault.kind == "latency"
            else 0.0
        )
        if fault is not None and fault.kind == "corrupt":
            result = fault.corrupt(result)
        # Latency faults on the pipelined path stretch the observed
        # completion, not the already-reserved device window.
        done_us = sched.done_us + extra
        record = None
        if driver.record_timeline:
            record = OpRecord(
                ticket.submit_us, done_us, ticket.kind, ticket.target,
                ticket.channel,
                excl_start_us=sched.excl_start_us,
                excl_end_us=sched.excl_end_us,
                ops=ticket.op_count,
            )
        driver.complete_op(
            ticket.kind, fault_target, ticket.channel, record,
            op_count=ticket.op_count,
        )
        if ticket.kind == "bulk_write":
            driver.bulk_txns += 1
        self.scheduler.at(
            done_us,
            lambda _t, op=op, r=result, d=done_us: self._complete(op, r, d),
        )

    def _retry_or_fail(self, op: _PendingOp, message: str) -> None:
        """Fires when a failed attempt's channel slot frees: either
        rearm the op after backoff or surface a terminal error."""
        driver = self.driver
        ticket = op.ticket
        policy = driver.retry_policy
        error: Exception = TransientDriverError(message)
        if policy is not None and ticket.attempts < policy.max_attempts:
            backoff = min(
                policy.backoff_base_us
                * policy.backoff_multiplier ** (ticket.attempts - 1),
                policy.backoff_max_us,
            )
            retry_at = self.clock.now + backoff
            if op.deadline_us is None or retry_at <= op.deadline_us:
                self._release(op)
                driver.note_retry(ticket.kind)
                op.session.class_stats.retried += 1
                op.session.pending += 1
                self.scheduler.at(
                    retry_at, lambda _t, op=op: self._rearm(op)
                )
                self._pump()
                return
            driver.note_timeout()
            error = DriverTimeoutError(
                f"{ticket.kind} {ticket.target!r} exceeded its "
                f"{policy.deadline_us} us deadline"
            )
        elif policy is not None:
            driver.note_timeout()
            error = DriverTimeoutError(
                f"{ticket.kind} {ticket.target!r} failed after "
                f"{ticket.attempts} attempts"
            )
        self._fail(op, error)

    def _fail(self, op: _PendingOp, error: Exception) -> None:
        """Terminal failure, at the instant the op's channel slot
        frees."""
        ticket = op.ticket
        self._release(op)
        ticket.done = True
        ticket.error = error
        op.session.class_stats.failed += 1
        if op.on_done is not None:
            op.on_done(ticket)
        op.session._maybe_notify_drain()
        self._pump()

    def _rearm(self, op: _PendingOp) -> None:
        """Re-queue a retried op at the head of its class (it is the
        oldest submission in that class by construction)."""
        op.prep_end_us = self.clock.now  # prep buffer already built
        op.session.queue.appendleft(op)
        self._pump()

    def _complete(self, op: _PendingOp, result, done_us: float) -> None:
        ticket = op.ticket
        self._release(op)
        ticket.done = True
        ticket.result = result
        stats = op.session.class_stats
        stats.completed += 1
        latency = done_us - ticket.submit_us
        stats.latency_us += latency
        stats.wait_us += ticket.schedule.excl_start_us - ticket.submit_us
        if latency > stats.max_latency_us:
            stats.max_latency_us = latency
        op.session.completed += 1
        op.session.latencies_us.append(latency)
        if op.on_done is not None:
            op.on_done(ticket)
        op.session._maybe_notify_drain()
        self._pump()

    def _release(self, op: _PendingOp) -> None:
        self.in_flight -= 1
        op.session.in_flight -= 1

    # ---- drain -------------------------------------------------------------

    def outstanding(self, session: Optional["CtrlSession"] = None) -> int:
        if session is not None:
            return session.pending + session.in_flight
        return self.in_flight + sum(len(q) for q in self._queues) + sum(
            s.pending - self._queued_of(s) for s in self.sessions.values()
        )

    def _queued_of(self, session: "CtrlSession") -> int:
        return sum(
            1 for q in self._queues for op in q if op.session is session
        )

    def drain(self, session: Optional["CtrlSession"] = None) -> None:
        """Advance simulated time until every outstanding op of
        ``session`` (or all sessions) has completed or failed.

        Must be called from client context, never from inside an event
        callback."""
        if self.scheduler is None:
            return
        self._pump()
        clock, events = self.clock, self.scheduler.events
        while self.outstanding(session) > 0:
            next_time = events.peek_time()
            if next_time is None:
                raise DriverError(
                    "control-plane drain stalled: outstanding ops but "
                    "no pending events"
                )
            if next_time > clock.now:
                clock.advance_to(next_time)
            else:
                events.drain(clock.now)

    # ---- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        elapsed = self.clock.now
        return {
            "classes": {
                name: stats.as_dict()
                for name, stats in self.class_stats.items()
            },
            "sessions": {
                name: session.stats()
                for name, session in self.sessions.items()
            },
            "channel": {
                "window": self.channel.window,
                "reservations": self.channel.reservations,
                "device_busy_us": self.channel.device_busy_us,
                "utilization": self.channel.utilization(elapsed),
            },
        }


class CtrlSession:
    """One client's handle on the service."""

    def __init__(self, service: CtrlService, name: str, priority: str,
                 channel: str, queue_limit: int):
        self.service = service
        self.name = name
        self.priority = priority
        self.channel = channel
        self.queue_limit = queue_limit
        #: This session's arbitration class, resolved once: its stats
        #: and its FIFO in the service.
        self.class_stats = service.class_stats[priority]
        self.queue = service._queues[PRIORITY_CLASSES[priority]]
        #: When this session's software-prep pipeline frees up.
        self.cpu_free_us = 0.0
        self.pending = 0
        self.in_flight = 0
        self.completed = 0
        self.latencies_us: List[float] = []
        self.on_drain: Optional[Callable[[], None]] = None
        self._saturated = False
        #: Session-scoped request batching (blocking path), read by
        #: ``Driver._execute``.
        self.batch_state = BatchState()
        self.driver = SessionDriver(service.driver, self)

    # ---- hook used by Driver._execute (blocking path) ----------------------

    def reserve(self, now_us: float, prep_us: float, device_us: float,
                extra_us: float, pcie_us: float) -> ChannelSchedule:
        channel = self.service.channel
        if self.cpu_free_us <= now_us and \
                channel.device_free_us <= now_us + prep_us:
            # Uncontended: replicate the synchronous driver's float
            # arithmetic bit for bit (same association order as its
            # ``clock.advance(prep + device + pcie + extra)``), so the
            # blocking session path is exactly equivalent, not merely
            # equal within rounding.
            self.cpu_free_us = now_us + prep_us
            excl_end = now_us + prep_us + device_us + extra_us
            channel.device_free_us = excl_end
            channel.device_busy_us += device_us + extra_us
            channel.reservations += 1
            return ChannelSchedule(
                prep_start_us=now_us,
                prep_end_us=now_us + prep_us,
                excl_start_us=now_us + prep_us,
                excl_end_us=excl_end,
                done_us=now_us + (prep_us + device_us + pcie_us + extra_us),
            )
        prep_start = max(now_us, self.cpu_free_us)
        prep_end = prep_start + prep_us
        self.cpu_free_us = prep_end
        return channel.reserve(
            now_us, prep_end, device_us + extra_us, pcie_us
        )

    # ---- pipelined submits -------------------------------------------------

    def submit_modify(self, table: str, entry_id: int,
                      action: Optional[str] = None,
                      args: Optional[Sequence[int]] = None,
                      memo: Optional[MemoHandle] = None,
                      on_done=None) -> OpTicket:
        driver = self.service.driver
        runtime = driver.asic.get_table(table)
        return self.service._submit(
            self, "table_modify", table, table,
            driver.model.table_modify_us,
            driver.prep_cost("table", table, memo),
            lambda: runtime.modify_entry(entry_id, action, args),
            1, on_done,
        )

    def submit_add(self, table: str, key, action: str,
                   args: Sequence[int] = (), priority: int = 0,
                   memo: Optional[MemoHandle] = None,
                   on_done=None) -> OpTicket:
        driver = self.service.driver
        runtime = driver.asic.get_table(table)
        return self.service._submit(
            self, "table_add", table, table,
            driver.model.table_add_us,
            driver.prep_cost("table", table, memo),
            lambda: runtime.add_entry(key, action, args, priority),
            1, on_done,
        )

    def submit_set_default(self, table: str, action: str,
                           args: Sequence[int] = (),
                           memo: Optional[MemoHandle] = None,
                           on_done=None) -> OpTicket:
        driver = self.service.driver
        runtime = driver.asic.get_table(table)
        return self.service._submit(
            self, "table_set_default", table, table,
            driver.model.table_set_default_us,
            driver.prep_cost("table", table, memo),
            lambda: runtime.set_default(action, args),
            1, on_done,
        )

    def submit_write_register(self, name: str, index: int, value: int,
                              memo: Optional[MemoHandle] = None,
                              on_done=None) -> OpTicket:
        driver = self.service.driver
        register = driver.asic.get_register(name)
        return self.service._submit(
            self, "register_write", name, name,
            driver.model.register_write_us,
            driver.prep_cost("register", name, memo),
            lambda: register.write(index, value),
            1, on_done,
        )

    def submit_batch(self, ops: Sequence[Tuple],
                     on_done=None) -> List[OpTicket]:
        """Stream a heterogeneous write list as chunked DMA-burst
        transactions; returns one ticket per chunk.

        A chunk is admitted against the queue limit *before* it is
        planned (a refused chunk costs no lookups), and planned here,
        at submit: verb, arity and unknown-target errors raise now,
        device-side ones fail the chunk's ticket at its window."""
        service = self.service
        driver = service.driver
        chunk_size = service.bulk_chunk
        total = len(ops)
        tickets: List[OpTicket] = []
        for base in range(0, total, chunk_size):
            service._admit(self)
            plan = BulkPlan(
                driver.asic,
                ops if total <= chunk_size else ops[base:base + chunk_size],
            )
            target = f"bulk[{plan.op_count}]"
            tickets.append(service._submit(
                self, "bulk_write", target, target,
                driver.model.bulk_write_cost(
                    plan.table_entries, plan.register_writes
                ),
                driver.model.op_prep_us, plan.apply, plan.op_count, on_done,
            ))
        return tickets

    def try_submit_modify(self, *args, **kwargs) -> Optional[OpTicket]:
        try:
            return self.submit_modify(*args, **kwargs)
        except BackpressureError:
            return None

    def try_submit_batch(self, *args, **kwargs) -> Optional[List[OpTicket]]:
        try:
            return self.submit_batch(*args, **kwargs)
        except BackpressureError:
            return None

    def drain(self) -> None:
        """Block (in simulated time) until this session's pipeline is
        empty."""
        self.service.drain(self)

    def _maybe_notify_drain(self) -> None:
        if (
            self._saturated
            and self.on_drain is not None
            and self.pending <= self.queue_limit // 2
        ):
            self._saturated = False
            self.service.scheduler.at(
                self.service.clock.now, lambda _t: self.on_drain()
            )

    def stats(self) -> Dict[str, object]:
        ordered = sorted(self.latencies_us)
        count = len(ordered)
        return {
            "priority": self.priority,
            "completed": self.completed,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "p50_latency_us": ordered[count // 2] if count else 0.0,
            "p99_latency_us":
                ordered[min(count - 1, int(count * 0.99))] if count else 0.0,
        }


class SessionDriver:
    """Drop-in :class:`Driver` facade bound to one session.

    Method calls forward to the underlying driver with this session's
    channel scheduling (blocking path); attribute reads and writes
    fall through to the real driver, so agent code that pokes
    ``driver.memoization_enabled`` or reads ``driver.errors_total``
    keeps working unchanged.  Inside a :meth:`pipeline` context,
    fire-and-forget writes (modify / set_default / register write) are
    submitted asynchronously and the context exit drains them.
    """

    _LOCAL = ("_driver", "_session", "_batch_scope", "_pipelining",
              "_pipeline_tickets")

    def __init__(self, driver: Driver, session: CtrlSession):
        object.__setattr__(self, "_driver", driver)
        object.__setattr__(self, "_session", session)
        object.__setattr__(
            self, "_batch_scope", BatchScope(session.batch_state, self)
        )
        object.__setattr__(self, "_pipelining", False)
        object.__setattr__(self, "_pipeline_tickets", [])

    def __getattr__(self, name):
        return getattr(self._driver, name)

    def __setattr__(self, name, value):
        if name in SessionDriver._LOCAL:
            object.__setattr__(self, name, value)
        else:
            setattr(self._driver, name, value)

    @property
    def session(self) -> CtrlSession:
        return self._session

    # ---- batching / pipelining --------------------------------------------

    def batch(self) -> BatchScope:
        """Session-scoped request batching: one PCIe round trip shared
        by the ops of one session's batch, independent of other
        sessions."""
        return self._batch_scope

    def pipeline(self) -> "_PipelineContext":
        """Within this context, write ops are pipelined; exiting
        drains the session and raises the first terminal error."""
        return _PipelineContext(self)

    def _sync_point(self) -> None:
        if self._pipelining:
            self._session.drain()

    # ---- ops ---------------------------------------------------------------

    def add_entry(self, table, key, action, args=(), priority=0,
                  memo=None, channel=None):
        self._sync_point()
        return self._driver.add_entry(
            table, key, action, args, priority, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def modify_entry(self, table, entry_id, action=None, args=None,
                     memo=None, channel=None):
        if self._pipelining:
            self._pipeline_tickets.append(self._session.submit_modify(
                table, entry_id, action, args, memo=memo
            ))
            return None
        return self._driver.modify_entry(
            table, entry_id, action, args, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def delete_entry(self, table, entry_id, memo=None, channel=None):
        self._sync_point()
        return self._driver.delete_entry(
            table, entry_id, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def set_default(self, table, action, args=(), memo=None, channel=None):
        if self._pipelining:
            self._pipeline_tickets.append(self._session.submit_set_default(
                table, action, args, memo=memo
            ))
            return None
        return self._driver.set_default(
            table, action, args, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def read_entries(self, table, memo=None, channel=None):
        self._sync_point()
        return self._driver.read_entries(
            table, memo=memo, channel=channel or self._session.channel,
            session=self._session,
        )

    def read_entry(self, table, entry_id, memo=None, channel=None):
        self._sync_point()
        return self._driver.read_entry(
            table, entry_id, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def read_default(self, table, memo=None, channel=None):
        self._sync_point()
        return self._driver.read_default(
            table, memo=memo, channel=channel or self._session.channel,
            session=self._session,
        )

    def read_registers(self, name, lo=0, hi=None, memo=None, channel=None):
        self._sync_point()
        return self._driver.read_registers(
            name, lo, hi, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def write_register(self, name, index, value, memo=None, channel=None):
        if self._pipelining:
            self._pipeline_tickets.append(
                self._session.submit_write_register(
                    name, index, value, memo=memo
                )
            )
            return None
        return self._driver.write_register(
            name, index, value, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def read_counter(self, name, index, memo=None, channel=None):
        self._sync_point()
        return self._driver.read_counter(
            name, index, memo=memo,
            channel=channel or self._session.channel,
            session=self._session,
        )

    def write_batch(self, ops, channel=None):
        self._sync_point()
        return self._driver.write_batch(
            ops, channel=channel or self._session.channel,
            session=self._session,
        )


class _PipelineContext:
    """Pipelined-writes scope with a drain barrier on exit."""

    def __init__(self, proxy: SessionDriver):
        self.proxy = proxy

    def __enter__(self) -> SessionDriver:
        object.__setattr__(self.proxy, "_pipelining", True)
        object.__setattr__(self.proxy, "_pipeline_tickets", [])
        return self.proxy

    def __exit__(self, exc_type, exc, tb) -> None:
        object.__setattr__(self.proxy, "_pipelining", False)
        tickets = self.proxy._pipeline_tickets
        object.__setattr__(self.proxy, "_pipeline_tickets", [])
        if exc_type is not None:
            return
        self.proxy._session.drain()
        for ticket in tickets:
            if ticket.error is not None:
                raise ticket.error
