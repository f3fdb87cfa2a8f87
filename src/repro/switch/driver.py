"""Control-plane driver with a calibrated PCIe latency cost model.

This module substitutes for the paper's modified Barefoot driver.  The
*shape* of its cost model is what Figures 10-12 measure:

- every non-batched operation pays one PCIe round trip;
- software preparation cost drops by ~an order of magnitude for
  *memoized* operations (instruction buffers precomputed in the
  prologue -- the paper's "caching/memoization of device instructions");
- reads of consecutive entries of one register array are DMA-bursts:
  the first word is included in the base cost, each additional byte
  costs only tens of nanoseconds (Figure 10a's register-argument line);
- reads/updates of *distinct* objects each pay their own base cost
  (Figure 10a's field-argument line is linear in packed registers);
- batched operations share a single PCIe round trip.

The driver serializes all operations (the dialogue loop is
single-threaded; legacy clients queue behind at most one in-flight
Mantis operation -- Section 6).  With ``record_timeline=True`` every
operation's ``(start, end, channel)`` interval is logged so the
Figure 12 experiment can measure legacy-update interference.

Failure model: every operation runs through :meth:`Driver._execute`,
which admits the op past an optional fault injector (see
``repro.faults``) *before* touching ASIC state -- an injected failure
therefore never leaves a mutation behind, and the cost model and
device state cannot desync.  An optional :class:`RetryPolicy` retries
:class:`TransientDriverError` with exponential backoff in simulated
microseconds and converts exhausted budgets into
:class:`DriverTimeoutError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DriverError, DriverTimeoutError, TransientDriverError
from repro.switch.asic import SwitchAsic
from repro.switch.tables import KeyPart


@dataclass
class DriverCostModel:
    """Latency parameters, in microseconds of simulated time.

    Defaults are calibrated so that the end-to-end reaction times of
    the paper's use cases land in the reported "10s of us" range; see
    EXPERIMENTS.md for the calibration notes.
    """

    pcie_rtt_us: float = 0.9
    op_prep_us: float = 0.6
    memoized_prep_us: float = 0.08
    table_modify_us: float = 0.5
    table_add_us: float = 1.3
    table_delete_us: float = 0.6
    table_set_default_us: float = 0.5
    table_read_base_us: float = 0.5
    table_read_per_entry_us: float = 0.02
    register_read_base_us: float = 0.5
    register_read_per_byte_us: float = 0.012
    register_write_us: float = 0.4
    # Bulk/streamed writes (RBFRT-style): a whole heterogeneous batch
    # of table/register writes coalesces into one DMA-burst-priced
    # transaction -- one setup charge, then a small per-entry
    # increment, instead of a full device op per entry.
    bulk_setup_us: float = 1.5
    bulk_table_entry_us: float = 0.12
    bulk_register_entry_us: float = 0.03

    def bulk_write_cost(self, table_entries: int, register_writes: int = 0) -> float:
        """Device cost of one coalesced bulk-write transaction
        carrying ``table_entries`` table ops and ``register_writes``
        register writes (excluding PCIe/prep)."""
        return (
            self.bulk_setup_us
            + table_entries * self.bulk_table_entry_us
            + register_writes * self.bulk_register_entry_us
        )

    def register_read_cost(self, entries: int, width_bits: int) -> float:
        """Device cost of a burst read of ``entries`` consecutive
        entries of one array (excluding PCIe/prep)."""
        total_bytes = entries * ((width_bits + 7) // 8)
        extra_bytes = max(0, total_bytes - 4)
        return self.register_read_base_us + extra_bytes * self.register_read_per_byte_us

    def table_read_cost(self, entries: int) -> float:
        """Device cost of reading back ``entries`` installed entries."""
        return self.table_read_base_us + entries * self.table_read_per_entry_us


@dataclass
class RetryPolicy:
    """Retry semantics for transient control-channel failures.

    ``backoff_base_us * backoff_multiplier ** (attempt - 1)`` (capped
    at ``backoff_max_us``) of simulated time separates attempts; an op
    that would exceed ``deadline_us`` of total elapsed time, or that
    uses up ``max_attempts``, raises :class:`DriverTimeoutError`.
    """

    max_attempts: int = 4
    backoff_base_us: float = 2.0
    backoff_multiplier: float = 2.0
    backoff_max_us: float = 50.0
    deadline_us: Optional[float] = 400.0


@dataclass
class OpRecord:
    """One completed driver operation (for interference analysis).

    ``excl_start_us``/``excl_end_us`` bound the *device-exclusive*
    window -- the ASIC access itself.  Software preparation and the
    PCIe transfer are pipelined per requester and do not block a
    concurrent legacy client; only the device window serializes
    (Section 6's "queue behind at most one set of operations").
    """

    start_us: float
    end_us: float
    kind: str
    target: str
    channel: str
    excl_start_us: float = 0.0
    excl_end_us: float = 0.0
    #: Logical operations covered by this record (1 for normal ops,
    #: the batch size for one coalesced ``bulk_write`` transaction).
    ops: int = 1


class MemoHandle:
    """Prologue-precomputed instruction buffer for one device object.

    Operations issued with a memo skip most software preparation
    (``memoized_prep_us`` instead of ``op_prep_us``) -- and, like the
    real buffer, the handle already holds everything an op would
    otherwise re-derive per call: the resolved device object
    (``target``: a ``TableRuntime``, ``RegisterArray`` or
    ``CounterRuntime``) and the priced device cost of each read shape
    issued so far (``costs``: ``(lo, hi)`` for a register burst read,
    ``()`` for a counter read).  Prices are pure functions of the
    driver's cost model, which is fixed at construction.
    """

    __slots__ = ("kind", "name", "target", "costs")

    def __init__(self, kind: str, name: str, target: object):
        self.kind = kind
        self.name = name
        self.target = target
        self.costs: Dict[tuple, float] = {}

    def __repr__(self) -> str:
        return f"MemoHandle({self.kind!r}, {self.name!r})"


class Driver:
    """Single serialized access path to the switch ASIC."""

    def __init__(
        self,
        asic: SwitchAsic,
        model: Optional[DriverCostModel] = None,
        record_timeline: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        timeline_limit: Optional[int] = None,
    ):
        self.asic = asic
        self.clock = asic.clock
        self.model = model or DriverCostModel()
        self.record_timeline = record_timeline
        self.retry_policy = retry_policy
        # With a limit, the timeline is a bounded ring: million-op
        # benchmark runs keep only the most recent ``timeline_limit``
        # records instead of accumulating memory forever.  Without one
        # (the Fig. 12 path) it stays a plain unbounded list.
        self.timeline_limit = timeline_limit
        if timeline_limit is not None:
            if timeline_limit <= 0:
                raise DriverError(
                    f"timeline_limit must be positive, got {timeline_limit}"
                )
            self.timeline = deque(maxlen=timeline_limit)
        else:
            self.timeline: List[OpRecord] = []
        #: Total records ever produced (monotonic even when the ring
        #: has evicted old entries).
        self.timeline_total = 0
        self.ops_issued = 0
        #: Coalesced bulk-write transactions issued (each counts its
        #: batch size into ``ops_issued``).
        self.bulk_txns = 0
        # Ablation knob: when False, every operation pays the full
        # (unmemoized) software preparation cost.
        self.memoization_enabled = True
        self._batch = BatchState()
        self._batch_scope = BatchScope(self._batch, self)
        self._memos: Dict[Tuple[str, str], MemoHandle] = {}
        # Fault surface: an object with an ``intercept(kind, target,
        # channel, op_index, now)`` method (repro.faults.FaultInjector
        # installs itself here); ``post_op_hooks`` run after every
        # *successful* op (used by invariant checkers).
        self.fault_injector = None
        self.post_op_hooks: List[Callable[[str, str, str], None]] = []
        # Error accounting (surfaced through MantisAgent.health()).
        self.op_attempts = 0
        self.ops_failed = 0
        self.errors_total = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.op_errors: Dict[str, int] = {}
        self.op_retries: Dict[str, int] = {}
        self.last_error: Optional[str] = None
        self.last_error_us: float = 0.0

    # ---- memoization (prologue) -------------------------------------------

    def memoize(self, kind: str, name: str) -> MemoHandle:
        """Precompute the instruction buffer for one object.

        Costs one op's preparation time (paid in the prologue, where
        latency does not matter) and returns a reusable handle.
        """
        key = (kind, name)
        if key not in self._memos:
            target = self._lookup(kind, name)
            self.clock.advance(self.model.op_prep_us)
            self._memos[key] = MemoHandle(kind, name, target)
        return self._memos[key]

    def _lookup(self, kind: str, name: str):
        if kind == "table":
            return self.asic.get_table(name)
        if kind == "register":
            return self.asic.get_register(name)
        if kind == "counter":
            return self.asic.get_counter(name)
        raise DriverError(f"unknown memo kind {kind!r}")

    def _resolve(self, memo: Optional[MemoHandle], kind: str, name: str):
        """``(memo, device object)`` for an op that did not arrive with
        its own matching handle: an op without ``memo=`` still rides a
        handle memoized earlier for the same object; a handle for a
        different object is a caller bug."""
        if memo is None:
            memo = self._memos.get((kind, name))
            if memo is None:
                return None, self._lookup(kind, name)
            return memo, memo.target
        raise DriverError(
            f"memo for {memo.kind}/{memo.name} used on {kind}/{name}"
        )

    # ---- batching -------------------------------------------------------------

    def batch(self) -> "BatchScope":
        """Group subsequent operations into one PCIe transaction."""
        return self._batch_scope

    # ---- cost accounting -------------------------------------------------------

    def _record_error(self, kind: str, message: str) -> None:
        self.ops_failed += 1
        self.errors_total += 1
        self.op_errors[kind] = self.op_errors.get(kind, 0) + 1
        self.last_error = message
        self.last_error_us = self.clock.now

    def _record_op(self, record: OpRecord) -> None:
        self.timeline_total += 1
        if self.record_timeline:
            self.timeline.append(record)

    # ---- control-plane service hooks --------------------------------------
    #
    # The pipelined service (repro.ctrl) schedules device windows
    # itself, in simulated time, and funnels accounting back through
    # these helpers so ops_issued / timeline / fault and error counters
    # mean the same thing on both paths.

    def admit_fault(self, kind: str, target: str, channel: str):
        """Fault admission for one attempt (service async path)."""
        self.op_attempts += 1
        if self.fault_injector is None:
            return None
        return self.fault_injector.intercept(
            kind, target, channel, self.op_attempts, self.clock.now
        )

    def note_error(self, kind: str, message: str) -> None:
        self._record_error(kind, message)

    def note_retry(self, kind: str) -> None:
        self.retries_total += 1
        self.op_retries[kind] = self.op_retries.get(kind, 0) + 1

    def note_timeout(self) -> None:
        self.timeouts_total += 1

    def complete_op(
        self, kind: str, target: str, channel: str,
        record: Optional[OpRecord], op_count: int = 1,
    ) -> None:
        """Account one successfully applied op (service async path);
        ``record`` is only needed while ``record_timeline`` is on."""
        self.ops_issued += op_count
        self._record_op(record)
        for hook in self.post_op_hooks:
            hook(kind, target, channel)

    def _execute(
        self,
        kind: str,
        target: str,
        device_cost: float,
        memo: Optional[MemoHandle],
        channel: str,
        apply: Optional[Callable[..., object]] = None,
        args: tuple = (),
        session=None,
        op_count: int = 1,
    ) -> object:
        """Run one operation: fault admission, then the ASIC mutation
        (``apply(*args)``), then cost accounting.

        The mutation runs strictly *after* the fault decision, so an
        injected failure can never leave device state behind, and
        strictly *before* the clock charge, so an ``apply`` that
        raises (e.g. a full table) costs nothing -- not even its
        batch's PCIe round trip, which stays owed by the next op --
        and device state and the cost model stay in lockstep.

        The op is priced once; what follows is chosen per call from
        what can currently observe the op.  With no session, no fault
        injector, no post-op hook and no recorded timeline, nothing can
        fail, retry, delay or watch it, so the *plain tail* charges the
        same ``prep + device_cost + pcie`` sum and bumps the same
        counters without building an :class:`OpRecord` or entering the
        retry loop.  Injectors and invariant checkers attach mid-run;
        the very next op takes the full tail.
        """
        model = self.model
        prep = (
            model.memoized_prep_us
            if memo is not None and self.memoization_enabled
            else model.op_prep_us
        )
        # Batching is scoped to its requester: a concurrent client's op
        # must not be mispriced by another session's open batch.
        batch = self._batch if session is None else session.batch_state
        if (
            session is None
            and self.fault_injector is None
            and not self.post_op_hooks
            and not self.record_timeline
        ):
            self.op_attempts += 1
            if batch.depth == 0 or not batch.pcie_paid:
                pcie = model.pcie_rtt_us
            else:
                pcie = 0.0
            result = apply(*args) if apply is not None else None
            batch.pcie_paid = True
            # One advance per op, summed left to right exactly as the
            # full tail does (its ``+ extra`` adds 0.0 here, which is
            # exact): float addition does not associate, and the clock
            # is part of every pinned simulated result.
            self.clock.advance(prep + device_cost + pcie)
            self.ops_issued += op_count
            self.timeline_total += 1
            return result

        policy = self.retry_policy
        deadline = None
        if policy is not None and policy.deadline_us is not None:
            deadline = self.clock.now + policy.deadline_us
        attempt = 0
        while True:
            attempt += 1
            self.op_attempts += 1
            if batch.depth == 0 or not batch.pcie_paid:
                pcie = model.pcie_rtt_us
            else:
                pcie = 0.0
            fault = None
            if self.fault_injector is not None:
                fault = self.fault_injector.intercept(
                    kind, target, channel, self.op_attempts, self.clock.now
                )
            if fault is not None and fault.kind == "transient":
                # The round trip happened but the device rejected the
                # op: pay prep + PCIe, mutate nothing.
                batch.pcie_paid = True
                self.clock.advance(prep + pcie)
                message = f"injected transient failure on {kind} {target!r}"
                self._record_error(kind, message)
                error = TransientDriverError(message)
                if policy is None:
                    raise error
                if attempt >= policy.max_attempts:
                    self.timeouts_total += 1
                    raise DriverTimeoutError(
                        f"{kind} {target!r} failed after {attempt} attempts"
                    ) from error
                backoff = min(
                    policy.backoff_base_us
                    * policy.backoff_multiplier ** (attempt - 1),
                    policy.backoff_max_us,
                )
                if deadline is not None and self.clock.now + backoff > deadline:
                    self.timeouts_total += 1
                    raise DriverTimeoutError(
                        f"{kind} {target!r} exceeded its "
                        f"{policy.deadline_us} us deadline"
                    ) from error
                self.clock.advance(backoff)
                self.retries_total += 1
                self.op_retries[kind] = self.op_retries.get(kind, 0) + 1
                continue
            start = self.clock.now
            result = None
            if fault is not None and fault.kind == "drop":
                # Silently lost write: cost is paid, success is
                # reported, nothing lands.  Restricted by the injector
                # to value writes (no result, safe to lose).
                pass
            elif apply is not None:
                result = apply(*args)
            # Only now is the op certain to be charged.
            batch.pcie_paid = True
            extra = (
                fault.extra_us
                if fault is not None and fault.kind == "latency"
                else 0.0
            )
            if session is not None:
                # Blocking session op: the shared channel may hold the
                # device for another client, so the exclusive window
                # starts at the later of prep-done and device-free.
                # Uncontended, this degenerates to exactly the
                # synchronous timing below (same total, same window,
                # bit-identical float arithmetic).
                sched = session.reserve(start, prep, device_cost, extra, pcie)
                excl_start = sched.excl_start_us
                excl_end = sched.excl_end_us
                self.clock.advance_to(sched.done_us)
            else:
                self.clock.advance(prep + device_cost + pcie + extra)
                excl_start = start + prep
                excl_end = start + prep + device_cost + extra
            if fault is not None and fault.kind == "corrupt":
                result = fault.corrupt(result)
            self.ops_issued += op_count
            self._record_op(
                OpRecord(
                    start, self.clock.now, kind, target, channel,
                    excl_start_us=excl_start,
                    excl_end_us=excl_end,
                    ops=op_count,
                )
            )
            for hook in self.post_op_hooks:
                hook(kind, target, channel)
            return result

    def prep_cost(
        self, memo_kind: str, name: str, memo: Optional[MemoHandle] = None
    ) -> float:
        """Software prep cost one op on ``name`` would pay right now
        (memoized if a handle exists) -- the service prices prep at
        submit time with this."""
        if memo is None or memo.name != name or memo.kind != memo_kind:
            memo, _target = self._resolve(memo, memo_kind, name)
        if memo is not None and self.memoization_enabled:
            return self.model.memoized_prep_us
        return self.model.op_prep_us

    # ---- table operations ---------------------------------------------------------
    #
    # Every op opens the same way: a caller that brought the matching
    # handle gets the device object straight from it (no name lookup);
    # anything else goes through :meth:`_resolve`.

    def add_entry(
        self,
        table: str,
        key: Sequence[KeyPart],
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> int:
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target
        return self._execute(
            "table_add", table, self.model.table_add_us, memo, channel,
            runtime.add_entry, (key, action, args, priority), session,
        )

    def modify_entry(
        self,
        table: str,
        entry_id: int,
        action: Optional[str] = None,
        args: Optional[Sequence[int]] = None,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target
        self._execute(
            "table_modify", table, self.model.table_modify_us, memo, channel,
            runtime.modify_entry, (entry_id, action, args), session,
        )

    def delete_entry(
        self,
        table: str,
        entry_id: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target
        self._execute(
            "table_delete", table, self.model.table_delete_us, memo, channel,
            runtime.delete_entry, (entry_id,), session,
        )

    def set_default(
        self,
        table: str,
        action: str,
        args: Sequence[int] = (),
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target
        self._execute(
            "table_set_default", table, self.model.table_set_default_us,
            memo, channel, runtime.set_default, (action, args), session,
        )

    # ---- table read-back (crash recovery / commit verification) ------------

    def read_entries(
        self,
        table: str,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> List[Tuple[int, Tuple[KeyPart, ...], str, List[int], int]]:
        """Read back every installed entry of one table as
        ``(entry_id, key, action, args, priority)`` tuples."""
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target

        def apply():
            return [
                (
                    entry.entry_id,
                    tuple(entry.key),
                    entry.action_name,
                    list(entry.action_args),
                    entry.priority,
                )
                for entry in runtime.entries.values()
            ]

        device_cost = self.model.table_read_cost(len(runtime.entries))
        return self._execute(
            "table_read", table, device_cost, memo, channel, apply,
            session=session,
        )

    def read_entry(
        self,
        table: str,
        entry_id: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> Optional[Tuple[int, Tuple[KeyPart, ...], str, List[int], int]]:
        """Read back one installed entry by id (or None if absent).

        The dirty-diff commit path verifies only the entries it wrote;
        this costs a single-entry read instead of a whole-table dump.
        """
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target

        def apply():
            entry = runtime.entries.get(entry_id)
            if entry is None:
                return None
            return (
                entry.entry_id,
                tuple(entry.key),
                entry.action_name,
                list(entry.action_args),
                entry.priority,
            )

        return self._execute(
            "table_read", table, self.model.table_read_cost(1), memo, channel,
            apply, session=session,
        )

    def read_default(
        self,
        table: str,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> Optional[Tuple[str, List[int]]]:
        """Read back a table's default action as ``(action, args)``."""
        if memo is None or memo.name != table or memo.kind != "table":
            memo, runtime = self._resolve(memo, "table", table)
        else:
            runtime = memo.target

        def apply():
            default = runtime.default_action
            return None if default is None else (default[0], list(default[1]))

        return self._execute(
            "table_read", table, self.model.table_read_cost(0), memo, channel,
            apply, session=session,
        )

    # ---- register operations ----------------------------------------------------------

    def read_registers(
        self,
        name: str,
        lo: int = 0,
        hi: Optional[int] = None,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> List[int]:
        """Burst-read entries ``lo..hi`` (inclusive) of one array."""
        if memo is None or memo.name != name or memo.kind != "register":
            memo, register = self._resolve(memo, "register", name)
        else:
            register = memo.target
        if hi is None:
            hi = register.instance_count - 1
        shape = (lo, hi)
        if memo is not None and shape in memo.costs:
            device_cost = memo.costs[shape]
        else:
            device_cost = self.model.register_read_cost(
                hi - lo + 1, register.width
            )
            if memo is not None:
                memo.costs[shape] = device_cost
        return self._execute(
            "register_read", name, device_cost, memo, channel,
            register.read_range, (lo, hi), session,
        )

    def write_register(
        self,
        name: str,
        index: int,
        value: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> None:
        if memo is None or memo.name != name or memo.kind != "register":
            memo, register = self._resolve(memo, "register", name)
        else:
            register = memo.target
        self._execute(
            "register_write", name, self.model.register_write_us, memo, channel,
            register.write, (index, value), session,
        )

    def read_counter(
        self,
        name: str,
        index: int,
        memo: Optional[MemoHandle] = None,
        channel: str = "mantis",
        session=None,
    ) -> int:
        if memo is None or memo.name != name or memo.kind != "counter":
            memo, counter = self._resolve(memo, "counter", name)
        else:
            counter = memo.target
        if memo is not None and () in memo.costs:
            device_cost = memo.costs[()]
        else:
            device_cost = self.model.register_read_cost(1, 64)
            if memo is not None:
                memo.costs[()] = device_cost
        return self._execute(
            "counter_read", name, device_cost, memo, channel,
            counter.array.read, (index,), session,
        )

    # ---- bulk/streamed writes ---------------------------------------------

    def write_batch(
        self,
        ops: Sequence[Tuple],
        channel: str = "mantis",
        session=None,
    ) -> List[object]:
        """Apply a heterogeneous batch of writes as ONE coalesced
        DMA-burst transaction (RBFRT-style bulk insert).

        ``ops`` is a sequence of tuples:

        - ``("add", table, key, action, args[, priority])``
        - ``("modify", table, entry_id, action, args)``
        - ``("delete", table, entry_id)``
        - ``("set_default", table, action, args)``
        - ``("write_register", name, index, value)``

        The whole batch pays one software prep, one PCIe round trip and
        one bulk-priced device window (`DriverCostModel.bulk_write_cost`),
        occupies a single device-exclusive slot in the timeline, and
        counts ``len(ops)`` into ``ops_issued`` so op-count parity with
        per-entry execution holds.

        Errors come at two moments (see :class:`BulkPlan`).  An unknown
        verb, a wrong-arity tuple or an undeclared table/register is
        found while planning: nothing is mutated and nothing charged.
        Fault admission happens once per transaction: an injected
        transient failure rejects (and retries) the batch *as a whole*
        before any mutation lands, so under injected faults a bulk
        write is all-or-nothing.  A device-side error at op ``k`` (a
        register index out of range, a dead entry id, a full table) is
        only found while applying: it propagates uncharged with ops
        ``< k`` landed, exactly as issuing them one by one leaves them.

        Returns the per-op results in order (entry ids for adds, else
        ``None``).
        """
        plan = BulkPlan(self.asic, ops)
        if not plan.op_count:
            return []
        result = self._execute(
            "bulk_write",
            f"bulk[{plan.op_count}]",
            self.model.bulk_write_cost(plan.table_entries, plan.register_writes),
            None,
            channel,
            plan.apply,
            session=session,
            op_count=plan.op_count,
        )
        self.bulk_txns += 1
        return result


class BulkPlan:
    """One bulk transaction's op tuples (:meth:`Driver.write_batch`
    lists the verbs), resolved in a single ordered pass -- the only
    place the verb table lives; the blocking driver and the pipelined
    service (``CtrlSession.submit_batch``) both build one per
    transaction and run :meth:`apply` inside its device window.

    Planning checks verb and arity, resolves each target once and
    copies the arguments out of the caller's tuples.  Consecutive
    ``write_register`` ops on one register coalesce into a single
    ``RegisterArray.write_run(indices, values)`` step; a table verb is
    one ``(bound method, args)`` step.  ``steps`` holds ``(position of
    the step's first op, callable, args)`` in op order.
    """

    __slots__ = ("steps", "op_count", "table_entries", "register_writes")

    def __init__(self, asic: SwitchAsic, ops: Sequence[Tuple]):
        get_table, get_register = asic.get_table, asic.get_register
        steps: List[Tuple[int, Callable[..., object], tuple]] = []
        table_entries = 0
        run_name = None
        pos = -1
        for pos, op in enumerate(ops):
            verb = op[0]
            if verb == "write_register":
                _, name, index, value = op
                if name != run_name:
                    run_name = name
                    indices: List[int] = []
                    values: List[int] = []
                    steps.append(
                        (pos, get_register(name).write_run, (indices, values))
                    )
                indices.append(index)
                values.append(value)
                continue
            if verb == "add":
                _, table, key, action, args = op[:5]
                priority = op[5] if len(op) > 5 else 0
                step = get_table(table).add_entry, (key, action, args, priority)
            elif verb == "modify":
                _, table, entry_id, action, args = op
                step = get_table(table).modify_entry, (entry_id, action, args)
            elif verb == "delete":
                _, table, entry_id = op
                step = get_table(table).delete_entry, (entry_id,)
            elif verb == "set_default":
                _, table, action, args = op
                step = get_table(table).set_default, (action, args)
            else:
                raise DriverError(f"unknown bulk op verb {verb!r}")
            run_name = None
            table_entries += 1
            steps.append((pos, *step))
        self.steps = steps
        self.op_count = pos + 1
        self.table_entries = table_entries
        self.register_writes = pos + 1 - table_entries

    def apply(self) -> List[object]:
        """Run the steps in order; per-op results (entry ids for adds,
        else ``None``).  A step that raises leaves the earlier ones
        (and the earlier elements of its own run) applied."""
        results: List[object] = [None] * self.op_count
        for pos, fn, args in self.steps:
            results[pos] = fn(*args)
        return results


class BatchState:
    """One requester's ``batch()`` nesting: ops inside the outermost
    scope share a single PCIe round trip, owed by the first op that is
    actually charged (``pcie_paid`` means nothing at ``depth == 0``)."""

    __slots__ = ("depth", "pcie_paid")

    def __init__(self):
        self.depth = 0
        self.pcie_paid = False


class BatchScope:
    """Context manager implementing request batching over one
    :class:`BatchState`; yields ``driver`` (the requester's facade).
    Stateless beyond that, so one instance serves every ``batch()``."""

    __slots__ = ("state", "driver")

    def __init__(self, state: BatchState, driver):
        self.state = state
        self.driver = driver

    def __enter__(self):
        state = self.state
        if state.depth == 0:
            state.pcie_paid = False
        state.depth += 1
        return self.driver

    def __exit__(self, *exc_info) -> None:
        self.state.depth -= 1
