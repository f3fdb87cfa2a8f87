"""The fabric runtime: one scheduler, one timeline, many actors.

The paper's agents are independent per-component threads (Sections
4-6): one Mantis agent per pipeline/line card, each busy-looping its
dialogue against its own driver while the data plane keeps moving.
The reproduction models that concurrency on a single simulated
timeline: a :class:`Scheduler` owns the shared
:class:`~repro.switch.clock.SimClock` and the discrete-event
:class:`~repro.net.events.EventQueue`, and interleaves *actors* --
periodic control-plane work such as agent dialogue iterations -- with
the packet events of the queue.

Actors and events split the timeline by role:

- **events** (the :class:`EventQueue`) are the data plane plus
  anything needing *exact* timestamps: packet arrivals, departures,
  host timers, and the control-plane service's op applies/completions
  (``repro.ctrl``).  They run whenever the clock passes their
  timestamp -- including *mid-actor*, because the clock watches the
  queue's heap and every advance (each driver operation inside an
  agent iteration) that leaves an event due drains it.  This is how a table update can commit
  between two packets of the same burst, and how a pipelined driver
  op can complete (and a live legacy client can arrive) in the middle
  of an agent iteration.
- **actors** are the control plane: an actor's :meth:`Actor.fire`
  runs once at its scheduled time and returns the absolute time of its
  next turn (or ``None`` to retire).  An agent actor fires one
  dialogue iteration -- which advances the clock by the iteration's
  own driver/CPU cost, plus any pacing sleep -- and reschedules itself
  at the new ``clock.now``, reproducing the hardware agent's
  busy-loop; a paced agent naturally yields the gap to other actors
  and to packet events.

Determinism: actors due at the same instant fire in arming order
(FIFO), and the event queue keeps its own FIFO contract, so an
N-switch fabric run is a pure function of its inputs.

Scalability: every per-event operation is O(1) in the number of
registered actors.  Actor records live in a dict keyed by actor
identity (``arm``/``cancel`` do one hash lookup, not a scan), and
actors due at the same instant fire as one *batched wakeup*: the run
loop advances the clock once, pops the whole equal-timestamp cohort
off the heap in FIFO order, and fires it back to back -- with 20 or
200 switches armed at t=0 the scheduler does one advance and one heap
sweep, not N interleaved peek/advance cycles.  Per-actor fire counts
(:meth:`Scheduler.actor_stats`) make fleet runs debuggable without
rerunning.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DriverError, SimulationError
from repro.switch.clock import SimClock

_INFINITY = float("inf")

#: Per-run iteration ceiling for agent actors -- same guard as the
#: legacy ``MantisAgent.run_until`` busy-loop, so a zero-cost dialogue
#: cannot wedge the scheduler.
DEFAULT_MAX_ITERATIONS = 10_000_000


class Actor:
    """Schedulable unit of control-plane work.

    Subclasses implement :meth:`fire`; the scheduler calls it with the
    current simulated time and expects the absolute time of the next
    turn, or ``None`` to stop being scheduled.
    """

    def fire(self, now_us: float) -> Optional[float]:  # pragma: no cover
        raise NotImplementedError

    def on_armed(self, at_us: float) -> None:
        """Hook invoked when the scheduler (re)arms this actor --
        e.g. to reset a per-run iteration budget."""


class CallbackActor(Actor):
    """Adapter: a plain callable as an actor.

    ``fn(now_us)`` may return the next absolute fire time; with
    ``period_us`` set, a ``None`` return reschedules at
    ``now + period_us`` instead of retiring.
    """

    def __init__(
        self,
        fn: Callable[[float], Optional[float]],
        period_us: Optional[float] = None,
        name: str = "callback",
    ):
        self.fn = fn
        self.period_us = period_us
        self.name = name

    def fire(self, now_us: float) -> Optional[float]:
        result = self.fn(now_us)
        if result is not None:
            return result
        if self.period_us is not None:
            return now_us + self.period_us
        return None


class AgentActor(Actor):
    """One Mantis agent as a scheduled actor.

    Each turn runs one dialogue iteration; the iteration itself
    advances the shared clock by its measured cost (driver operations,
    interpreted reaction expressions, pacing sleep), and the actor
    reschedules at the resulting ``clock.now`` -- i.e. at
    ``fire_time + iteration_cost + pacing``.  With ``period_us`` set
    the agent instead runs at a fixed cadence (turns are skipped-free:
    the next turn is ``max(now, previous_turn + period)``).

    ``max_iterations`` bounds the iterations of one arming (one
    ``run_until`` call), mirroring the legacy busy-loop's guard.

    ``resilient=True`` absorbs :class:`~repro.errors.DriverError`
    raised by an iteration (counted in :attr:`errors`) instead of
    letting it unwind the whole fabric run -- the hardware agent's
    stance under fault injection: log, stay scheduled, retry next
    turn.  Other exceptions still propagate.
    """

    def __init__(
        self,
        agent,
        period_us: Optional[float] = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        name: str = "agent",
        resilient: bool = False,
    ):
        self.agent = agent
        self.period_us = period_us
        self.max_iterations = max_iterations
        self.name = name
        self.resilient = resilient
        self.errors = 0
        self._budget = max_iterations
        self._armed_at = 0.0

    def on_armed(self, at_us: float) -> None:
        self._budget = self.max_iterations
        self._armed_at = at_us

    def fire(self, now_us: float) -> Optional[float]:
        if self._budget <= 0:
            return None
        self._budget -= 1
        if self.resilient:
            try:
                self.agent.run_iteration()
            except DriverError:
                self.errors += 1
        else:
            self.agent.run_iteration()
        clock_now = self.agent.driver.clock.now
        if self._budget <= 0:
            return None
        if self.period_us is not None:
            return max(clock_now, now_us + self.period_us)
        return clock_now


class Scheduler:
    """Shared timeline for an N-switch fabric.

    Owns the :class:`SimClock` and the :class:`EventQueue`, registers
    the queue with the clock so due events drain inside the advance
    that reaches them (preserving the per-driver-op interleaving of the
    single-switch simulator), and runs actors in timestamp order with FIFO
    tie-breaking.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        # Local import: repro.net's package init pulls in the host and
        # simulator modules, which import this runtime layer back.
        from repro.net.events import EventQueue

        self.clock = clock or SimClock()
        self.events = EventQueue()
        self.clock.watch(self.events.heap, self._on_clock)
        # Actor heap entries are (time, seq, record); a record whose
        # entry field no longer matches the popped triple is stale
        # (re-armed or cancelled) and skipped lazily.
        self._heap: List[Tuple[float, int, "_ActorRecord"]] = []
        self._seq = itertools.count()
        # Indexed by actor identity: arm/cancel are one dict lookup
        # regardless of fleet size (records hold a strong reference,
        # so an id is never reused while registered).
        self._records: Dict[int, "_ActorRecord"] = {}
        self.actor_fires = 0

    # ---- events ------------------------------------------------------------

    def _on_clock(self, now_us: float) -> None:
        # Reached only when the clock saw an event due (SimClock.watch).
        self.events.drain(now_us)

    def at(self, time_us: float, fn: Callable[[float], None]) -> None:
        """One-shot event at an absolute time (link failures, horizon
        markers, scripted scenario steps)."""
        self.events.schedule(time_us, fn)

    def after(self, delay_us: float, fn: Callable[[float], None]) -> None:
        """One-shot event ``delay_us`` from now."""
        if not delay_us >= 0:  # NaN too
            raise SimulationError(f"cannot schedule {delay_us} us in the past")
        self.events.schedule(self.clock.now + delay_us, fn)

    def call_soon(self, fn: Callable[[float], None]) -> None:
        """One-shot event at the current instant, deferred to the next
        event drain -- lets code running inside an event callback (a
        control-plane completion, a backpressure drain notification)
        queue follow-up work without re-entering mid-callback."""
        self.events.schedule(self.clock.now, fn)

    # ---- actors ------------------------------------------------------------

    def spawn(self, actor: Actor, at_us: Optional[float] = None) -> Actor:
        """Register an actor and arm it (default: fire at ``now``).

        Spawning an already-registered actor just re-arms it."""
        if id(actor) not in self._records:
            self._records[id(actor)] = _ActorRecord(actor)
        self.arm(actor, self.clock.now if at_us is None else at_us)
        return actor

    def _record_for(self, actor: Actor) -> "_ActorRecord":
        record = self._records.get(id(actor))
        if record is None:
            raise SimulationError(f"actor {actor!r} was never spawned")
        return record

    def arm(self, actor: Actor, at_us: Optional[float] = None) -> None:
        """(Re)schedule an actor's next turn; resets its per-run
        state via :meth:`Actor.on_armed`."""
        record = self._record_for(actor)
        time_us = self.clock.now if at_us is None else at_us
        entry = (time_us, next(self._seq), record)
        record.entry = entry
        heapq.heappush(self._heap, entry)
        actor.on_armed(time_us)

    def cancel(self, actor: Actor) -> None:
        """Retire an actor (its pending turn becomes a no-op)."""
        record = self._record_for(actor)
        record.entry = None

    def actor_stats(self) -> Dict[str, int]:
        """Per-actor fire counts keyed by actor name (fires summed
        when names collide) -- the ``run-fabric`` debuggability hook."""
        stats: Dict[str, int] = {}
        for record in self._records.values():
            name = getattr(record.actor, "name", None) or repr(record.actor)
            stats[name] = stats.get(name, 0) + record.fires
        return stats

    def _peek_actor(self) -> Tuple[float, Optional["_ActorRecord"]]:
        heap = self._heap
        while heap:
            time_us, seq, record = heap[0]
            if record.entry is not None and record.entry[1] == seq:
                return time_us, record
            heapq.heappop(heap)  # stale: re-armed or cancelled
        return _INFINITY, None

    def _pop_batch(
        self, time_us: float
    ) -> List[Tuple[float, int, "_ActorRecord"]]:
        """Pop every live entry due at exactly ``time_us`` (FIFO by
        arming sequence -- the heap yields equal times in seq order)."""
        heap = self._heap
        batch: List[Tuple[float, int, "_ActorRecord"]] = []
        while heap and heap[0][0] == time_us:
            entry = heapq.heappop(heap)
            record = entry[2]
            if record.entry is not None and record.entry[1] == entry[1]:
                batch.append(entry)
        return batch

    def _fire_record(self, record: "_ActorRecord") -> None:
        """Fire one actor whose heap entry is already popped."""
        record.entry = None
        record.fires += 1
        self.actor_fires += 1
        next_time = record.actor.fire(self.clock.now)
        if next_time is None:
            return
        if next_time < self.clock.now:
            next_time = self.clock.now
        entry = (next_time, next(self._seq), record)
        record.entry = entry
        heapq.heappush(self._heap, entry)

    # ---- the run loop ------------------------------------------------------

    def run_until(
        self, horizon_us: Optional[float] = None, actors: bool = True
    ) -> None:
        """Advance the fabric to ``horizon_us``.

        Actors fire while their turn time is strictly *before* the
        horizon (matching the legacy agent busy-loop's
        ``while now < T``); packet events run up to and including it,
        plus any events the final actor turn dragged past it (the
        legacy overshoot-then-drain tail).  ``actors=False`` freezes
        the control plane and runs only packet events -- the
        "no reactive agent" baseline.  ``horizon_us=None`` runs to
        quiescence: until no actor wants a turn and no event is
        pending.
        """
        clock, events = self.clock, self.events
        horizon = _INFINITY if horizon_us is None else horizon_us
        while True:
            if actors:
                actor_time, record = self._peek_actor()
            else:
                actor_time, record = _INFINITY, None
            event_time = events.peek_time()
            event_time = _INFINITY if event_time is None else event_time
            if record is not None and actor_time < horizon \
                    and actor_time <= event_time:
                if actor_time > clock.now:
                    clock.advance_to(actor_time)  # drains due events en route
                # Batched wakeup: one clock advance, then the whole
                # equal-timestamp cohort fires back to back in arming
                # order.  A member cancelled or re-armed by an earlier
                # member is skipped via the entry-identity check; an
                # event a member scheduled *behind* the batch instant
                # runs before the next member, exactly as the
                # one-at-a-time loop would have interleaved it.
                for entry in self._pop_batch(actor_time):
                    batch_record = entry[2]
                    if batch_record.entry is None \
                            or batch_record.entry[1] != entry[1]:
                        continue  # cancelled/re-armed mid-batch
                    straggler = events.peek_time()
                    if straggler is not None and straggler < actor_time:
                        events.drain(clock.now)
                    self._fire_record(batch_record)
                continue
            if event_time <= horizon and event_time < _INFINITY:
                if event_time > clock.now:
                    clock.advance_to(event_time)  # the advance runs the event
                else:
                    events.drain(clock.now)
                continue
            break
        if horizon < _INFINITY and clock.now < horizon:
            clock.advance_to(horizon)
        events.drain(clock.now)


class _ActorRecord:
    """Scheduler-internal actor bookkeeping."""

    __slots__ = ("actor", "entry", "fires")

    def __init__(self, actor: Actor):
        self.actor = actor
        self.entry: Optional[Tuple[float, int, "_ActorRecord"]] = None
        self.fires = 0

    def __lt__(self, other: "_ActorRecord") -> bool:  # heap tie-break safety
        return id(self) < id(other)
