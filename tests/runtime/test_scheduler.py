"""Scheduler semantics: actors + events on one timeline."""

import pytest

from repro.errors import SimulationError
from repro.net.events import EventQueue
from repro.runtime import AgentActor, CallbackActor, Scheduler
from repro.switch.clock import SimClock
from repro.system import MantisSystem

PROGRAM = """
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; proto : 8; } }
header ipv4_t ipv4;
header_type tmp_t { fields { c : 32; } }
metadata tmp_t tmp;
register seen { width : 32; instance_count : 4; }
action bump() {
    register_read(tmp.c, seen, 0);
    add(tmp.c, tmp.c, 1);
    register_write(seen, 0, tmp.c);
}
table t {
    reads { ipv4.proto : exact; }
    actions { bump; }
    default_action : bump();
    size : 4;
}
control ingress { apply(t); }
reaction watch(reg seen[0:3]) { }
"""


class TestEvents:
    def test_at_and_after_fire_in_order(self):
        scheduler = Scheduler()
        log = []
        scheduler.at(5.0, lambda now: log.append(("a", now)))
        scheduler.at(2.0, lambda now: log.append(("b", now)))
        scheduler.after(3.0, lambda now: log.append(("c", now)))
        scheduler.run_until(10.0, actors=False)
        assert log == [("b", 2.0), ("c", 3.0), ("a", 5.0)]
        assert scheduler.clock.now == 10.0

    def test_after_negative_delay_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(SimulationError):
            scheduler.after(-1.0, lambda now: None)

    def test_after_nan_delay_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(SimulationError):
            scheduler.after(float("nan"), lambda now: None)
        assert len(scheduler.events) == 0

    def test_event_exactly_at_horizon_runs(self):
        scheduler = Scheduler()
        log = []
        scheduler.at(10.0, lambda now: log.append(now))
        scheduler.at(10.5, lambda now: log.append(now))
        scheduler.run_until(10.0)
        assert log == [10.0]
        # The later event is still pending for the next run.
        scheduler.run_until(20.0)
        assert log == [10.0, 10.5]

    def test_cascading_events(self):
        scheduler = Scheduler()
        log = []

        def first(now):
            log.append(("first", now))
            scheduler.after(1.0, lambda n: log.append(("second", n)))

        scheduler.at(3.0, first)
        scheduler.run_until(10.0)
        assert log == [("first", 3.0), ("second", 4.0)]

    def test_quiescence_run_terminates(self):
        scheduler = Scheduler()
        log = []
        scheduler.at(7.0, lambda now: log.append(now))
        scheduler.run_until()  # no horizon: drain everything
        assert log == [7.0]
        assert scheduler.clock.now == 7.0


class TestActors:
    def test_periodic_actor_fires_strictly_before_horizon(self):
        scheduler = Scheduler()
        fired = []
        actor = CallbackActor(lambda now: fired.append(now), period_us=10.0)
        scheduler.spawn(actor)
        scheduler.run_until(50.0)
        # Turns at 0,10,20,30,40; the turn at 50 waits for the next run
        # (the legacy busy-loop's ``while now < T`` contract).
        assert fired == [0.0, 10.0, 20.0, 30.0, 40.0]
        scheduler.run_until(60.0)
        assert fired[-1] == 50.0

    def test_equal_time_actors_fire_in_spawn_order(self):
        scheduler = Scheduler()
        log = []
        scheduler.spawn(CallbackActor(lambda now: log.append("a") or 100.0))
        scheduler.spawn(CallbackActor(lambda now: log.append("b") or 100.0))
        scheduler.run_until(50.0)
        assert log == ["a", "b"]

    def test_event_en_route_runs_during_clock_advance(self):
        # An event earlier than the next actor turn runs via the clock
        # listener while the scheduler advances toward the actor.
        scheduler = Scheduler()
        log = []
        scheduler.spawn(
            CallbackActor(lambda now: log.append(("actor", now)) or 20.0),
            at_us=10.0,
        )
        scheduler.at(4.0, lambda now: log.append(("event", now)))
        scheduler.run_until(15.0)
        assert log == [("event", 4.0), ("actor", 10.0)]

    def test_cancel_and_rearm(self):
        scheduler = Scheduler()
        fired = []
        actor = CallbackActor(lambda now: fired.append(now), period_us=5.0)
        scheduler.spawn(actor)
        scheduler.cancel(actor)
        scheduler.run_until(20.0)
        assert fired == []
        scheduler.arm(actor, 25.0)
        scheduler.run_until(40.0)
        assert fired == [25.0, 30.0, 35.0]

    def test_arm_unspawned_actor_raises(self):
        scheduler = Scheduler()
        with pytest.raises(SimulationError):
            scheduler.arm(CallbackActor(lambda now: None))

    def test_actor_retires_on_none(self):
        scheduler = Scheduler()
        fired = []
        scheduler.spawn(CallbackActor(lambda now: fired.append(now)))
        scheduler.run_until(100.0)
        assert fired == [0.0]  # no period, no explicit next time: done

    def test_actors_false_freezes_control_plane(self):
        scheduler = Scheduler()
        fired = []
        events = []
        scheduler.spawn(CallbackActor(lambda now: fired.append(now),
                                      period_us=1.0))
        scheduler.at(5.0, lambda now: events.append(now))
        scheduler.run_until(10.0, actors=False)
        assert fired == []
        assert events == [5.0]


class TestAgentActor:
    def _system(self):
        return MantisSystem.from_source(PROGRAM)

    def test_budget_bounds_iterations(self):
        system = self._system()
        system.agent.prologue()
        scheduler = Scheduler(clock=system.clock)
        scheduler.spawn(AgentActor(system.agent, max_iterations=3))
        scheduler.run_until()  # quiescence: budget is the only brake
        assert system.agent.iterations == 3

    def test_actor_matches_legacy_busy_loop(self):
        """The scheduled actor reproduces ``agent.run_until`` exactly:
        same iteration count, same final clock."""
        legacy = self._system()
        legacy.agent.prologue()
        legacy.agent.run_until(400.0)

        scheduled = self._system()
        scheduled.agent.prologue()
        scheduler = Scheduler(clock=scheduled.clock)
        scheduler.spawn(AgentActor(scheduled.agent))
        scheduler.run_until(400.0)

        assert scheduled.agent.iterations == legacy.agent.iterations
        assert scheduled.clock.now == legacy.clock.now
        assert scheduled.agent.phase_totals == legacy.agent.phase_totals

    def test_rearm_resets_budget(self):
        system = self._system()
        system.agent.prologue()
        scheduler = Scheduler(clock=system.clock)
        actor = AgentActor(system.agent, max_iterations=2)
        scheduler.spawn(actor)
        scheduler.run_until()
        assert system.agent.iterations == 2
        scheduler.arm(actor)
        scheduler.run_until()
        assert system.agent.iterations == 4

    def test_paced_agent_runs_on_cadence(self):
        system = self._system()
        system.agent.prologue()
        scheduler = Scheduler(clock=system.clock)
        scheduler.spawn(AgentActor(system.agent, period_us=50.0))
        start = system.clock.now
        scheduler.run_until(start + 200.0)
        # Turns at start, +50, +100, +150 (each iteration costs < 50us
        # for this tiny program, so the cadence dominates).
        assert system.agent.iterations == 4


class _CountingQueue(EventQueue):
    """An ``EventQueue`` that counts its ``drain`` calls (installed by
    re-classing a scheduler's live queue, so the real heap is kept)."""

    drains = 0

    def drain(self, now_us):
        self.drains += 1
        return super().drain(now_us)


class TestEventAwareAdvance:
    """A clock advance drains the queue only when an event is due --
    and an event due exactly at an op's end still runs inside it."""

    def _stack(self):
        system = MantisSystem.from_source(PROGRAM)
        scheduler = Scheduler(clock=system.clock)
        scheduler.events.__class__ = _CountingQueue
        return system, scheduler

    def _op_end_time(self) -> float:
        twin, _ = self._stack()
        twin.driver.write_register("seen", 0, 1)
        return twin.clock.now

    def test_event_at_op_completion_runs_inside_the_op(self):
        end = self._op_end_time()
        system, scheduler = self._stack()
        log = []
        # ops_issued is bumped after the op's advance returns: seeing
        # it unchanged proves the callback ran inside the op.
        scheduler.at(end, lambda now: log.append(
            (now, system.driver.ops_issued)
        ))
        scheduler.at(end + 1e-9, lambda now: log.append("late"))
        system.driver.write_register("seen", 0, 1)
        assert system.clock.now == end
        assert log == [(end, 0)]
        assert scheduler.events.drains == 1

    def test_same_instant_follow_up_runs_in_the_same_drain(self):
        end = self._op_end_time()
        system, scheduler = self._stack()
        log = []

        def first(now):
            log.append("first")
            scheduler.call_soon(lambda now: log.append("follow-up"))

        scheduler.at(end, first)
        system.driver.write_register("seen", 0, 1)
        assert log == ["first", "follow-up"]
        assert scheduler.events.drains == 1
        assert len(scheduler.events) == 0

    def test_quiet_queue_is_never_drained(self):
        system, scheduler = self._stack()
        system.agent.prologue()
        for _ in range(50):
            system.agent.run_iteration()
        assert scheduler.events.drains == 0
        # A pending-but-distant event changes nothing ...
        scheduler.at(system.clock.now + 1e6, lambda now: None)
        for _ in range(50):
            system.agent.run_iteration()
        assert scheduler.events.drains == 0
        assert system.driver.ops_issued >= 100 * 3
        # ... until an advance reaches it.
        scheduler.run_until(system.clock.now + 2e6, actors=False)
        assert scheduler.events.processed == 1
