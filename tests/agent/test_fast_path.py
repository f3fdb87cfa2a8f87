"""The control-loop fast path must be invisible (DESIGN.md,
"Control-loop fast path").

- ``Driver._execute``'s plain tail (no session, injector, hook or
  recorded timeline) and its full tail leave bit-identical clocks,
  counters, agent accounting and device state on every app program;
- the tail is chosen per call from driver state: an injector or an
  invariant checker attached mid-run sees the very next op;
- ``recover()`` rebuilds the plans ``prologue()`` would: the iteration
  after a recovery is bit-identical to one on a never-crashed twin;
- a deterministic tripwire pins the Python-level calls one steady-state
  DoS iteration makes (no wall clock involved).
"""

import sys

import pytest

from repro.agent.agent import MantisAgent
from repro.apps.dos import DOS_P4R, DosMitigationApp
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    VersionInvariantChecker,
)
from repro.net.sim import NetworkSim
from repro.switch.compiled import asic_state_snapshot
from repro.switch.packet import Packet
from repro.system import MantisSystem
from tests.ctrl.test_differential import APP_PROGRAMS  # the seven apps

DST = 0x0B000001


def _packet(i: int) -> Packet:
    """One packet carrying every header field the app programs read."""
    return Packet({
        "ipv4.srcAddr": 0x0A000001 + i * 7919 % 13,
        "ipv4.dstAddr": DST,
        "ipv4.proto": (6, 17)[i % 2],
        "l4.sport": 1000 + i * 13,
        "l4.dport": 443,
        "tcp.seq": i,
        "guard.seq": i,
    }, size_bytes=1000)


def _churn(ctx) -> None:
    """Host-side reaction for DoS: stage table adds, modifies and
    deletes so commits carry prepares and sealed mirror generations."""
    state = ctx.state
    step = state["step"] = state.get("step", 0) + 1
    table = ctx.table("blocklist")
    if step % 3 == 1:
        state.setdefault("ids", []).append(
            table.add([0x0AFF0000 + step], "block")
        )
    elif step % 3 == 2 and state.get("ids"):
        table.modify(state["ids"][-1], action="allow")
    elif len(state.get("ids", ())) > 2:
        table.delete(state["ids"].pop(0))


def _run(name: str, iterations: int, force_full_tail: bool) -> MantisSystem:
    system = MantisSystem.from_source(APP_PROGRAMS[name])
    if force_full_tail:
        system.driver.post_op_hooks.append(lambda kind, target, channel: None)
    if name == "dos":
        system.agent.attach_python("estimate_and_block", _churn)
    system.agent.prologue()
    for i in range(iterations):
        for j in range(3):
            system.asic.process(_packet(3 * i + j))
        system.agent.run_iteration()
    return system


def _observables(system: MantisSystem) -> dict:
    driver, agent = system.driver, system.agent
    return {
        "clock": repr(system.clock.now),
        "ops_issued": driver.ops_issued,
        "op_attempts": driver.op_attempts,
        "timeline_total": driver.timeline_total,
        "phase_totals": {k: repr(v) for k, v in agent.phase_totals.items()},
        "last_breakdown": {
            k: repr(v) for k, v in agent.last_breakdown.items()
        },
        "iterations": agent.iterations,
        "vv_mv": (agent.vv, agent.mv),
        "state": asic_state_snapshot(system.asic),
    }


@pytest.mark.parametrize("name", sorted(APP_PROGRAMS))
def test_plain_tail_matches_full_tail(name):
    plain = _run(name, 40, force_full_tail=False)
    full = _run(name, 40, force_full_tail=True)
    assert plain.driver.ops_issued > 40  # the loop really drove the driver
    assert _observables(plain) == _observables(full)


def test_injector_attached_mid_run_admits_the_next_op():
    system = _run("dos", 100, force_full_tail=False)
    driver = system.driver
    assert driver.timeline_total == driver.ops_issued  # all plain so far
    injector = FaultInjector(FaultPlan(seed=1, specs=[
        FaultSpec(kind="latency", probability=1.0, extra_us=7.0),
    ])).attach(driver)
    before = system.clock.now
    attempts = driver.op_attempts
    driver.read_registers("total_bytes", 0, 0)
    assert injector.triggered == 1
    assert injector.events[0].op_index == attempts + 1
    model = driver.model
    assert system.clock.now - before == pytest.approx(
        model.op_prep_us + model.register_read_cost(1, 32)
        + model.pcie_rtt_us + 7.0
    )
    # ... and the dialogue loop is admitted through it op for op.
    issued = driver.ops_issued
    system.agent.run_iteration()
    assert driver.ops_issued - issued >= 5
    assert injector.triggered == 1 + driver.ops_issued - issued


def test_invariant_checker_attached_mid_run_sees_the_next_op():
    system = _run("dos", 100, force_full_tail=False)
    checker = VersionInvariantChecker(system)
    system.driver.read_registers("total_bytes", 0, 0)
    assert checker.checks == 1
    issued = system.driver.ops_issued
    for _ in range(10):
        system.agent.run_iteration()
    assert checker.checks == 1 + system.driver.ops_issued - issued
    assert checker.flips == 10
    assert checker.violations == []


def test_recover_rebuilds_the_prologue_plans():
    """A restarted agent replays the same resolved state: its first
    iteration costs exactly what the never-crashed twin's does."""

    twin = _run("dos", 25, force_full_tail=False)
    crashed = _run("dos", 25, force_full_tail=False)
    restarted = MantisAgent(crashed.artifacts, crashed.driver)
    restarted.attach_python("estimate_and_block", lambda ctx: None)
    twin.agent.attach_python("estimate_and_block", lambda ctx: None)
    restarted.recover()
    assert (restarted.vv, restarted.mv) == (twin.agent.vv, twin.agent.mv)
    for reaction, reference in zip(restarted._reactions,
                                   twin.agent._reactions):
        plan, expected = reaction.plan, reference.plan
        assert [r for r, _memo in plan.reads] == \
            [r for r, _memo in expected.reads]
        assert plan.fields == expected.fields
        assert [(c, lo, hi, p) for c, _reader, lo, hi, p in plan.rest] == \
            [(c, lo, hi, p) for c, _reader, lo, hi, p in expected.rest]
    for system, agent in ((twin, twin.agent), (crashed, restarted)):
        for j in range(3):
            system.asic.process(_packet(1000 + j))
        agent.run_iteration()
    assert {k: repr(v) for k, v in restarted.last_breakdown.items()} == \
        {k: repr(v) for k, v in twin.agent.last_breakdown.items()}
    assert asic_state_snapshot(crashed.asic) == asic_state_snapshot(twin.asic)


# ---- hot-loop tripwire -----------------------------------------------------

#: Python-level calls (``call`` + ``c_call`` profile events) one
#: steady-state DoS iteration makes: five driver ops, one reaction, no
#: traffic, a scheduler attached.  147 before the fast path, 43 before
#: the generated iteration, whose inlined ops still make one
#: ``SimClock.advance`` each; a rise means per-iteration work crept
#: back into the dialogue loop.
CALLS_PER_ITERATION = 15
#: The same iteration through a control-plane service session: every
#: op goes through ``SessionDriver.<op>`` and the channel (68 before
#: the generated iteration).
SESSION_CALLS_PER_ITERATION = 61
CALLS_SLACK = 4


def _calls_per_iteration(ctrl_service: bool) -> float:
    app = DosMitigationApp(system=MantisSystem.from_source(
        DOS_P4R, num_ports=64, ctrl_service=ctrl_service,
    ))
    NetworkSim(app.system)  # the clock watches a (quiet) event queue
    app.prologue()
    agent = app.system.agent
    for _ in range(100):
        agent.run_iteration()
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    iterations = 1000
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in range(iterations):
            agent.run_iteration()
    finally:
        sys.setprofile(previous)
    assert app.system.driver.ops_issued >= 5 * (iterations + 100)
    return (calls - 1) / iterations  # minus the final setprofile


def test_steady_state_iteration_call_budget():
    per_iteration = _calls_per_iteration(ctrl_service=False)
    assert per_iteration <= CALLS_PER_ITERATION + CALLS_SLACK, per_iteration


def test_steady_state_session_iteration_call_budget():
    per_iteration = _calls_per_iteration(ctrl_service=True)
    assert per_iteration <= SESSION_CALLS_PER_ITERATION + CALLS_SLACK, \
        per_iteration
