"""The generated dialogue iteration (DESIGN.md, "Control-loop fast
path") leaves exactly the simulated results the interpretive loop it
replaced left.

Every app program runs under each commit mode (plus one configuration
with poll batching, delta polling and commit verification on), with
the control-plane service off and on, under three fault cases:

- ``clean``: no fault;
- ``transient@k``: one transient failure at the ``k``-th op attempt of
  the faulted iteration, for every ``k`` that iteration makes;
- ``timeout``: the faulted iteration's first op exhausts a two-attempt
  retry policy.

A failure in an op the reaction itself issues propagates out of the
iteration (user code is not fault-tolerant); the row records it.

Packets run between iterations, and a scheduler drains packet events
that land inside some iterations, so the run mixes phases no event
touches with phases an event interrupts.  :data:`EXPECTED` was
recorded from the interpretive loop; each row pins the clock, the op
counters and the failure counters, plus one digest over the phase
totals, the last breakdown and the ASIC state.

Regenerate the table (only on purpose, with the reason stated) with::

    PYTHONPATH=src:. python -m tests.agent.test_generated_iteration
"""

import hashlib
import json

import pytest

from repro.compiler import compile_p4r
from repro.errors import DriverError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.runtime import Scheduler
from repro.switch.compiled import asic_state_snapshot
from repro.switch.driver import RetryPolicy
from repro.switch.packet import Packet
from repro.system import MantisSystem
from tests.ctrl.test_differential import APP_PROGRAMS  # the seven apps

#: ``(name, MantisSystem keywords)`` for each agent configuration.
MODES = (
    ("diff", {"commit_mode": "diff"}),
    ("full", {"commit_mode": "full"}),
    ("knobs", {"poll_batching": True, "delta_polling": True,
               "verify_commits": True}),
)
WARMUP = 4        # clean iterations before the faulted one
TAIL = 4          # iterations after it (faults detached)

_ARTIFACTS = {}


def _artifacts(name):
    if name not in _ARTIFACTS:
        _ARTIFACTS[name] = compile_p4r(APP_PROGRAMS[name])
    return _ARTIFACTS[name]


def _packet(i):
    """One packet carrying every header field the app programs read."""
    return Packet({
        "ipv4.srcAddr": 0x0A000001 + i * 7919 % 13,
        "ipv4.dstAddr": 0x0B000001,
        "ipv4.proto": (6, 17)[i % 2],
        "l4.sport": 1000 + i * 13,
        "l4.dport": 443,
        "tcp.seq": i,
        "guard.seq": i,
    }, size_bytes=700 + 50 * (i % 7))


def _churn(ctx):
    """Host-side DoS reaction: table adds, modifies and deletes, so
    commits carry sealed mirror generations."""
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


def _run(name, mode, service, fault=None, probe=False):
    """Run one case; ``fault`` is ``None``, ``("transient", k)`` or
    ``("timeout",)``.  ``probe=True`` returns the op attempts the
    faulted iteration makes instead of the observables."""
    kwargs = dict(dict(MODES)[mode])
    if fault is not None and fault[0] == "timeout":
        kwargs["retry_policy"] = RetryPolicy(max_attempts=2)
    system = MantisSystem(
        _artifacts(name), ctrl_service=service, num_ports=32, **kwargs
    )
    scheduler = Scheduler(clock=system.clock)
    asic, agent, driver = system.asic, system.agent, system.driver
    if name == "dos":
        agent.attach_python("estimate_and_block", _churn)
    agent.prologue()
    packets = 0
    raised = None

    def event(_now):
        nonlocal packets
        asic.process(_packet(packets))
        packets += 1

    for i in range(WARMUP + 1 + TAIL):
        for _ in range(2):
            event(None)
        if i % 2:
            # Due inside this iteration's poll phase.
            scheduler.at(system.clock.now + 2.0, event)
        if i % 3 == 0:
            # Due past the end of a short iteration.
            scheduler.at(system.clock.now + 40.0, event)
        if i == WARMUP:
            before = driver.op_attempts
            if fault is not None:
                if fault[0] == "transient":
                    spec = FaultSpec(kind="transient",
                                     op_range=(before + fault[1],) * 2)
                else:
                    spec = FaultSpec(kind="transient",
                                     op_range=(before + 1, before + 2))
                FaultInjector(FaultPlan(seed=1, specs=[spec])).attach(driver)
            try:
                agent.run_iteration()
            except DriverError as error:
                # A reaction's own driver op failed: that propagates.
                raised = type(error).__name__
            driver.fault_injector = None
            if probe:
                return driver.op_attempts - before
            continue
        agent.run_iteration()
    scheduler.run_until(system.clock.now + 50.0)
    health = agent.health()
    digest = hashlib.sha256(json.dumps([
        {k: repr(v) for k, v in agent.phase_totals.items()},
        {k: repr(v) for k, v in agent.last_breakdown.items()},
        repr(asic_state_snapshot(asic)),
    ]).encode()).hexdigest()[:16]
    return [
        repr(system.clock.now), driver.ops_issued, driver.op_attempts,
        [health.total_failures, health.consecutive_failed_iterations,
         driver.errors_total, driver.retries_total, driver.timeouts_total],
        digest, raised,
    ]


def _cases(name, mode, service):
    """``{case: observables}`` for one configuration."""
    table = {"clean": _run(name, mode, service)}
    attempts = _run(name, mode, service, probe=True)
    for k in range(1, attempts + 1):
        table[f"transient@{k}"] = _run(name, mode, service, ("transient", k))
    table["timeout"] = _run(name, mode, service, ("timeout",))
    return table


CONFIGS = [
    (name, mode, service)
    for name in sorted(APP_PROGRAMS)
    for mode, _kwargs in MODES
    for service in (False, True)
]


def _key(name, mode, service):
    return f"{name}/{mode}/{'service' if service else 'raw'}"


@pytest.mark.parametrize(
    "name,mode,service", CONFIGS,
    ids=[_key(*config) for config in CONFIGS],
)
def test_generated_iteration_matches_recorded_loop(name, mode, service):
    assert _cases(name, mode, service) == EXPECTED[_key(name, mode, service)]


#: Recorded from the interpretive loop (see the module docstring).
EXPECTED = {
    'dos/diff/raw': {
        'clean': ['153.58', 66, 66, [0, 0, 0, 0, 0],
                  '26e5bfd24cbb958b', None],
        'transient@1': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        'd674f0642f2ba67b', None],
        'transient@2': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@3': ['152.5', 64, 65, [1, 0, 1, 0, 0],
                        'afc1c0809a80ff07', None],
        'transient@4': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@5': ['145.35999999999999', 61, 62, [0, 0, 1, 0, 0],
                        '114001266118eb97', 'TransientDriverError'],
        'transient@6': ['146.94', 62, 63, [0, 0, 1, 0, 0],
                        'bb5c6a06aabaa02c', 'TransientDriverError'],
        'transient@7': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@8': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@9': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'timeout': ['156.06', 65, 67, [1, 0, 2, 1, 1],
                    'b8b5838b898a6853', None],
    },
    'dos/diff/service': {
        'clean': ['153.58', 66, 66, [0, 0, 0, 0, 0],
                  '26e5bfd24cbb958b', None],
        'transient@1': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        'd674f0642f2ba67b', None],
        'transient@2': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@3': ['152.5', 64, 65, [1, 0, 1, 0, 0],
                        'afc1c0809a80ff07', None],
        'transient@4': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@5': ['145.35999999999999', 61, 62, [0, 0, 1, 0, 0],
                        '114001266118eb97', 'TransientDriverError'],
        'transient@6': ['146.94', 62, 63, [0, 0, 1, 0, 0],
                        'bb5c6a06aabaa02c', 'TransientDriverError'],
        'transient@7': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@8': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@9': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'timeout': ['156.06', 65, 67, [1, 0, 2, 1, 1],
                    'b8b5838b898a6853', None],
    },
    'dos/full/raw': {
        'clean': ['153.58', 66, 66, [0, 0, 0, 0, 0],
                  '26e5bfd24cbb958b', None],
        'transient@1': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        'd674f0642f2ba67b', None],
        'transient@2': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@3': ['152.5', 64, 65, [1, 0, 1, 0, 0],
                        'afc1c0809a80ff07', None],
        'transient@4': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@5': ['145.35999999999999', 61, 62, [0, 0, 1, 0, 0],
                        '114001266118eb97', 'TransientDriverError'],
        'transient@6': ['146.94', 62, 63, [0, 0, 1, 0, 0],
                        'bb5c6a06aabaa02c', 'TransientDriverError'],
        'transient@7': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@8': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@9': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'timeout': ['156.06', 65, 67, [1, 0, 2, 1, 1],
                    'b8b5838b898a6853', None],
    },
    'dos/full/service': {
        'clean': ['153.58', 66, 66, [0, 0, 0, 0, 0],
                  '26e5bfd24cbb958b', None],
        'transient@1': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        'd674f0642f2ba67b', None],
        'transient@2': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@3': ['152.5', 64, 65, [1, 0, 1, 0, 0],
                        'afc1c0809a80ff07', None],
        'transient@4': ['153.08', 65, 66, [1, 0, 1, 0, 0],
                        '6113b6bf92e2a19e', None],
        'transient@5': ['145.35999999999999', 61, 62, [0, 0, 1, 0, 0],
                        '114001266118eb97', 'TransientDriverError'],
        'transient@6': ['146.94', 62, 63, [0, 0, 1, 0, 0],
                        'bb5c6a06aabaa02c', 'TransientDriverError'],
        'transient@7': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@8': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'transient@9': ['154.56', 66, 67, [1, 0, 1, 0, 0],
                        'a3b4779eaa070023', None],
        'timeout': ['156.06', 65, 67, [1, 0, 2, 1, 1],
                    'b8b5838b898a6853', None],
    },
    'dos/knobs/raw': {
        'clean': ['177.34000000000003', 93, 93, [0, 0, 0, 0, 0],
                  '3d802f2a6c0fdec1', None],
        'transient@1': ['175.36', 91, 92, [1, 0, 1, 0, 0],
                        'de7cbf56ee568d18', None],
        'transient@2': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        'd397de97f20cbff5', None],
        'transient@3': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        '1924d119d630f012', None],
        'transient@4': ['175.68', 90, 91, [1, 0, 1, 0, 0],
                        'b6d65a5c8269f8a0', None],
        'transient@5': ['176.26000000000002', 91, 92, [1, 0, 1, 0, 0],
                        '8f1d37ffd2149f98', None],
        'transient@6': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        '1924d119d630f012', None],
        'transient@7': ['167.64000000000001', 87, 88, [0, 0, 1, 0, 0],
                        'a41317f88573b989', 'TransientDriverError'],
        'transient@8': ['169.22000000000003', 88, 89, [0, 0, 1, 0, 0],
                        '4b79b7af7ebeb765', 'TransientDriverError'],
        'transient@9': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                        '5865508770c19163', None],
        'transient@10': ['179.80000000000004', 94, 95, [1, 0, 1, 0, 0],
                         'cc91d75717a8867e', None],
        'transient@11': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                         '5865508770c19163', None],
        'transient@12': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                         '5865508770c19163', None],
        'timeout': ['178.34000000000003', 91, 93, [1, 0, 2, 1, 1],
                    'd77bda4853958ea5', None],
    },
    'dos/knobs/service': {
        'clean': ['177.34000000000003', 93, 93, [0, 0, 0, 0, 0],
                  '3d802f2a6c0fdec1', None],
        'transient@1': ['175.36', 91, 92, [1, 0, 1, 0, 0],
                        'de7cbf56ee568d18', None],
        'transient@2': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        'd397de97f20cbff5', None],
        'transient@3': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        '1924d119d630f012', None],
        'transient@4': ['175.68', 90, 91, [1, 0, 1, 0, 0],
                        'b6d65a5c8269f8a0', None],
        'transient@5': ['176.26000000000002', 91, 92, [1, 0, 1, 0, 0],
                        '8f1d37ffd2149f98', None],
        'transient@6': ['176.84000000000003', 92, 93, [1, 0, 1, 0, 0],
                        '1924d119d630f012', None],
        'transient@7': ['167.64000000000001', 87, 88, [0, 0, 1, 0, 0],
                        'a41317f88573b989', 'TransientDriverError'],
        'transient@8': ['169.22000000000003', 88, 89, [0, 0, 1, 0, 0],
                        '4b79b7af7ebeb765', 'TransientDriverError'],
        'transient@9': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                        '5865508770c19163', None],
        'transient@10': ['179.80000000000004', 94, 95, [1, 0, 1, 0, 0],
                         'cc91d75717a8867e', None],
        'transient@11': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                         '5865508770c19163', None],
        'transient@12': ['178.32000000000002', 93, 94, [1, 0, 1, 0, 0],
                         '5865508770c19163', None],
        'timeout': ['178.34000000000003', 91, 93, [1, 0, 2, 1, 1],
                    'd77bda4853958ea5', None],
    },
    'ecmp/diff/raw': {
        'clean': ['124.61999999999998', 42, 42, [0, 0, 0, 0, 0],
                  'efe473cf985f6fa4', None],
        'transient@1': ['124.11999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '5b72c3ddc59dde05', None],
        'transient@2': ['122.09999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '9f390564f765dedf', None],
        'transient@3': ['123.39999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '8276177db457364d', None],
        'transient@4': ['125.59999999999998', 42, 43, [1, 0, 1, 0, 0],
                        'd220c748e650b681', None],
        'timeout': ['127.1', 41, 43, [1, 0, 2, 1, 1],
                    '6f33a5ea173c8cee', None],
    },
    'ecmp/diff/service': {
        'clean': ['124.61999999999998', 42, 42, [0, 0, 0, 0, 0],
                  'efe473cf985f6fa4', None],
        'transient@1': ['124.11999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '5b72c3ddc59dde05', None],
        'transient@2': ['122.09999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '9f390564f765dedf', None],
        'transient@3': ['123.39999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '8276177db457364d', None],
        'transient@4': ['125.59999999999998', 42, 43, [1, 0, 1, 0, 0],
                        'd220c748e650b681', None],
        'timeout': ['127.1', 41, 43, [1, 0, 2, 1, 1],
                    '6f33a5ea173c8cee', None],
    },
    'ecmp/full/raw': {
        'clean': ['124.61999999999998', 42, 42, [0, 0, 0, 0, 0],
                  'efe473cf985f6fa4', None],
        'transient@1': ['124.11999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '5b72c3ddc59dde05', None],
        'transient@2': ['122.09999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '9f390564f765dedf', None],
        'transient@3': ['123.39999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '8276177db457364d', None],
        'transient@4': ['125.59999999999998', 42, 43, [1, 0, 1, 0, 0],
                        'd220c748e650b681', None],
        'timeout': ['127.1', 41, 43, [1, 0, 2, 1, 1],
                    '6f33a5ea173c8cee', None],
    },
    'ecmp/full/service': {
        'clean': ['124.61999999999998', 42, 42, [0, 0, 0, 0, 0],
                  'efe473cf985f6fa4', None],
        'transient@1': ['124.11999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '5b72c3ddc59dde05', None],
        'transient@2': ['122.09999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '9f390564f765dedf', None],
        'transient@3': ['123.39999999999998', 41, 42, [1, 0, 1, 0, 0],
                        '8276177db457364d', None],
        'transient@4': ['125.59999999999998', 42, 43, [1, 0, 1, 0, 0],
                        'd220c748e650b681', None],
        'timeout': ['127.1', 41, 43, [1, 0, 2, 1, 1],
                    '6f33a5ea173c8cee', None],
    },
    'ecmp/knobs/raw': {
        'clean': ['142.16000000000003', 53, 53, [0, 0, 0, 0, 0],
                  'a7ee3556aef2f09a', None],
        'transient@1': ['142.78000000000003', 53, 54, [1, 0, 1, 0, 0],
                        'e0e71b2c47d8257a', None],
        'transient@2': ['144.26000000000005', 54, 55, [1, 0, 1, 0, 0],
                        '5212c775bd248fd4', None],
        'transient@3': ['143.54000000000002', 54, 55, [1, 0, 1, 0, 0],
                        '550b8025d3ae9827', None],
        'transient@4': ['145.74', 55, 56, [1, 0, 1, 0, 0],
                        '7afd995b1cbd8f03', None],
        'transient@5': ['147.22000000000003', 56, 57, [1, 0, 1, 0, 0],
                        'f87cac39cdc81cad', None],
        'timeout': ['145.76000000000005', 53, 55, [1, 0, 2, 1, 1],
                    '663dc0ddaa9026a7', None],
    },
    'ecmp/knobs/service': {
        'clean': ['142.16000000000003', 53, 53, [0, 0, 0, 0, 0],
                  'a7ee3556aef2f09a', None],
        'transient@1': ['142.78000000000003', 53, 54, [1, 0, 1, 0, 0],
                        'e0e71b2c47d8257a', None],
        'transient@2': ['144.26000000000005', 54, 55, [1, 0, 1, 0, 0],
                        '5212c775bd248fd4', None],
        'transient@3': ['143.54000000000002', 54, 55, [1, 0, 1, 0, 0],
                        '550b8025d3ae9827', None],
        'transient@4': ['145.74', 55, 56, [1, 0, 1, 0, 0],
                        '7afd995b1cbd8f03', None],
        'transient@5': ['147.22000000000003', 56, 57, [1, 0, 1, 0, 0],
                        'f87cac39cdc81cad', None],
        'timeout': ['145.76000000000005', 53, 55, [1, 0, 2, 1, 1],
                    '663dc0ddaa9026a7', None],
    },
    'fabric_lb/diff/raw': {
        'clean': ['122.33999999999999', 41, 41, [0, 0, 0, 0, 0],
                  'e9aa3aff563ecc72', None],
        'transient@1': ['121.83999999999997', 40, 41, [1, 0, 1, 0, 0],
                        '4c656a08bf480a43', None],
        'transient@2': ['119.81999999999996', 39, 40, [1, 0, 1, 0, 0],
                        '4c9fde2445bcea0a', None],
        'transient@3': ['121.11999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '85586c85cb145d9c', None],
        'transient@4': ['123.31999999999998', 41, 42, [1, 0, 1, 0, 0],
                        'be269975ff42de03', None],
        'timeout': ['124.81999999999998', 40, 42, [1, 0, 2, 1, 1],
                    '391b512305e4f30b', None],
    },
    'fabric_lb/diff/service': {
        'clean': ['122.33999999999999', 41, 41, [0, 0, 0, 0, 0],
                  'e9aa3aff563ecc72', None],
        'transient@1': ['121.83999999999997', 40, 41, [1, 0, 1, 0, 0],
                        '4c656a08bf480a43', None],
        'transient@2': ['119.81999999999996', 39, 40, [1, 0, 1, 0, 0],
                        '4c9fde2445bcea0a', None],
        'transient@3': ['121.11999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '85586c85cb145d9c', None],
        'transient@4': ['123.31999999999998', 41, 42, [1, 0, 1, 0, 0],
                        'be269975ff42de03', None],
        'timeout': ['124.81999999999998', 40, 42, [1, 0, 2, 1, 1],
                    '391b512305e4f30b', None],
    },
    'fabric_lb/full/raw': {
        'clean': ['122.33999999999999', 41, 41, [0, 0, 0, 0, 0],
                  'e9aa3aff563ecc72', None],
        'transient@1': ['121.83999999999997', 40, 41, [1, 0, 1, 0, 0],
                        '4c656a08bf480a43', None],
        'transient@2': ['119.81999999999996', 39, 40, [1, 0, 1, 0, 0],
                        '4c9fde2445bcea0a', None],
        'transient@3': ['121.11999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '85586c85cb145d9c', None],
        'transient@4': ['123.31999999999998', 41, 42, [1, 0, 1, 0, 0],
                        'be269975ff42de03', None],
        'timeout': ['124.81999999999998', 40, 42, [1, 0, 2, 1, 1],
                    '391b512305e4f30b', None],
    },
    'fabric_lb/full/service': {
        'clean': ['122.33999999999999', 41, 41, [0, 0, 0, 0, 0],
                  'e9aa3aff563ecc72', None],
        'transient@1': ['121.83999999999997', 40, 41, [1, 0, 1, 0, 0],
                        '4c656a08bf480a43', None],
        'transient@2': ['119.81999999999996', 39, 40, [1, 0, 1, 0, 0],
                        '4c9fde2445bcea0a', None],
        'transient@3': ['121.11999999999998', 40, 41, [1, 0, 1, 0, 0],
                        '85586c85cb145d9c', None],
        'transient@4': ['123.31999999999998', 41, 42, [1, 0, 1, 0, 0],
                        'be269975ff42de03', None],
        'timeout': ['124.81999999999998', 40, 42, [1, 0, 2, 1, 1],
                    '391b512305e4f30b', None],
    },
    'fabric_lb/knobs/raw': {
        'clean': ['139.88000000000002', 52, 52, [0, 0, 0, 0, 0],
                  '654958de552a6016', None],
        'transient@1': ['140.50000000000003', 52, 53, [1, 0, 1, 0, 0],
                        '3e5b5ded0be59af3', None],
        'transient@2': ['141.98000000000002', 53, 54, [1, 0, 1, 0, 0],
                        '9e3d170b7481df5a', None],
        'transient@3': ['141.26000000000002', 53, 54, [1, 0, 1, 0, 0],
                        '5bfea7e3fe926d54', None],
        'transient@4': ['143.46000000000004', 54, 55, [1, 0, 1, 0, 0],
                        'dc70357992830637', None],
        'transient@5': ['144.94', 55, 56, [1, 0, 1, 0, 0],
                        '0118af35c8bd086d', None],
        'timeout': ['143.48000000000002', 52, 54, [1, 0, 2, 1, 1],
                    'c42c19b72e6623e3', None],
    },
    'fabric_lb/knobs/service': {
        'clean': ['139.88000000000002', 52, 52, [0, 0, 0, 0, 0],
                  '654958de552a6016', None],
        'transient@1': ['140.50000000000003', 52, 53, [1, 0, 1, 0, 0],
                        '3e5b5ded0be59af3', None],
        'transient@2': ['141.98000000000002', 53, 54, [1, 0, 1, 0, 0],
                        '9e3d170b7481df5a', None],
        'transient@3': ['141.26000000000002', 53, 54, [1, 0, 1, 0, 0],
                        '5bfea7e3fe926d54', None],
        'transient@4': ['143.46000000000004', 54, 55, [1, 0, 1, 0, 0],
                        'dc70357992830637', None],
        'transient@5': ['144.94', 55, 56, [1, 0, 1, 0, 0],
                        '0118af35c8bd086d', None],
        'timeout': ['143.48000000000002', 52, 54, [1, 0, 2, 1, 1],
                    'c42c19b72e6623e3', None],
    },
    'failover/diff/raw': {
        'clean': ['112.61999999999998', 37, 37, [0, 0, 0, 0, 0],
                  '0c1bc38f78ff384a', None],
        'transient@1': ['112.11999999999998', 36, 37, [1, 0, 1, 0, 0],
                        '8220cd33b96075ef', None],
        'transient@2': ['110.09999999999997', 35, 36, [1, 0, 1, 0, 0],
                        '2ffe8cf2bb178da1', None],
        'transient@3': ['111.39999999999998', 36, 37, [1, 0, 1, 0, 0],
                        'c0dc2a166e6d424a', None],
        'transient@4': ['113.59999999999997', 37, 38, [1, 0, 1, 0, 0],
                        'eb35d3eb09010271', None],
        'timeout': ['115.09999999999998', 36, 38, [1, 0, 2, 1, 1],
                    '64869872102b842d', None],
    },
    'failover/diff/service': {
        'clean': ['112.61999999999998', 37, 37, [0, 0, 0, 0, 0],
                  '0c1bc38f78ff384a', None],
        'transient@1': ['112.11999999999998', 36, 37, [1, 0, 1, 0, 0],
                        '8220cd33b96075ef', None],
        'transient@2': ['110.09999999999997', 35, 36, [1, 0, 1, 0, 0],
                        '2ffe8cf2bb178da1', None],
        'transient@3': ['111.39999999999998', 36, 37, [1, 0, 1, 0, 0],
                        'c0dc2a166e6d424a', None],
        'transient@4': ['113.59999999999997', 37, 38, [1, 0, 1, 0, 0],
                        'eb35d3eb09010271', None],
        'timeout': ['115.09999999999998', 36, 38, [1, 0, 2, 1, 1],
                    '64869872102b842d', None],
    },
    'failover/full/raw': {
        'clean': ['112.61999999999998', 37, 37, [0, 0, 0, 0, 0],
                  '0c1bc38f78ff384a', None],
        'transient@1': ['112.11999999999998', 36, 37, [1, 0, 1, 0, 0],
                        '8220cd33b96075ef', None],
        'transient@2': ['110.09999999999997', 35, 36, [1, 0, 1, 0, 0],
                        '2ffe8cf2bb178da1', None],
        'transient@3': ['111.39999999999998', 36, 37, [1, 0, 1, 0, 0],
                        'c0dc2a166e6d424a', None],
        'transient@4': ['113.59999999999997', 37, 38, [1, 0, 1, 0, 0],
                        'eb35d3eb09010271', None],
        'timeout': ['115.09999999999998', 36, 38, [1, 0, 2, 1, 1],
                    '64869872102b842d', None],
    },
    'failover/full/service': {
        'clean': ['112.61999999999998', 37, 37, [0, 0, 0, 0, 0],
                  '0c1bc38f78ff384a', None],
        'transient@1': ['112.11999999999998', 36, 37, [1, 0, 1, 0, 0],
                        '8220cd33b96075ef', None],
        'transient@2': ['110.09999999999997', 35, 36, [1, 0, 1, 0, 0],
                        '2ffe8cf2bb178da1', None],
        'transient@3': ['111.39999999999998', 36, 37, [1, 0, 1, 0, 0],
                        'c0dc2a166e6d424a', None],
        'transient@4': ['113.59999999999997', 37, 38, [1, 0, 1, 0, 0],
                        'eb35d3eb09010271', None],
        'timeout': ['115.09999999999998', 36, 38, [1, 0, 2, 1, 1],
                    '64869872102b842d', None],
    },
    'failover/knobs/raw': {
        'clean': ['130.16', 48, 48, [0, 0, 0, 0, 0],
                  '07b4471e7a9edaf3', None],
        'transient@1': ['130.78', 48, 49, [1, 0, 1, 0, 0],
                        'aa623798fadc4693', None],
        'transient@2': ['132.26', 49, 50, [1, 0, 1, 0, 0],
                        '64ad7fc4508aadc7', None],
        'transient@3': ['131.54', 49, 50, [1, 0, 1, 0, 0],
                        'b66db117cb9ca8ac', None],
        'transient@4': ['133.74', 50, 51, [1, 0, 1, 0, 0],
                        '55e92af432f82bf5', None],
        'transient@5': ['135.22', 51, 52, [1, 0, 1, 0, 0],
                        '5b8e7103eb6f87a1', None],
        'timeout': ['133.76', 48, 50, [1, 0, 2, 1, 1],
                    '4690fb70028889c4', None],
    },
    'failover/knobs/service': {
        'clean': ['130.16', 48, 48, [0, 0, 0, 0, 0],
                  '07b4471e7a9edaf3', None],
        'transient@1': ['130.78', 48, 49, [1, 0, 1, 0, 0],
                        'aa623798fadc4693', None],
        'transient@2': ['132.26', 49, 50, [1, 0, 1, 0, 0],
                        '64ad7fc4508aadc7', None],
        'transient@3': ['131.54', 49, 50, [1, 0, 1, 0, 0],
                        'b66db117cb9ca8ac', None],
        'transient@4': ['133.74', 50, 51, [1, 0, 1, 0, 0],
                        '55e92af432f82bf5', None],
        'transient@5': ['135.22', 51, 52, [1, 0, 1, 0, 0],
                        '5b8e7103eb6f87a1', None],
        'timeout': ['133.76', 48, 50, [1, 0, 2, 1, 1],
                    '4690fb70028889c4', None],
    },
    'linkguard/diff/raw': {
        'clean': ['145.92000000000002', 55, 55, [0, 0, 0, 0, 0],
                  'daff8068ac69b016', None],
        'transient@1': ['145.42000000000002', 54, 55, [1, 0, 1, 0, 0],
                        'd59f75656ae5405e', None],
        'transient@2': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@3': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@4': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@5': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@6': ['146.9', 55, 56, [1, 0, 1, 0, 0],
                        'f9c8e87282b5f767', None],
        'timeout': ['148.4', 54, 56, [1, 0, 2, 1, 1],
                    '1ff6a3a97ceccc88', None],
    },
    'linkguard/diff/service': {
        'clean': ['145.92000000000002', 55, 55, [0, 0, 0, 0, 0],
                  'daff8068ac69b016', None],
        'transient@1': ['145.42000000000002', 54, 55, [1, 0, 1, 0, 0],
                        'd59f75656ae5405e', None],
        'transient@2': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@3': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@4': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@5': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@6': ['146.9', 55, 56, [1, 0, 1, 0, 0],
                        'f9c8e87282b5f767', None],
        'timeout': ['148.4', 54, 56, [1, 0, 2, 1, 1],
                    '1ff6a3a97ceccc88', None],
    },
    'linkguard/full/raw': {
        'clean': ['145.92000000000002', 55, 55, [0, 0, 0, 0, 0],
                  'daff8068ac69b016', None],
        'transient@1': ['145.42000000000002', 54, 55, [1, 0, 1, 0, 0],
                        'd59f75656ae5405e', None],
        'transient@2': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@3': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@4': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@5': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@6': ['146.9', 55, 56, [1, 0, 1, 0, 0],
                        'f9c8e87282b5f767', None],
        'timeout': ['148.4', 54, 56, [1, 0, 2, 1, 1],
                    '1ff6a3a97ceccc88', None],
    },
    'linkguard/full/service': {
        'clean': ['145.92000000000002', 55, 55, [0, 0, 0, 0, 0],
                  'daff8068ac69b016', None],
        'transient@1': ['145.42000000000002', 54, 55, [1, 0, 1, 0, 0],
                        'd59f75656ae5405e', None],
        'transient@2': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@3': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@4': ['143.39999999999998', 53, 54, [1, 0, 1, 0, 0],
                        '91f7b7fe98f04781', None],
        'transient@5': ['144.7', 54, 55, [1, 0, 1, 0, 0],
                        'e8c1cd59e8708559', None],
        'transient@6': ['146.9', 55, 56, [1, 0, 1, 0, 0],
                        'f9c8e87282b5f767', None],
        'timeout': ['148.4', 54, 56, [1, 0, 2, 1, 1],
                    '1ff6a3a97ceccc88', None],
    },
    'linkguard/knobs/raw': {
        'clean': ['146.26000000000005', 59, 59, [0, 0, 0, 0, 0],
                  'e3aa011865602b98', None],
        'transient@1': ['149.48000000000002', 61, 62, [1, 0, 1, 0, 0],
                        'aaf71373b3a26d9d', None],
        'transient@2': ['150.96000000000004', 62, 63, [1, 0, 1, 0, 0],
                        'aee08da2bd57c88f', None],
        'transient@3': ['150.24', 62, 63, [1, 0, 1, 0, 0],
                        '04e1b9d7de2ab0c7', None],
        'transient@4': ['150.24', 62, 63, [1, 0, 1, 0, 0],
                        'd2501b4a28f6581d', None],
        'transient@5': ['152.44', 63, 64, [1, 0, 1, 0, 0],
                        '6a9ea35aa3deebd1', None],
        'transient@6': ['153.92000000000002', 64, 65, [1, 0, 1, 0, 0],
                        '8e41074246437402', None],
        'timeout': ['152.46000000000004', 61, 63, [1, 0, 2, 1, 1],
                    'f0c810b708bbf136', None],
    },
    'linkguard/knobs/service': {
        'clean': ['146.26000000000005', 59, 59, [0, 0, 0, 0, 0],
                  'e3aa011865602b98', None],
        'transient@1': ['149.48000000000002', 61, 62, [1, 0, 1, 0, 0],
                        'aaf71373b3a26d9d', None],
        'transient@2': ['150.96000000000004', 62, 63, [1, 0, 1, 0, 0],
                        'aee08da2bd57c88f', None],
        'transient@3': ['150.24', 62, 63, [1, 0, 1, 0, 0],
                        '04e1b9d7de2ab0c7', None],
        'transient@4': ['150.24', 62, 63, [1, 0, 1, 0, 0],
                        'd2501b4a28f6581d', None],
        'transient@5': ['152.44', 63, 64, [1, 0, 1, 0, 0],
                        '6a9ea35aa3deebd1', None],
        'transient@6': ['153.92000000000002', 64, 65, [1, 0, 1, 0, 0],
                        '8e41074246437402', None],
        'timeout': ['152.46000000000004', 61, 63, [1, 0, 2, 1, 1],
                    'f0c810b708bbf136', None],
    },
    'rl/diff/raw': {
        'clean': ['119.39999999999993', 55, 55, [0, 0, 0, 0, 0],
                  'fd97d8b9932bc0ff', None],
        'transient@1': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        'cd40059d09d72ada', None],
        'transient@2': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@3': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@4': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@5': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@6': ['120.37999999999994', 55, 56, [1, 0, 1, 0, 0],
                        '477e72cc625351fb', None],
        'timeout': ['121.87999999999994', 54, 56, [1, 0, 2, 1, 1],
                    '13eb7e2bc2f9429f', None],
    },
    'rl/diff/service': {
        'clean': ['119.39999999999993', 55, 55, [0, 0, 0, 0, 0],
                  'fd97d8b9932bc0ff', None],
        'transient@1': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        'cd40059d09d72ada', None],
        'transient@2': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@3': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@4': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@5': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@6': ['120.37999999999994', 55, 56, [1, 0, 1, 0, 0],
                        '477e72cc625351fb', None],
        'timeout': ['121.87999999999994', 54, 56, [1, 0, 2, 1, 1],
                    '13eb7e2bc2f9429f', None],
    },
    'rl/full/raw': {
        'clean': ['119.39999999999993', 55, 55, [0, 0, 0, 0, 0],
                  'fd97d8b9932bc0ff', None],
        'transient@1': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        'cd40059d09d72ada', None],
        'transient@2': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@3': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@4': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@5': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@6': ['120.37999999999994', 55, 56, [1, 0, 1, 0, 0],
                        '477e72cc625351fb', None],
        'timeout': ['121.87999999999994', 54, 56, [1, 0, 2, 1, 1],
                    '13eb7e2bc2f9429f', None],
    },
    'rl/full/service': {
        'clean': ['119.39999999999993', 55, 55, [0, 0, 0, 0, 0],
                  'fd97d8b9932bc0ff', None],
        'transient@1': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        'cd40059d09d72ada', None],
        'transient@2': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@3': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@4': ['118.31999999999994', 53, 54, [1, 0, 1, 0, 0],
                        'f932cdc243e50e96', None],
        'transient@5': ['118.89999999999993', 54, 55, [1, 0, 1, 0, 0],
                        '8c1314662e9208d6', None],
        'transient@6': ['120.37999999999994', 55, 56, [1, 0, 1, 0, 0],
                        '477e72cc625351fb', None],
        'timeout': ['121.87999999999994', 54, 56, [1, 0, 2, 1, 1],
                    '13eb7e2bc2f9429f', None],
    },
    'rl/knobs/raw': {
        'clean': ['129.81999999999996', 59, 59, [0, 0, 0, 0, 0],
                  '7bb79a4eceb83d2f', None],
        'transient@1': ['130.15999999999997', 61, 62, [1, 0, 1, 0, 0],
                        'b0251d82a96b358b', None],
        'transient@2': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        '1e675e57bc605f88', None],
        'transient@3': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        'de6d395765c1b370', None],
        'transient@4': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        'de6d395765c1b370', None],
        'transient@5': ['133.11999999999998', 63, 64, [1, 0, 1, 0, 0],
                        'd1c7b5b74db5809d', None],
        'transient@6': ['134.59999999999997', 64, 65, [1, 0, 1, 0, 0],
                        '12ac60ab9d4b4d28', None],
        'timeout': ['133.14', 61, 63, [1, 0, 2, 1, 1],
                    'ea19e04f86c2ee3c', None],
    },
    'rl/knobs/service': {
        'clean': ['129.81999999999996', 59, 59, [0, 0, 0, 0, 0],
                  '7bb79a4eceb83d2f', None],
        'transient@1': ['130.15999999999997', 61, 62, [1, 0, 1, 0, 0],
                        'b0251d82a96b358b', None],
        'transient@2': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        '1e675e57bc605f88', None],
        'transient@3': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        'de6d395765c1b370', None],
        'transient@4': ['131.64', 62, 63, [1, 0, 1, 0, 0],
                        'de6d395765c1b370', None],
        'transient@5': ['133.11999999999998', 63, 64, [1, 0, 1, 0, 0],
                        'd1c7b5b74db5809d', None],
        'transient@6': ['134.59999999999997', 64, 65, [1, 0, 1, 0, 0],
                        '12ac60ab9d4b4d28', None],
        'timeout': ['133.14', 61, 63, [1, 0, 2, 1, 1],
                    'ea19e04f86c2ee3c', None],
    },
    'sketch/diff/raw': {
        'clean': ['153.49200000000002', 37, 37, [0, 0, 0, 0, 0],
                  'c4bdf4fc4dbc20f5', None],
        'transient@1': ['152.99200000000002', 36, 37, [1, 0, 1, 0, 0],
                        '6c39f4a443ffd4a1', None],
        'transient@2': ['146.364', 35, 36, [1, 0, 1, 0, 0],
                        '718e08c0d1330420', None],
        'transient@3': ['149.96800000000002', 36, 37, [1, 0, 1, 0, 0],
                        '2769b90c83a8e75e', None],
        'transient@4': ['154.472', 37, 38, [1, 0, 1, 0, 0],
                        '90a093583ed36d84', None],
        'timeout': ['155.972', 36, 38, [1, 0, 2, 1, 1],
                    'bcfd402520487cd6', None],
    },
    'sketch/diff/service': {
        'clean': ['153.49200000000002', 37, 37, [0, 0, 0, 0, 0],
                  'c4bdf4fc4dbc20f5', None],
        'transient@1': ['152.99200000000002', 36, 37, [1, 0, 1, 0, 0],
                        '6c39f4a443ffd4a1', None],
        'transient@2': ['146.364', 35, 36, [1, 0, 1, 0, 0],
                        '718e08c0d1330420', None],
        'transient@3': ['149.96800000000002', 36, 37, [1, 0, 1, 0, 0],
                        '2769b90c83a8e75e', None],
        'transient@4': ['154.472', 37, 38, [1, 0, 1, 0, 0],
                        '90a093583ed36d84', None],
        'timeout': ['155.972', 36, 38, [1, 0, 2, 1, 1],
                    'bcfd402520487cd6', None],
    },
    'sketch/full/raw': {
        'clean': ['153.49200000000002', 37, 37, [0, 0, 0, 0, 0],
                  'c4bdf4fc4dbc20f5', None],
        'transient@1': ['152.99200000000002', 36, 37, [1, 0, 1, 0, 0],
                        '6c39f4a443ffd4a1', None],
        'transient@2': ['146.364', 35, 36, [1, 0, 1, 0, 0],
                        '718e08c0d1330420', None],
        'transient@3': ['149.96800000000002', 36, 37, [1, 0, 1, 0, 0],
                        '2769b90c83a8e75e', None],
        'transient@4': ['154.472', 37, 38, [1, 0, 1, 0, 0],
                        '90a093583ed36d84', None],
        'timeout': ['155.972', 36, 38, [1, 0, 2, 1, 1],
                    'bcfd402520487cd6', None],
    },
    'sketch/full/service': {
        'clean': ['153.49200000000002', 37, 37, [0, 0, 0, 0, 0],
                  'c4bdf4fc4dbc20f5', None],
        'transient@1': ['152.99200000000002', 36, 37, [1, 0, 1, 0, 0],
                        '6c39f4a443ffd4a1', None],
        'transient@2': ['146.364', 35, 36, [1, 0, 1, 0, 0],
                        '718e08c0d1330420', None],
        'transient@3': ['149.96800000000002', 36, 37, [1, 0, 1, 0, 0],
                        '2769b90c83a8e75e', None],
        'transient@4': ['154.472', 37, 38, [1, 0, 1, 0, 0],
                        '90a093583ed36d84', None],
        'timeout': ['155.972', 36, 38, [1, 0, 2, 1, 1],
                    'bcfd402520487cd6', None],
    },
    'sketch/knobs/raw': {
        'clean': ['212.568', 64, 64, [0, 0, 0, 0, 0],
                  'a7de1f9a25c93aa0', None],
        'transient@1': ['210.58800000000002', 62, 63, [1, 0, 1, 0, 0],
                        '2474a98e903677c8', None],
        'transient@2': ['212.068', 63, 64, [1, 0, 1, 0, 0],
                        '122fd72fdfb322f0', None],
        'transient@3': ['201.836', 61, 62, [1, 0, 1, 0, 0],
                        '3807351b9aeb2b76', None],
        'transient@4': ['205.44000000000003', 62, 63, [1, 0, 1, 0, 0],
                        '2455abb9a513b0d5', None],
        'transient@5': ['209.04400000000004', 63, 64, [1, 0, 1, 0, 0],
                        'ea7b6924e7a4aa58', None],
        'transient@6': ['213.548', 64, 65, [1, 0, 1, 0, 0],
                        '842c72cfe98a384c', None],
        'transient@7': ['215.028', 65, 66, [1, 0, 1, 0, 0],
                        '7884ec1d2a098d7f', None],
        'timeout': ['213.56799999999998', 62, 64, [1, 0, 2, 1, 1],
                    '38d85f0d0b313bca', None],
    },
    'sketch/knobs/service': {
        'clean': ['212.568', 64, 64, [0, 0, 0, 0, 0],
                  'a7de1f9a25c93aa0', None],
        'transient@1': ['210.58800000000002', 62, 63, [1, 0, 1, 0, 0],
                        '2474a98e903677c8', None],
        'transient@2': ['212.068', 63, 64, [1, 0, 1, 0, 0],
                        '122fd72fdfb322f0', None],
        'transient@3': ['201.836', 61, 62, [1, 0, 1, 0, 0],
                        '3807351b9aeb2b76', None],
        'transient@4': ['205.44000000000003', 62, 63, [1, 0, 1, 0, 0],
                        '2455abb9a513b0d5', None],
        'transient@5': ['209.04400000000004', 63, 64, [1, 0, 1, 0, 0],
                        'ea7b6924e7a4aa58', None],
        'transient@6': ['213.548', 64, 65, [1, 0, 1, 0, 0],
                        '842c72cfe98a384c', None],
        'transient@7': ['215.028', 65, 66, [1, 0, 1, 0, 0],
                        '7884ec1d2a098d7f', None],
        'timeout': ['213.56799999999998', 62, 64, [1, 0, 2, 1, 1],
                    '38d85f0d0b313bca', None],
    },
}


if __name__ == "__main__":
    print("EXPECTED = {")
    for config in CONFIGS:
        print(f"    {_key(*config)!r}: {{")
        for case, row in _cases(*config).items():
            head = f"        {case!r}: [" + ", ".join(map(repr, row[:4]))
            print(head + ",")
            print(" " * (head.index("[") + 1)
                  + ", ".join(map(repr, row[4:])) + "],")
        print("    },")
    print("}")
