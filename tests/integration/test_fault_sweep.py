"""Randomized fault-injection sweep over the Figure 15 DoS workload.

Each seed builds a fresh DoS mitigation system with retries and commit
verification enabled, attaches a randomized :class:`FaultPlan` to the
control channel, and drives the dialogue loop against a scripted
attacker-plus-benign packet mix.  The plan goes quiet partway through;
after a short clean tail, the run must satisfy the paper's claims:

(a) serializable isolation held throughout -- the active-version entry
    set never changed except at a vv flip (no packet can have matched
    a mixed-version configuration);
(b) the agent reports healthy once faults clear, with the two-entry
    shadow invariant restored on the device;
(c) a fresh agent recovered from switch state agrees with the
    surviving agent on every piece of committed configuration.

``MANTIS_FAULT_SEED`` offsets the seed block so CI can run disjoint
matrices: base ``B`` covers seeds ``B*1000 .. B*1000+49``.
"""

import os
import random

import pytest

from repro.agent.agent import MantisAgent
from repro.apps.dos import DOS_P4R, DosMitigationApp
from repro.errors import DriverTimeoutError, TransientDriverError
from repro.faults import (
    FaultInjector,
    VersionInvariantChecker,
    random_fault_plan,
    shadow_parity_violations,
)
from repro.switch.driver import RetryPolicy
from repro.switch.packet import Packet
from repro.system import MantisSystem

BASE_SEED = int(os.environ.get("MANTIS_FAULT_SEED", "0"))
NUM_PLANS = 50
SEEDS = range(BASE_SEED * 1000, BASE_SEED * 1000 + NUM_PLANS)

DST_ADDR = 0x0A00FFFF
ATTACKER = 0x0AFF0001
FAULTY_ITERATIONS = 45
CLEAN_TAIL_ITERATIONS = 10


def build_app(ctrl_service=False):
    """The DoS app on a faultable channel; ``ctrl_service=True`` routes
    the agent's ops through a control-plane service session."""
    system = MantisSystem.from_source(
        DOS_P4R,
        retry_policy=RetryPolicy(),
        verify_commits=True,
        num_ports=8,
        ctrl_service=ctrl_service,
    )
    app = DosMitigationApp(
        system=system, threshold_gbps=0.5, min_duration_us=20.0
    )
    app.prologue()
    app.add_route(DST_ADDR, 1)
    return app


def scripted_packets(rng, iteration):
    """One dialogue interval's worth of traffic: benign background,
    then the flooder's burst.  The flooder is last so the per-interval
    source sample (an ``ing`` field export: the most recent packet)
    always attributes the marginal bytes to it, as a sustained flood
    does in the Figure 15 topology."""
    for _ in range(rng.randrange(1, 4)):
        yield 0x0A000001 + rng.randrange(8), rng.choice((80, 200, 600))
    yield ATTACKER, 1500
    yield ATTACKER, 1500


def drive(app, rng, iteration):
    for src, size in scripted_packets(rng, iteration):
        packet = Packet(
            {"ipv4.srcAddr": src, "ipv4.dstAddr": DST_ADDR},
            size_bytes=size,
        )
        app.system.asic.process(packet)
    try:
        app.system.agent.run_iteration()
    except (TransientDriverError, DriverTimeoutError):
        # A reaction-issued blocklist add exhausted its retry budget;
        # the app retries the block on a later sample.
        pass


def blocklist_view(agent):
    handle = agent.table("blocklist")
    return sorted(
        (user.key, user.action, tuple(user.args))
        for user in handle._users.values()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dos_workload_survives_fault_plan(seed):
    survive_fault_plan(seed, ctrl_service=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_dos_workload_survives_fault_plan_via_session(seed):
    survive_fault_plan(seed, ctrl_service=True)


def survive_fault_plan(seed, ctrl_service):
    app = build_app(ctrl_service)
    system = app.system
    agent = system.agent
    checker = VersionInvariantChecker(system)
    plan = random_fault_plan(
        seed, start_us=system.clock.now, duration_us=1200.0
    )
    injector = FaultInjector(plan).attach(system.driver)
    rng = random.Random(seed ^ 0xD05)

    for iteration in range(FAULTY_ITERATIONS):
        drive(app, rng, iteration)
    injector.enabled = False
    for iteration in range(CLEAN_TAIL_ITERATIONS):
        drive(app, rng, FAULTY_ITERATIONS + iteration)

    # (a) isolation: active config only ever changed at vv flips.
    assert checker.violations == []
    assert checker.flips > 0

    # (b) converged and healthy once the plan went quiet.
    health = agent.health()
    assert health.healthy, (
        f"seed {seed}: still degraded after clean tail: {health}"
    )
    assert shadow_parity_violations(system) == []
    assert app.is_blocked(ATTACKER)

    # (c) a restarted agent reconstructs the same committed state.
    fresh = MantisAgent(system.artifacts, system.driver)
    fresh.recover()
    assert fresh.vv == agent.vv
    assert fresh.mv == agent.mv
    assert fresh._master_args == agent._master_args
    assert fresh._param_values == agent._param_values
    assert blocklist_view(fresh) == blocklist_view(agent)
