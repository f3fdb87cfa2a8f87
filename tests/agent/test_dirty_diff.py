"""Dirty-diff commits: the agent tracks which malleable values each
iteration actually changed and commits only those init shadows.

Guarantees under test:

- a write that matches the committed value is deduplicated (no
  staging, no shadow write, counted in ``dirty_writes_skipped``);
- a changed-then-reverted value leaves its shadow clean;
- ``diff`` and ``full`` mode converge to identical committed state on
  identical workloads -- the diff only removes redundant driver ops;
- ``full`` mode rewrites every non-master shadow each commit, so the
  op gap per idle iteration is exactly 2 writes per clean shadow.
"""

import pytest

from repro.agent.agent import COMMIT_MODES, MantisAgent
from repro.compiler import CompilerOptions
from repro.errors import AgentError
from repro.system import MantisSystem

PROGRAM = """
header_type h_t { fields { key : 16; out : 32; } }
header h_t hdr;
parser start { extract(hdr); return ingress; }

malleable value v0 { width : 32; init : 10; }
malleable value v1 { width : 32; init : 11; }
malleable value v2 { width : 32; init : 12; }
malleable value v3 { width : 32; init : 13; }

action stamp() { modify_field(hdr.out, ${v1}); }
table t { actions { stamp; } default_action : stamp(); }
control ingress { apply(t); }
"""


def build(**kwargs):
    # One malleable param per init bin: master carries (vv, mv, v0),
    # v1/v2/v3 each get their own shadow table.
    system = MantisSystem.from_source(
        PROGRAM,
        options=CompilerOptions(max_init_action_params=3),
        num_ports=4,
        **kwargs,
    )
    system.agent.prologue()
    return system


def iteration_ops(system):
    before = system.driver.ops_issued
    system.agent.run_iteration()
    return system.driver.ops_issued - before


def test_commit_mode_validated():
    with pytest.raises(AgentError):
        build(commit_mode="sometimes")
    assert set(COMMIT_MODES) == {"diff", "full"}


def test_redundant_write_is_skipped():
    system = build(commit_mode="diff")
    idle = iteration_ops(system)  # vv flip only
    system.agent.write_malleable("v1", 11)  # committed value
    assert system.agent.dirty_writes_skipped == 1
    assert system.agent.dirty_writes_staged == 0
    assert iteration_ops(system) == idle


def test_changed_write_commits_and_next_write_dedups_against_it():
    system = build(commit_mode="diff")
    system.agent.write_malleable("v1", 99)
    assert system.agent.dirty_writes_staged == 1
    system.agent.run_iteration()
    assert system.agent.read_malleable("v1") == 99
    # The committed baseline moved: 99 is now redundant, 11 is not.
    system.agent.write_malleable("v1", 99)
    assert system.agent.dirty_writes_skipped == 1
    system.agent.write_malleable("v1", 11)
    assert system.agent.dirty_writes_staged == 2


def test_write_then_revert_leaves_shadow_clean():
    system = build(commit_mode="diff")
    idle = iteration_ops(system)
    system.agent.write_malleable("v2", 50)
    system.agent.write_malleable("v2", 12)  # back to committed
    assert all(not s.dirty for s in system.agent._init_shadows.values())
    assert iteration_ops(system) == idle


def test_master_param_rides_the_flip_for_free():
    system = build(commit_mode="diff")
    idle = iteration_ops(system)
    # v0 lives in the master init entry: committing it costs no extra
    # op -- the updated args fold into the unavoidable vv flip.
    system.agent.write_malleable("v0", 77)
    assert iteration_ops(system) == idle
    assert system.agent.read_malleable("v0") == 77


def test_dirty_shadow_costs_prepare_plus_mirror():
    system = build(commit_mode="diff")
    idle = iteration_ops(system)
    system.agent.write_malleable("v3", 1000)
    assert iteration_ops(system) == idle + 2


def test_full_mode_rewrites_every_shadow():
    diff = build(commit_mode="diff")
    full = build(commit_mode="full")
    n_shadows = sum(
        1 for t in full.spec.init_tables if not t.master
    )
    assert n_shadows == 3
    assert iteration_ops(full) - iteration_ops(diff) == 2 * n_shadows


def test_diff_and_full_converge_identically():
    updates = [
        [("v1", 100)],
        [("v2", 200), ("v3", 300)],
        [],
        [("v1", 100)],  # redundant under diff
        [("v3", 301), ("v0", 400)],
    ]
    finals = {}
    ops = {}
    for mode in COMMIT_MODES:
        system = build(commit_mode=mode)
        baseline = system.driver.ops_issued
        for batch in updates:
            for name, value in batch:
                system.agent.write_malleable(name, value)
            system.agent.run_iteration()
        finals[mode] = {
            name: system.agent.read_malleable(name)
            for name in ("v0", "v1", "v2", "v3")
        }
        ops[mode] = system.driver.ops_issued - baseline
    assert finals["diff"] == finals["full"]
    assert finals["diff"] == {"v0": 400, "v1": 100, "v2": 200, "v3": 301}
    assert ops["diff"] < ops["full"]


def test_hit_rate_surfaces_in_health():
    system = build(commit_mode="diff")
    system.agent.write_malleable("v1", 11)  # skipped
    system.agent.write_malleable("v2", 40)  # staged
    system.agent.write_malleable("v3", 41)  # staged
    system.agent.write_malleable("v3", 13)  # reverted -> skipped
    system.agent.run_iteration()
    health = system.agent.health()
    assert health.commit_mode == "diff"
    assert health.dirty_diff_hit_rate == pytest.approx(0.5)


def test_recovered_agent_keeps_diffing_correctly():
    """Recovery rebuilds the committed baselines the diff compares
    against; a redundant write after recover() must still be skipped."""
    system = build(commit_mode="diff")
    system.agent.write_malleable("v1", 99)
    system.agent.run_iteration()

    fresh = MantisAgent(system.artifacts, system.driver, commit_mode="diff")
    fresh.recover()
    fresh.write_malleable("v1", 99)
    assert fresh.dirty_writes_skipped == 1
    fresh.write_malleable("v1", 5)
    fresh.run_iteration()
    assert fresh.read_malleable("v1") == 5


def test_full_mode_set_after_prologue_rewrites_every_shadow():
    # The iteration is generated at prologue(); switching the mode
    # afterwards regenerates it (the diff-mode vv flip alone would
    # otherwise skip the shadow rewrites).
    system = build(commit_mode="diff")
    idle = iteration_ops(system)
    system.agent.commit_mode = "full"
    assert iteration_ops(system) == idle + 2 * 3
