"""Per-pipeline system knobs and commit-skew measurement.

Each pipeline is a :class:`MantisSystem`, so the fault / retry /
verification / timeline knobs behave per pipeline exactly as on a
single-pipeline switch; ``run_round_synchronized`` reports the window
between the first and last commit *completions*.
"""

import pytest

from repro.errors import AgentError
from repro.faults import FaultPlan, FaultSpec
from repro.multipipe import MultiPipelineSwitch
from repro.runtime import Scheduler
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.driver import RetryPolicy
from repro.system import MantisSystem

PROGRAM = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; out : 32; } }
header h_t hdr;
register seen { width : 32; instance_count : 4; }
malleable value scale { width : 16; init : 1; }
action work() {
    register_write(seen, 0, hdr.f);
    modify_field(hdr.out, ${scale});
}
table t { actions { work; } default_action : work(); }
control ingress { apply(t); }
reaction adapt(reg seen[0:3]) {
    ${scale} = seen[0];
}
"""


def _transient_plan(seed=0, triggers=3):
    return FaultPlan(seed=seed, specs=[
        FaultSpec(kind="transient", max_triggers=triggers),
    ])


class TestKnobPlumbing:
    def test_fault_plan_fires_on_pipeline_1_only(self):
        """Regression: these knobs used to be silently dropped."""
        switch = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=3,
            fault_plan={1: _transient_plan()},
            retry_policy=RetryPolicy(),
        )
        switch.prologue()
        switch.run_rounds(3)
        assert switch[0].fault_injector is None
        assert switch[2].fault_injector is None
        assert switch[1].fault_injector is not None
        assert switch[1].fault_injector.triggered > 0
        # The armed driver retried through the transients.
        assert switch[1].driver.retries_total > 0

    def test_shared_plan_arms_every_pipeline(self):
        switch = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=2,
            fault_plan=_transient_plan(),
            retry_policy=RetryPolicy(),
        )
        switch.prologue()
        switch.run_rounds(2)
        assert all(p.fault_injector is not None for p in switch.pipelines)

    def test_retry_policy_and_verify_commits_reach_components(self):
        policy = RetryPolicy(max_attempts=7)
        switch = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=2,
            retry_policy=policy, verify_commits=True,
        )
        for pipeline in switch.pipelines:
            assert pipeline.driver.retry_policy is policy
            assert pipeline.agent.verify_commits is True

    def test_record_timeline_reaches_drivers(self):
        switch = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=2, record_timeline=True,
        )
        switch.prologue()
        switch.run_round()
        for pipeline in switch.pipelines:
            assert pipeline.driver.record_timeline is True
            assert len(pipeline.driver.timeline) > 0

    def test_seed_offsets_per_pipeline(self):
        switch = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=3, seed=10,
        )
        assert [p.asic._seed for p in switch.pipelines] == [10, 11, 12]
        default = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=3)
        assert [p.asic._seed for p in default.pipelines] == [0, 1, 2]

    def test_pipeline_exposes_its_system(self):
        switch = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=2)
        for pipeline in switch.pipelines:
            assert isinstance(pipeline, MantisSystem)
            assert pipeline.clock is switch.clock
        # Every other keyword reaches each system unchanged.
        paced = MultiPipelineSwitch.from_source(
            PROGRAM, n_pipelines=2, pacing_sleep_us=3.0, num_ports=8,
        )
        for pipeline in paced.pipelines:
            assert pipeline.agent.pacing_sleep_us == 3.0
            assert pipeline.asic.num_ports == 8


class TestCommitSkew:
    def test_single_pipeline_skew_is_zero(self):
        """Regression: the old measurement started the window before
        the first commit, so even one pipeline reported its own commit
        duration as 'skew'."""
        switch = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=1)
        switch.prologue()
        assert switch.run_round_synchronized() == 0.0

    def test_skew_excludes_first_commit_duration(self):
        # Reference: the simulated duration of one deferred commit.
        solo = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=1)
        solo.prologue()
        solo[0].agent.run_iteration(commit=False)
        before = solo.clock.now
        solo[0].agent.commit()
        one_commit = solo.clock.now - before
        assert one_commit > 0.0

        duo = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=2)
        duo.prologue()
        skew = duo.run_round_synchronized()
        # Two back-to-back commits of identical cost: the window spans
        # only the second.  The old bug returned both (2x one_commit).
        assert skew == pytest.approx(one_commit)
        assert skew < 2 * one_commit


class TestScheduledPipelines:
    def test_spawn_agents_interleaves_on_one_timeline(self):
        switch = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=3)
        switch.prologue()
        scheduler = Scheduler(clock=switch.clock)
        actors = switch.spawn_agents(scheduler)
        assert len(actors) == 3
        scheduler.run_until(switch.clock.now + 300.0)
        iterations = [p.agent.iterations for p in switch.pipelines]
        assert all(count > 2 for count in iterations)
        # Timestamp-ordered busy-loops: no pipeline starves another.
        assert max(iterations) - min(iterations) <= 1

    def test_spawn_agents_requires_shared_clock(self):
        switch = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=2)
        with pytest.raises(AgentError):
            switch.spawn_agents(Scheduler())
