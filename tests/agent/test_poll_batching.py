"""Agent-side measurement batching (the paper's Section 6 batched-DMA
optimization, extended to the dialogue's poll phase).

With ``poll_batching=True`` the agent wraps every reaction's
measurement reads in one driver batch, so the whole poll pays a single
PCIe round trip instead of one per container/mirror array.  Reaction
semantics must be unchanged -- only the poll phase gets cheaper -- and
the cost model's ``poll_batched`` flag must track the measured time.
"""

from __future__ import annotations

import pytest

from repro.analysis.costmodel import (
    predict_measurement_us,
    predict_reaction_time_us,
)
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.packet import Packet
from repro.system import MantisSystem

TWO_ARRAY_P4R = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;
register r1 { width : 32; instance_count : 8; }
register r2 { width : 32; instance_count : 8; }

action touch() {
    register_write(r1, 0, hdr.f);
    register_write(r2, 1, hdr.f);
    modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { touch; } default_action : touch(); }
control ingress { apply(t); }

reaction watch(reg r1[0:7], reg r2[0:7]) {
    // Host-side body.
}
"""


def _system(poll_batching: bool) -> MantisSystem:
    system = MantisSystem.from_source(
        TWO_ARRAY_P4R, num_ports=4, poll_batching=poll_batching
    )
    return system


class TestPollBatching:
    def _run(self, poll_batching: bool, iterations: int = 20):
        system = _system(poll_batching)
        seen = []
        system.agent.attach_python(
            "watch", lambda ctx: seen.append(dict(ctx.args))
        )
        system.agent.prologue()
        for i in range(iterations):
            system.asic.process(Packet({"hdr.f": i + 1}))
            system.agent.run_iteration()
        return system, seen

    def test_semantics_unchanged(self):
        """The reaction sees identical measurement values either way."""
        _, plain = self._run(False)
        _, batched = self._run(True)
        assert batched == plain
        assert batched  # the reaction did run
        assert batched[-1]["r1"][0] == 20

    def test_poll_phase_is_cheaper(self):
        """Two mirror arrays: 2 PCIe RTTs unbatched vs 1 batched."""
        plain, _ = self._run(False)
        batched, _ = self._run(True)
        saved = plain.driver.model.pcie_rtt_us
        assert (
            plain.agent.last_breakdown["poll_us"]
            - batched.agent.last_breakdown["poll_us"]
        ) == pytest.approx(saved, rel=0.01)
        # Only the poll phase changed.
        assert batched.agent.last_breakdown["mv_flip_us"] == (
            plain.agent.last_breakdown["mv_flip_us"]
        )
        assert batched.agent.last_breakdown["commit_us"] == (
            plain.agent.last_breakdown["commit_us"]
        )

    def test_phase_totals_accumulate(self):
        system, _ = self._run(True, iterations=10)
        totals = system.agent.phase_totals
        parts = (
            totals["mv_flip_us"] + totals["poll_us"]
            + totals["react_us"] + totals["commit_us"]
        )
        assert totals["total_us"] == pytest.approx(parts, rel=1e-9)
        assert totals["poll_us"] > 0

    def test_predictor_tracks_batched_measurement(self):
        model = _system(True).driver.model
        unbatched = predict_measurement_us(
            model, register_entries=8, register_arrays=2
        )
        batched = predict_measurement_us(
            model, register_entries=8, register_arrays=2, poll_batched=True
        )
        assert unbatched - batched == pytest.approx(model.pcie_rtt_us)

    @pytest.mark.parametrize("poll_batching", [False, True])
    def test_reaction_formula_matches_agent(self, poll_batching: bool):
        """The Section 8.1 formula with the matching poll_batched flag
        predicts the measured dialogue latency in both modes."""
        system = _system(poll_batching)
        system.agent.attach_python("watch", lambda ctx: None)
        system.agent.prologue()
        system.agent.run(50)
        measured = system.agent.avg_reaction_time_us
        predicted = predict_reaction_time_us(
            system.driver.model, system.spec, "watch",
            poll_batched=poll_batching,
        )
        assert predicted == pytest.approx(measured, rel=0.35)
        # And cross-checked: the mode flag matters (the two predictions
        # differ by exactly the saved round trips).
        other = predict_reaction_time_us(
            system.driver.model, system.spec, "watch",
            poll_batched=not poll_batching,
        )
        assert abs(predicted - other) == pytest.approx(
            system.driver.model.pcie_rtt_us
        )


@pytest.mark.parametrize("knob,value", [
    ("poll_batching", True),
    ("verify_commits", True),
])
def test_knob_set_after_prologue_takes_effect(knob, value):
    """The iteration is generated at ``prologue()``; setting one of the
    knobs it is built from afterwards must regenerate it, so the agent
    runs exactly like one constructed with that setting."""
    def run(late: bool):
        system = MantisSystem.from_source(
            TWO_ARRAY_P4R, num_ports=4, **({} if late else {knob: value})
        )
        system.agent.prologue()
        system.agent.run(3)
        if late:
            setattr(system.agent, knob, value)
        assert getattr(system.agent, knob) == value
        before = system.driver.ops_issued
        system.agent.run(3)
        return system.agent.last_breakdown, system.driver.ops_issued - before

    early_breakdown, early_ops = run(late=False)
    late_breakdown, late_ops = run(late=True)
    assert late_ops == early_ops
    # The two clocks stand at different instants (the first iterations
    # differed), so the phase lengths agree up to float rounding.
    assert late_breakdown == pytest.approx(early_breakdown, rel=1e-12)
