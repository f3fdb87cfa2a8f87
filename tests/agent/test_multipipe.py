"""Multi-pipeline agent tests (Sections 4 and 6)."""

import pytest

from repro.errors import AgentError
from repro.multipipe import MultiPipelineSwitch
from repro.switch.asic import STANDARD_METADATA_P4
from repro.switch.packet import Packet

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


@pytest.fixture
def switch():
    multi = MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=3)
    multi.prologue()
    return multi


class TestIsolationBetweenPipelines:
    def test_register_state_is_disjoint(self, switch):
        switch[0].asic.process(Packet({"hdr.f": 111}))
        switch[1].asic.process(Packet({"hdr.f": 222}))
        mirror = switch.artifacts.spec.mirrors["seen"].duplicate
        assert switch[0].asic.registers[mirror].read(0) == 111
        assert switch[1].asic.registers[mirror].read(0) == 222
        assert switch[2].asic.registers[mirror].read(0) == 0

    def test_agents_react_to_their_own_pipeline(self, switch):
        switch[0].asic.process(Packet({"hdr.f": 7}))
        switch[1].asic.process(Packet({"hdr.f": 9}))
        switch.run_round()
        assert switch[0].agent.read_malleable("scale") == 7
        assert switch[1].agent.read_malleable("scale") == 9
        assert switch[2].agent.read_malleable("scale") == 0

    def test_data_plane_sees_per_pipeline_config(self, switch):
        switch[0].asic.process(Packet({"hdr.f": 7}))
        switch.run_round()
        p0 = Packet({"hdr.f": 0})
        switch[0].asic.process(p0)
        p2 = Packet({"hdr.f": 0})
        switch[2].asic.process(p2)
        assert p0.get("hdr.out") == 7
        assert p2.get("hdr.out") == 0

    def test_table_state_is_disjoint(self, switch):
        # Driver-level entry add on one pipeline only.
        switch[0].driver.add_entry  # tables exist per pipeline
        t0 = switch[0].asic.tables["t"]
        t1 = switch[1].asic.tables["t"]
        assert t0 is not t1


class TestScheduling:
    def test_round_advances_shared_clock(self, switch):
        before = switch.clock.now
        busy = switch.run_round()
        assert switch.clock.now >= before + busy

    def test_round_robin_fairness(self, switch):
        switch.run_rounds(5)
        iterations = [p.agent.iterations for p in switch.pipelines]
        assert iterations == [5, 5, 5]

    def test_per_pipeline_reaction_factories(self, switch):
        log = {0: [], 1: [], 2: []}

        def factory(system):
            index = switch.pipelines.index(system)

            def reaction(ctx):
                log[index].append(ctx.args["seen"][0])

            return reaction

        switch.attach_python("adapt", factory)
        switch[1].asic.process(Packet({"hdr.f": 42}))
        switch.run_round()
        assert log[0] == [0]
        assert log[1] == [42]
        assert log[2] == [0]


class TestConstruction:
    def test_requires_one_pipeline(self):
        with pytest.raises(AgentError):
            MultiPipelineSwitch.from_source(PROGRAM, n_pipelines=0)

    def test_len_and_indexing(self, switch):
        assert len(switch) == 3
        assert switch[2] is switch.pipelines[2]
        assert len({id(system) for system in switch.pipelines}) == 3
