"""FabricSpec / FatTree builder and the routing layer."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import SimulationError
from repro.net.fabric_builder import FabricSpec, FatTree
from repro.net.routing import (
    SENTINEL_BUCKET,
    equal_cost_ports,
    install_routes,
)


def small_spec() -> FabricSpec:
    """Two leaves, two spines, one addressed host per leaf."""
    spec = FabricSpec("mini")
    spec.add_switch("leaf0", role="leaf", uplink_ports=(0, 1))
    spec.add_switch("leaf1", role="leaf", uplink_ports=(0, 1))
    spec.add_switch("spine0", role="spine")
    spec.add_switch("spine1", role="spine")
    for li in range(2):
        for si in range(2):
            spec.add_link(f"leaf{li}", si, f"spine{si}", li)
    spec.add_host("hA", "leaf0", 2, addr=0x0A000001)
    spec.add_host("hB", "leaf1", 2, addr=0x0A000002)
    return spec


class TestFabricSpec:
    def test_validation(self):
        spec = FabricSpec()
        spec.add_switch("s0")
        with pytest.raises(SimulationError):
            spec.add_switch("s0")
        with pytest.raises(SimulationError):
            spec.add_link("s0", 0, "nope", 0)
        spec.add_switch("s1")
        spec.add_link("s0", 0, "s1", 0)
        with pytest.raises(SimulationError):  # port already cabled
            spec.add_link("s0", 0, "s1", 1)
        with pytest.raises(SimulationError):  # host on a cabled port
            spec.add_host("h", "s0", 0)
        spec.add_host("h", "s0", 1, addr=7)
        with pytest.raises(SimulationError):  # duplicate address
            spec.add_host("h2", "s1", 1, addr=7)
        with pytest.raises(SimulationError):  # name collides with switch
            spec.add_host("s1", "s0", 2)

    def test_graph_and_views(self):
        spec = small_spec()
        graph = spec.graph()
        assert graph == {
            "leaf0": ["spine0", "spine1", "hA"],
            "leaf1": ["spine0", "spine1", "hB"],
            "spine0": ["leaf0", "leaf1"],
            "spine1": ["leaf0", "leaf1"],
            "hA": ["leaf0"],
            "hB": ["leaf1"],
        }
        view = spec.switch_view("leaf0")
        assert view.port_map == {"spine0": 0, "spine1": 1, "hA": 2}
        assert view.dest_map == {0x0A000001: "hA", 0x0A000002: "hB"}
        spine_view = spec.switch_view("spine1")
        assert spine_view.port_map == {"leaf0": 0, "leaf1": 1}

    def test_parallel_links_get_intermediate_nodes(self):
        spec = FabricSpec()
        spec.add_switch("s0")
        spec.add_switch("s1")
        spec.add_link("s0", 0, "s1", 0)
        spec.add_link("s0", 1, "s1", 1)
        graph = spec.graph()
        assert "s1" not in graph["s0"]
        view = spec.switch_view("s0")
        assert view.port_map == {"s0=s1.0": 0, "s0=s1.1": 1}
        for node in view.port_map:
            assert node in graph["s0"]
            assert graph[node] == ["s0", "s1"]

    def test_build_materializes_fleet(self):
        from repro.apps.fabric_lb import FABRIC_P4R

        spec = small_spec()
        built = spec.build(FABRIC_P4R)
        assert set(built.switches) == set(spec.switches)
        clock = built.clock
        for switch in built.switches.values():
            assert switch.system.clock is clock
        assert built.link("leaf0", 0) is built.link("spine0", 0)
        with pytest.raises(SimulationError):
            built.link("leaf0", 5)

    def test_empty_spec_rejected(self):
        with pytest.raises(SimulationError):
            FabricSpec().build("")


class TestFatTreeSpec:
    def test_k4_shape(self):
        tree = FatTree(4)
        assert len(tree.switches) == 20
        assert len(tree.hosts) == 16
        assert len(tree.links) == 32
        roles = {}
        for spec in tree.switches.values():
            roles[spec.role] = roles.get(spec.role, 0) + 1
        assert roles == {"core": 4, "agg": 8, "edge": 8}
        assert tree.host_addr(2, 1, 0) == 0x0A020102
        assert tree.hosts["h2_1_0"].addr == 0x0A020102
        assert len(tree.pod_hosts(0)) == 4
        assert {h.name for h in tree.pod_hosts(3)} == {
            "h3_0_0", "h3_0_1", "h3_1_0", "h3_1_1"
        }

    def test_odd_k_rejected(self):
        with pytest.raises(SimulationError):
            FatTree(3)

    def test_k6_scales(self):
        tree = FatTree(6)
        assert len(tree.switches) == 6 * 6 + 9  # 36 pod switches + 9 cores
        assert len(tree.hosts) == 6 * 3 * 3


class TestEqualCostPorts:
    def test_fat_tree_groups(self):
        tree = FatTree(4)
        edge_routes = equal_cost_ports(tree, "e0_0")
        # Local hosts: direct ports; everything else: both uplinks.
        assert edge_routes[tree.host_addr(0, 0, 0)] == [2]
        assert edge_routes[tree.host_addr(0, 0, 1)] == [3]
        for pod, i, m in ((0, 1, 0), (1, 0, 0), (3, 1, 1)):
            assert edge_routes[tree.host_addr(pod, i, m)] == [0, 1]
        agg_routes = equal_cost_ports(tree, "a0_0")
        assert agg_routes[tree.host_addr(0, 1, 0)] == [3]  # down to e0_1
        assert agg_routes[tree.host_addr(2, 0, 0)] == [0, 1]  # via cores
        core_routes = equal_cost_ports(tree, "c0")
        for addr, ports in core_routes.items():
            assert len(ports) == 1  # cores always one pod-facing port

    def test_aliases_route_like_their_host(self):
        tree = FatTree(4)
        alias = 0x0B000123
        routes = equal_cost_ports(
            tree, "e0_0", extra_dests={alias: "h2_0_0"}
        )
        assert routes[alias] == routes[tree.host_addr(2, 0, 0)]
        with pytest.raises(SimulationError):
            equal_cost_ports(tree, "e0_0", extra_dests={1: "ghost"})


class TestInstallRoutes:
    def test_unknown_mode_rejected(self):
        from repro.apps.fabric_lb import FABRIC_P4R

        built = FatTree(4).build(FABRIC_P4R)
        with pytest.raises(SimulationError):
            install_routes(built, mode="magic")

    def test_hashed_summary(self):
        from repro.apps.fabric_lb import FABRIC_P4R

        tree = FatTree(4)
        built = tree.build(FABRIC_P4R)
        for switch in built.switches.values():
            switch.system.agent.prologue()
        summary = install_routes(built, mode="hashed")
        assert summary["e0_0"]["ecmp_group"] == [0, 1]
        assert summary["e0_0"]["direct"] == 2  # the two local hosts
        assert summary["a0_0"]["ecmp_group"] == [0, 1]
        assert summary["c0"]["ecmp_group"] == []  # cores only go down
        assert summary["c0"]["routes"] == 16
        assert SENTINEL_BUCKET == 0xFFFF

    @pytest.mark.parametrize("mode", ["round_robin", "random"])
    def test_pinned_modes_deliver(self, mode):
        """Single-path modes must deliver a packet across the fabric."""
        from repro.apps.fabric_lb import FABRIC_P4R
        from repro.net.hosts import Host, SinkHost
        from repro.switch.packet import Packet

        tree = FatTree(4)
        built = tree.build(FABRIC_P4R)
        for switch in built.switches.values():
            switch.system.agent.prologue()
        install_routes(built, mode=mode, seed=3)
        for switch in built.switches.values():
            switch.system.agent.run_iteration()

        src = Host("src")
        built.attach_host("h0_0_0", src)
        sink = SinkHost("dst")
        built.attach_host("h3_1_1", sink)
        dst_addr = tree.host_addr(3, 1, 1)
        for n in range(4):
            src.send({
                "ipv4.srcAddr": tree.host_addr(0, 0, 0),
                "ipv4.dstAddr": dst_addr,
                "ipv4.proto": 17,
                "l4.sport": 1000 + n,
                "l4.dport": 53,
            })
        fabric = built.fabric
        fabric.run_until(fabric.clock.now + 50.0, agent=False)
        assert sink.rx_packets == 4


def test_routing_apps_import_no_third_party_graph_library():
    """The routing apps load nothing beyond the standard library and
    ``repro`` itself: shortest paths are the in-repo BFS, and numpy
    loads only with the columnar engine."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.apps.fabric_lb, repro.apps.failover\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)"
        " - {'repro'}))\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert result.stdout.strip() == "[]"
