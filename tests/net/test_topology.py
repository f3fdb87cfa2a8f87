"""Per-switch FabricSpec views of the scenario topologies, through
RouteManager."""

import pytest

from repro.apps.failover import RouteManager, neighbor_ring
from repro.errors import SimulationError
from repro.net.fabric_builder import FabricSpec, SwitchTopology

BASE_ADDR = 0x0A000100


def star(n_neighbors: int) -> SwitchTopology:
    """``s0`` with one addressed host per port and no detours."""
    spec = FabricSpec("star")
    spec.add_switch("s0")
    for index in range(n_neighbors):
        spec.add_host(f"n{index}", "s0", index, BASE_ADDR + index)
    return spec.switch_view("s0")


def leaf_spine(n_leaves: int, n_spines: int) -> SwitchTopology:
    """``s0`` as one leaf of a leaf-spine fabric: ports
    ``0..n_spines-1`` face the spines, and one addressed host under
    every other leaf is reachable through any spine."""
    spec = FabricSpec("leaf-spine")
    leaves = ["s0"] + [f"leaf{index}" for index in range(1, n_leaves)]
    for leaf in leaves:
        spec.add_switch(leaf, role="leaf", uplink_ports=tuple(range(n_spines)))
    for spine_index in range(n_spines):
        spec.add_switch(f"sp{spine_index}", role="spine")
    for leaf_index, leaf in enumerate(leaves):
        for spine_index in range(n_spines):
            spec.add_link(leaf, spine_index, f"sp{spine_index}", leaf_index)
    for index, leaf in enumerate(leaves[1:]):
        spec.add_host(f"h{index}", leaf, n_spines, BASE_ADDR + index)
    return spec.switch_view("s0")


class TestStar:
    def test_shape(self):
        topo = star(4)
        assert len(topo.port_map) == 4
        assert len(topo.dest_map) == 4
        assert len(topo.graph["s0"]) == 4

    def test_no_detours(self):
        manager = RouteManager(star(3))
        manager.fail_port(0)
        routes = manager.compute_routes()
        assert routes[BASE_ADDR] is None  # unreachable, no detour


class TestRing:
    def test_detour_exists_for_every_destination(self):
        manager = RouteManager(neighbor_ring(5).switch_view("s0"))
        for port in range(5):
            manager.failed_ports = {port}
            routes = manager.compute_routes()
            assert all(p is not None for p in routes.values())
            # The failed port is never used.
            assert all(p != port for p in routes.values())


class TestLeafSpine:
    def test_multipath(self):
        topo = leaf_spine(n_leaves=3, n_spines=2)
        assert topo.port_map == {"sp0": 0, "sp1": 1}
        manager = RouteManager(topo)
        routes = manager.compute_routes()
        assert set(routes) == {BASE_ADDR, BASE_ADDR + 1}
        assert set(routes.values()) <= {0, 1}
        # Losing one spine leaves the other.
        manager.fail_port(0)
        routes = manager.compute_routes()
        assert all(p == 1 for p in routes.values())


class TestValidation:
    def test_bad_port_map_rejected(self):
        topo = star(2)
        topo.port_map["ghost"] = 9
        with pytest.raises(SimulationError):
            topo.validate()

    def test_bad_dest_rejected(self):
        topo = star(2)
        topo.dest_map[99] = "nowhere"
        with pytest.raises(SimulationError):
            topo.validate()

    def test_unknown_switch_rejected(self):
        with pytest.raises(SimulationError):
            neighbor_ring(3).switch_view("ghost")
