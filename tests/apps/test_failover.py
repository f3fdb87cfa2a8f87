"""Use case #2 integration tests: gray-failure detection and reroute."""

import pytest

from repro.apps.failover import (
    GrayFailureApp,
    RouteManager,
    build_failover_scenario,
    neighbor_ring,
)
from repro.net.fabric_builder import FabricSpec
from repro.switch.packet import Packet

#: ``(ring size, failed ports, egress port per destination 0..n-1)``,
#: recorded from the shortest-path library the BFS replaced: the
#: lowest-port tie rule must keep every one of these picks.
RING_ROUTES = [
    (3, (), [0, 1, 2]),
    (3, (0,), [1, 1, 2]),
    (3, (0, 1), [2, 2, 2]),
    (3, (0, 2), [1, 1, 1]),
    (3, (1,), [0, 0, 2]),
    (3, (1, 2), [0, 0, 0]),
    (3, (2,), [0, 1, 0]),
    (4, (), [0, 1, 2, 3]),
    (4, (0,), [1, 1, 2, 3]),
    (4, (0, 1), [3, 2, 2, 3]),
    (4, (0, 2), [1, 1, 1, 3]),
    (4, (0, 3), [1, 1, 2, 2]),
    (4, (1,), [0, 0, 2, 3]),
    (4, (1, 2), [0, 0, 3, 3]),
    (4, (1, 3), [0, 0, 2, 0]),
    (4, (2,), [0, 1, 1, 3]),
    (4, (2, 3), [0, 1, 1, 0]),
    (4, (3,), [0, 1, 2, 0]),
    (5, (), [0, 1, 2, 3, 4]),
    (5, (0,), [1, 1, 2, 3, 4]),
    (5, (0, 1), [4, 2, 2, 3, 4]),
    (5, (0, 2), [1, 1, 1, 3, 4]),
    (5, (0, 3), [1, 1, 2, 2, 4]),
    (5, (0, 4), [1, 1, 2, 3, 3]),
    (5, (1,), [0, 0, 2, 3, 4]),
    (5, (1, 2), [0, 0, 3, 3, 4]),
    (5, (1, 3), [0, 0, 2, 2, 4]),
    (5, (1, 4), [0, 0, 2, 3, 0]),
    (5, (2,), [0, 1, 1, 3, 4]),
    (5, (2, 3), [0, 1, 1, 4, 4]),
    (5, (2, 4), [0, 1, 1, 3, 0]),
    (5, (3,), [0, 1, 2, 2, 4]),
    (5, (3, 4), [0, 1, 2, 2, 0]),
    (5, (4,), [0, 1, 2, 3, 0]),
    (6, (), [0, 1, 2, 3, 4, 5]),
    (6, (0,), [1, 1, 2, 3, 4, 5]),
    (6, (0, 1), [5, 2, 2, 3, 4, 5]),
    (6, (0, 2), [1, 1, 1, 3, 4, 5]),
    (6, (0, 3), [1, 1, 2, 2, 4, 5]),
    (6, (0, 4), [1, 1, 2, 3, 3, 5]),
    (6, (0, 5), [1, 1, 2, 3, 4, 4]),
    (6, (1,), [0, 0, 2, 3, 4, 5]),
    (6, (1, 2), [0, 0, 3, 3, 4, 5]),
    (6, (1, 3), [0, 0, 2, 2, 4, 5]),
    (6, (1, 4), [0, 0, 2, 3, 3, 5]),
    (6, (1, 5), [0, 0, 2, 3, 4, 0]),
    (6, (2,), [0, 1, 1, 3, 4, 5]),
    (6, (2, 3), [0, 1, 1, 4, 4, 5]),
    (6, (2, 4), [0, 1, 1, 3, 3, 5]),
    (6, (2, 5), [0, 1, 1, 3, 4, 0]),
    (6, (3,), [0, 1, 2, 2, 4, 5]),
    (6, (3, 4), [0, 1, 2, 2, 5, 5]),
    (6, (3, 5), [0, 1, 2, 2, 4, 0]),
    (6, (4,), [0, 1, 2, 3, 3, 5]),
    (6, (4, 5), [0, 1, 2, 3, 3, 0]),
    (6, (5,), [0, 1, 2, 3, 4, 0]),
    (7, (), [0, 1, 2, 3, 4, 5, 6]),
    (7, (0,), [1, 1, 2, 3, 4, 5, 6]),
    (7, (0, 1), [6, 2, 2, 3, 4, 5, 6]),
    (7, (0, 2), [1, 1, 1, 3, 4, 5, 6]),
    (7, (0, 3), [1, 1, 2, 2, 4, 5, 6]),
    (7, (0, 4), [1, 1, 2, 3, 3, 5, 6]),
    (7, (0, 5), [1, 1, 2, 3, 4, 4, 6]),
    (7, (0, 6), [1, 1, 2, 3, 4, 5, 5]),
    (7, (1,), [0, 0, 2, 3, 4, 5, 6]),
    (7, (1, 2), [0, 0, 3, 3, 4, 5, 6]),
    (7, (1, 3), [0, 0, 2, 2, 4, 5, 6]),
    (7, (1, 4), [0, 0, 2, 3, 3, 5, 6]),
    (7, (1, 5), [0, 0, 2, 3, 4, 4, 6]),
    (7, (1, 6), [0, 0, 2, 3, 4, 5, 0]),
    (7, (2,), [0, 1, 1, 3, 4, 5, 6]),
    (7, (2, 3), [0, 1, 1, 4, 4, 5, 6]),
    (7, (2, 4), [0, 1, 1, 3, 3, 5, 6]),
    (7, (2, 5), [0, 1, 1, 3, 4, 4, 6]),
    (7, (2, 6), [0, 1, 1, 3, 4, 5, 0]),
    (7, (3,), [0, 1, 2, 2, 4, 5, 6]),
    (7, (3, 4), [0, 1, 2, 2, 5, 5, 6]),
    (7, (3, 5), [0, 1, 2, 2, 4, 4, 6]),
    (7, (3, 6), [0, 1, 2, 2, 4, 5, 0]),
    (7, (4,), [0, 1, 2, 3, 3, 5, 6]),
    (7, (4, 5), [0, 1, 2, 3, 3, 6, 6]),
    (7, (4, 6), [0, 1, 2, 3, 3, 5, 0]),
    (7, (5,), [0, 1, 2, 3, 4, 4, 6]),
    (7, (5, 6), [0, 1, 2, 3, 4, 4, 0]),
    (7, (6,), [0, 1, 2, 3, 4, 5, 0]),
    (8, (), [0, 1, 2, 3, 4, 5, 6, 7]),
    (8, (0,), [1, 1, 2, 3, 4, 5, 6, 7]),
    (8, (0, 1), [7, 2, 2, 3, 4, 5, 6, 7]),
    (8, (0, 2), [1, 1, 1, 3, 4, 5, 6, 7]),
    (8, (0, 3), [1, 1, 2, 2, 4, 5, 6, 7]),
    (8, (0, 4), [1, 1, 2, 3, 3, 5, 6, 7]),
    (8, (0, 5), [1, 1, 2, 3, 4, 4, 6, 7]),
    (8, (0, 6), [1, 1, 2, 3, 4, 5, 5, 7]),
    (8, (0, 7), [1, 1, 2, 3, 4, 5, 6, 6]),
    (8, (1,), [0, 0, 2, 3, 4, 5, 6, 7]),
    (8, (1, 2), [0, 0, 3, 3, 4, 5, 6, 7]),
    (8, (1, 3), [0, 0, 2, 2, 4, 5, 6, 7]),
    (8, (1, 4), [0, 0, 2, 3, 3, 5, 6, 7]),
    (8, (1, 5), [0, 0, 2, 3, 4, 4, 6, 7]),
    (8, (1, 6), [0, 0, 2, 3, 4, 5, 5, 7]),
    (8, (1, 7), [0, 0, 2, 3, 4, 5, 6, 0]),
    (8, (2,), [0, 1, 1, 3, 4, 5, 6, 7]),
    (8, (2, 3), [0, 1, 1, 4, 4, 5, 6, 7]),
    (8, (2, 4), [0, 1, 1, 3, 3, 5, 6, 7]),
    (8, (2, 5), [0, 1, 1, 3, 4, 4, 6, 7]),
    (8, (2, 6), [0, 1, 1, 3, 4, 5, 5, 7]),
    (8, (2, 7), [0, 1, 1, 3, 4, 5, 6, 0]),
    (8, (3,), [0, 1, 2, 2, 4, 5, 6, 7]),
    (8, (3, 4), [0, 1, 2, 2, 5, 5, 6, 7]),
    (8, (3, 5), [0, 1, 2, 2, 4, 4, 6, 7]),
    (8, (3, 6), [0, 1, 2, 2, 4, 5, 5, 7]),
    (8, (3, 7), [0, 1, 2, 2, 4, 5, 6, 0]),
    (8, (4,), [0, 1, 2, 3, 3, 5, 6, 7]),
    (8, (4, 5), [0, 1, 2, 3, 3, 6, 6, 7]),
    (8, (4, 6), [0, 1, 2, 3, 3, 5, 5, 7]),
    (8, (4, 7), [0, 1, 2, 3, 3, 5, 6, 0]),
    (8, (5,), [0, 1, 2, 3, 4, 4, 6, 7]),
    (8, (5, 6), [0, 1, 2, 3, 4, 4, 7, 7]),
    (8, (5, 7), [0, 1, 2, 3, 4, 4, 6, 0]),
    (8, (6,), [0, 1, 2, 3, 4, 5, 5, 7]),
    (8, (6, 7), [0, 1, 2, 3, 4, 5, 5, 0]),
    (8, (7,), [0, 1, 2, 3, 4, 5, 6, 0]),
]


class TestRouteManager:
    def _manager(self, ring=True):
        spec = FabricSpec()
        for name in ("s0", "n0", "n1"):
            spec.add_switch(name)
        spec.add_link("s0", 0, "n0", 0)
        spec.add_link("s0", 1, "n1", 0)
        if ring:
            spec.add_link("n0", 1, "n1", 1)
        spec.add_host("d0", "n0", 2, addr=100)
        spec.add_host("d1", "n1", 2, addr=101)
        return RouteManager(spec.switch_view("s0"))

    def test_direct_routes(self):
        routes = self._manager().compute_routes()
        assert routes == {100: 0, 101: 1}

    def test_detour_after_failure(self):
        manager = self._manager()
        manager.fail_port(0)
        routes = manager.compute_routes()
        assert routes[100] == 1  # via n1 -> n0
        assert routes[101] == 1

    def test_unreachable(self):
        manager = self._manager(ring=False)
        manager.fail_port(0)
        assert manager.compute_routes()[100] is None

    @pytest.mark.parametrize(
        "n_neighbors, failed, expected", RING_ROUTES,
        ids=[f"ring{n}-failed{'_'.join(map(str, f)) or 'none'}"
             for n, f, _ in RING_ROUTES],
    )
    def test_ring_tie_rule(self, n_neighbors, failed, expected):
        manager = RouteManager(neighbor_ring(n_neighbors).switch_view("s0"))
        manager.failed_ports = set(failed)
        routes = manager.compute_routes()
        assert list(routes) == [0x0A000100 + i for i in range(n_neighbors)]
        assert list(routes.values()) == expected


class TestGrayFailureDetection:
    def _scenario(self, **kwargs):
        app, sim, generators = build_failover_scenario(**kwargs)
        app.prologue()
        for generator in generators.values():
            generator.start(at_us=0.0)
        return app, sim, generators

    def test_no_false_positives_on_healthy_links(self):
        app, sim, _ = self._scenario()
        sim.run_until(1_000.0)
        assert not app.detected_ports
        assert app.recomputations == 0

    def test_hard_failure_detected_and_rerouted(self):
        app, sim, generators = self._scenario()
        sim.run_until(500.0)
        fail_time = sim.clock.now
        generators[2].stop()  # neighbor 2's heartbeats stop cold
        sim.run_until(fail_time + 1_000.0)
        assert 2 in app.detected_ports
        reaction_time = app.reroute_times[2] - fail_time
        # Paper: 100-200us end-to-end (Figure 16a).
        assert reaction_time < 400.0
        # Traffic to the failed neighbor's destination takes a detour.
        packet = Packet({"ipv4.dstAddr": 0x0A000102, "ipv4.proto": 6})
        result = app.system.asic.process(packet)
        assert result is not None
        port, _ = result
        assert port != 2

    def test_gray_failure_detected(self):
        """A lossy-but-up link (the gray failure of [28]) is detected
        when heartbeat delivery dips below eta."""
        app, sim, generators = self._scenario(eta=0.5)
        sim.run_until(500.0)
        generators[1].set_gray_loss(0.9)  # 10% delivery < eta = 50%
        fail_time = sim.clock.now
        sim.run_until(fail_time + 2_000.0)
        assert 1 in app.detected_ports

    def test_moderate_loss_below_eta_tolerated(self):
        app, sim, generators = self._scenario(eta=0.5)
        sim.run_until(500.0)
        generators[1].set_gray_loss(0.2)  # 80% delivery > eta = 50%
        sim.run_until(sim.clock.now + 2_000.0)
        assert 1 not in app.detected_ports

    def test_higher_eta_detects_faster(self):
        times = {}
        for eta in (0.2, 0.8):
            app, sim, generators = self._scenario(eta=eta)
            sim.run_until(500.0)
            fail_time = sim.clock.now
            generators[0].stop()
            sim.run_until(fail_time + 2_000.0)
            times[eta] = app.detected_ports[0] - fail_time
        # Both detect; impact of eta is low (Figure 16b) but monotone.
        assert times[0.8] <= times[0.2] + 50.0

    def test_routes_installed_atomically(self):
        """Reroute rules land via the three-phase protocol: after the
        reaction's iteration, every destination has a valid route."""
        app, sim, generators = self._scenario()
        sim.run_until(500.0)
        generators[0].stop()
        sim.run_until(sim.clock.now + 1_000.0)
        for dst in (0x0A000100, 0x0A000101, 0x0A000102, 0x0A000103):
            packet = Packet({"ipv4.dstAddr": dst, "ipv4.proto": 6})
            result = app.system.asic.process(packet)
            assert result is not None
            assert result[0] != 0
