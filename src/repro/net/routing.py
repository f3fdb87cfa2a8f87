"""Static fabric routing: shortest paths over a :class:`FabricSpec`,
installed as table entries on every switch of a built fabric.

``equal_cost_ports`` computes, per switch, the set of egress ports on
*all* shortest paths to every addressed destination -- the ECMP group.
``install_routes`` writes them into the data plane in one of three
modes:

- ``hashed``    -- multi-port destinations are steered through the
  program's hashing action into a bucket-indexed select table (the
  Mantis-rebalanceable path: the hash inputs are malleable fields).
  Single-port destinations forward directly and tag the sentinel
  bucket so the select stage passes them through untouched.
- ``round_robin`` -- each multi-port destination is pinned to one port,
  rotating through its group in address order (deterministic spread,
  no per-packet hashing).
- ``random``    -- each multi-port destination is pinned to a port
  drawn from a per-switch seeded RNG (deterministic per seed).

Shortest paths are one BFS: ``hop_distances`` counts hops from a
destination (optionally with cut edges), and ``first_hop_ports``
turns that map into a switch's equal-cost egress ports -- a neighbor
``n`` of switch ``s`` is on a shortest path to ``d`` iff
``dist(d, n) == dist(d, s) - 1``.  The fabric sweep builds the graph
once and shares one BFS per *destination* across every switch, so a
FatTree(k=8) fleet costs ``O(dests * edges)``; the failover
``RouteManager`` reuses the same two functions with its failed ports
cut.  Installation streams all of a
switch's entries through :meth:`Driver.write_batch` DMA-burst
transactions by default (``bulk=True``), which is what keeps an
80-switch k=8 install sub-second; ``bulk=False`` restores one driver
op per entry.

The table/action names parameterize so any program with the
forward/hash/skip idiom can be routed; the defaults match
``repro.apps.fabric_lb.FABRIC_P4R``.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.net.fabric_builder import (
    BuiltFabric,
    FabricSpec,
    Graph,
    SwitchTopology,
)

#: ``forward`` writes this bucket so the select table skips hashing.
SENTINEL_BUCKET = 0xFFFF

ROUTE_MODES = ("hashed", "round_robin", "random")

#: Edges removed from a search, each the ``frozenset`` of its two ends.
Cut = AbstractSet[frozenset]


def hop_distances(
    graph: Graph, dest: str, cut: Cut = frozenset()
) -> Dict[str, int]:
    """Hop count to ``dest`` from every node that can reach it, by BFS
    over ``graph`` without the ``cut`` edges."""
    distance = {dest: 0}
    frontier = [dest]
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for node in frontier:
            for peer in graph[node]:
                if peer in distance or (cut and frozenset((node, peer)) in cut):
                    continue
                distance[peer] = hops
                reached.append(peer)
        frontier = reached
    return distance


def first_hop_ports(
    view: SwitchTopology, distance: Dict[str, int], cut: Cut = frozenset()
) -> List[int]:
    """Sorted egress ports of ``view``'s switch on a shortest path to
    the destination ``distance`` was measured from: every uncut
    neighbor one hop closer.  Empty when the destination is
    unreachable or is the switch itself."""
    here = distance.get(view.switch_node)
    if here is None:
        return []
    return sorted({
        port
        for neighbor, port in view.port_map.items()
        if distance.get(neighbor) == here - 1
        and frozenset((view.switch_node, neighbor)) not in cut
    })


def _dest_map(
    spec: FabricSpec,
    graph: Graph,
    extra_dests: Optional[Dict[int, str]],
) -> Dict[int, str]:
    """Address -> destination node, hosts plus service aliases."""
    dests: Dict[int, str] = {}
    for host in spec.hosts.values():
        if host.addr is not None:
            dests[host.addr] = host.name
    for addr, node in (extra_dests or {}).items():
        if node not in graph:
            raise SimulationError(f"alias target {node!r} not in fabric")
        dests[addr] = node
    return dests


def compute_fabric_routes(
    spec: FabricSpec,
    switch_names: Sequence[str],
    extra_dests: Optional[Dict[int, str]] = None,
) -> Dict[str, Dict[int, List[int]]]:
    """ECMP groups for every switch in one sweep over one graph.

    One BFS per *destination node*, shared by all switches; a
    destination a switch cannot reach (or is) gets no entry.
    """
    graph = spec.graph()
    dests = _dest_map(spec, graph, extra_dests)
    distance = {
        node: hop_distances(graph, node) for node in set(dests.values())
    }
    routes: Dict[str, Dict[int, List[int]]] = {}
    for name in switch_names:
        view = SwitchTopology(graph, name, spec.port_map(name))
        switch_routes: Dict[int, List[int]] = {}
        for addr in sorted(dests):
            ports = first_hop_ports(view, distance[dests[addr]])
            if ports:
                switch_routes[addr] = ports
        routes[name] = switch_routes
    return routes


def equal_cost_ports(
    spec: FabricSpec,
    switch_name: str,
    extra_dests: Optional[Dict[int, str]] = None,
) -> Dict[int, List[int]]:
    """Address -> sorted list of egress ports on all shortest paths.

    ``extra_dests`` maps additional addresses (service aliases) onto
    existing host nodes; they route exactly like the host's primary
    address.
    """
    return compute_fabric_routes(spec, [switch_name], extra_dests)[
        switch_name
    ]


def _plan_switch_entries(
    routes: Dict[int, List[int]],
    mode: str,
    rng: random.Random,
    table: str,
    forward_action: str,
    hash_action: str,
    select_table: str,
    skip_action: str,
    num_buckets: int,
    switch_name: str,
) -> Tuple[List[Tuple], int, Optional[List[int]]]:
    """The full ordered entry list for one switch as bulk-op tuples."""
    ops: List[Tuple] = []
    group: Optional[List[int]] = None
    direct = 0
    rr_next = 0
    for addr in sorted(routes):
        ports = routes[addr]
        if len(ports) == 1:
            ops.append(("add", table, [addr], forward_action, [ports[0]]))
            direct += 1
        elif mode == "hashed":
            if group is None:
                group = ports
            elif group != ports:
                raise SimulationError(
                    f"{switch_name}: hashed mode needs one ECMP group per "
                    f"switch, got {group} and {ports} "
                    f"(use round_robin/random)"
                )
            ops.append(("add", table, [addr], hash_action, []))
        elif mode == "round_robin":
            ops.append((
                "add", table, [addr], forward_action,
                [ports[rr_next % len(ports)]],
            ))
            rr_next += 1
        else:  # random
            ops.append(
                ("add", table, [addr], forward_action, [rng.choice(ports)])
            )
    if group is not None:
        for bucket in range(num_buckets):
            ops.append((
                "add", select_table, [bucket], forward_action,
                [group[bucket % len(group)]],
            ))
    # Every directly-forwarded packet carries the sentinel bucket;
    # the select stage must pass it through on every switch.
    ops.append(("add", select_table, [SENTINEL_BUCKET], skip_action, []))
    return ops, direct, group


def install_routes(
    built: BuiltFabric,
    mode: str = "hashed",
    seed: int = 0,
    extra_dests: Optional[Dict[int, str]] = None,
    table: str = "route",
    forward_action: str = "forward",
    hash_action: str = "to_upper",
    select_table: str = "up_select",
    skip_action: str = "skip",
    num_buckets: int = 4,
    bulk: bool = True,
    channel: str = "bulk-loader",
) -> Dict[str, Dict[str, object]]:
    """Install shortest-path routes on every switch of ``built``.

    Returns a per-switch summary: route count, direct count, the ECMP
    group (hashed mode), and the install's driver op accounting
    (``driver_ops`` logical entries, ``bulk_txns`` coalesced
    transactions -- 0 when ``bulk=False``).  In ``hashed`` mode every
    multi-port destination on a given switch must share one port group
    (true on fat-trees and leaf-spines, where the group is always the
    full uplink set) because the program carries a single select table.
    """
    if mode not in ROUTE_MODES:
        raise SimulationError(
            f"unknown routing mode {mode!r} (choose from {ROUTE_MODES})"
        )
    all_routes = compute_fabric_routes(
        built.spec, list(built.switches), extra_dests
    )
    summary: Dict[str, Dict[str, object]] = {}
    for name, switch in built.switches.items():
        driver = switch.system.driver
        routes = all_routes[name]
        rng = random.Random(f"{seed}:{name}")
        ops, direct, group = _plan_switch_entries(
            routes, mode, rng, table, forward_action, hash_action,
            select_table, skip_action, num_buckets, name,
        )
        txns_before = driver.bulk_txns
        sim_before = driver.clock.now
        if bulk:
            driver.write_batch(ops, channel=channel)
        else:
            for op in ops:
                _, op_table, key, action, args = op[:5]
                driver.add_entry(op_table, key, action, args, channel=channel)
        summary[name] = {
            "routes": len(routes),
            "direct": direct,
            "ecmp_group": list(group) if group else [],
            "driver_ops": len(ops),
            "bulk_txns": driver.bulk_txns - txns_before,
            "bulk": bulk,
            "install_sim_us": driver.clock.now - sim_before,
        }
    return summary
