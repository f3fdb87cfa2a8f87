"""Declarative fabric construction: describe a whole topology once,
instantiate it as a :class:`repro.net.sim.NetworkSim` fleet.

A :class:`FabricSpec` is the one topology model, for the control
plane and the data plane alike: it holds switches, links, and hosts
declaratively, renders them as a plain adjacency dict (``graph``),
derives the per-switch :class:`SwitchTopology` views the route
managers consume (``switch_view``), and materializes the whole fabric
as one ``NetworkSim`` with one :class:`~repro.system.MantisSystem` per
switch on a shared clock (``build``).  Shortest paths over it are
:mod:`repro.net.routing`'s one BFS.

:class:`FatTree` is the canonical multi-stage instance: the standard
k-ary fat-tree (Al-Fares et al.) with ``k`` pods, ``k/2`` edge and
``k/2`` aggregation switches per pod, ``(k/2)^2`` cores, and ``k/2``
hosts per edge switch -- ``FatTree(4)`` is the 20-switch / 16-host
fleet the scaling benchmarks run on.

Parallel links (same unordered switch pair cabled more than once)
cannot share one graph edge, so the graph routes each such link
through an intermediate node named ``<a>=<b>.<index>``: shortest-path
routing then tells the links apart, and cutting one leaves the detour
through the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.sim import FabricSwitch, Link, NetworkSim, PortConfig
from repro.p4r.parser import parse_p4r
from repro.switch.clock import SimClock
from repro.system import MantisSystem

#: Node -> neighbor nodes; every edge is listed from both ends.
Graph = Dict[str, List[str]]


@dataclass
class SwitchTopology:
    """The fabric as seen from one switch (``switch_node``)."""

    graph: Graph
    switch_node: str
    port_map: Dict[str, int] = field(default_factory=dict)  # neighbor -> port
    dest_map: Dict[int, str] = field(default_factory=dict)  # addr -> node

    def validate(self) -> None:
        adjacent = self.graph.get(self.switch_node, ())
        for neighbor in self.port_map:
            if neighbor not in adjacent:
                raise SimulationError(
                    f"port map names non-adjacent neighbor {neighbor!r}"
                )
        for node in self.dest_map.values():
            if node not in self.graph:
                raise SimulationError(f"destination node {node!r} not in graph")


@dataclass
class SwitchSpec:
    """One switch: a name, a topology role, and its ECMP uplinks."""

    name: str
    role: str = "switch"
    uplink_ports: Tuple[int, ...] = ()


@dataclass
class LinkSpec:
    """One cable: ``a``'s ``a_port`` to ``b``'s ``b_port``."""

    a: str
    a_port: int
    b: str
    b_port: int

    @property
    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


@dataclass
class HostSpec:
    """One host hanging off ``switch`` at ``port``.

    ``addr`` is the host's routable address (``None`` for hosts whose
    addressing is scenario-private, e.g. a traffic source).
    """

    name: str
    switch: str
    port: int
    addr: Optional[int] = None


class FabricSpec:
    """Declarative description of a multi-switch fabric."""

    def __init__(self, name: str = "fabric"):
        self.name = name
        self.switches: Dict[str, SwitchSpec] = {}
        self.links: List[LinkSpec] = []
        self.hosts: Dict[str, HostSpec] = {}

    # ---- declaration ----------------------------------------------------

    def add_switch(
        self, name: str, role: str = "switch",
        uplink_ports: Tuple[int, ...] = (),
    ) -> SwitchSpec:
        if name in self.switches or name in self.hosts:
            raise SimulationError(f"duplicate fabric node {name!r}")
        spec = SwitchSpec(name, role, tuple(uplink_ports))
        self.switches[name] = spec
        return spec

    def add_link(self, a: str, a_port: int, b: str, b_port: int) -> LinkSpec:
        for end, port in ((a, a_port), (b, b_port)):
            if end not in self.switches:
                raise SimulationError(f"link endpoint {end!r} is not a switch")
            if self._port_taken(end, port):
                raise SimulationError(f"{end}: port {port} already cabled")
        link = LinkSpec(a, a_port, b, b_port)
        self.links.append(link)
        return link

    def add_host(
        self, name: str, switch: str, port: int, addr: Optional[int] = None
    ) -> HostSpec:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate fabric node {name!r}")
        if switch not in self.switches:
            raise SimulationError(f"host switch {switch!r} is not a switch")
        if self._port_taken(switch, port):
            raise SimulationError(f"{switch}: port {port} already cabled")
        if addr is not None:
            for other in self.hosts.values():
                if other.addr == addr:
                    raise SimulationError(
                        f"address {addr:#x} already assigned to {other.name}"
                    )
        spec = HostSpec(name, switch, port, addr)
        self.hosts[name] = spec
        return spec

    def _port_taken(self, switch: str, port: int) -> bool:
        for link in self.links:
            if (link.a == switch and link.a_port == port) or (
                link.b == switch and link.b_port == port
            ):
                return True
        return any(
            host.switch == switch and host.port == port
            for host in self.hosts.values()
        )

    # ---- derived views --------------------------------------------------

    def _link_nodes(self) -> List[Tuple[LinkSpec, Optional[str]]]:
        """Each link with its intermediate graph node (``None`` when the
        link is the only cable between its switch pair and can be a
        direct edge)."""
        counts: Dict[frozenset, int] = {}
        for link in self.links:
            counts[link.pair] = counts.get(link.pair, 0) + 1
        seen: Dict[frozenset, int] = {}
        out: List[Tuple[LinkSpec, Optional[str]]] = []
        for link in self.links:
            if counts[link.pair] == 1:
                out.append((link, None))
                continue
            index = seen.get(link.pair, 0)
            seen[link.pair] = index + 1
            out.append((link, f"{link.a}={link.b}.{index}"))
        return out

    def graph(self) -> Graph:
        """The control-plane graph: every switch, link node and host,
        adjacent to what it is cabled to (links first, then hosts, in
        declaration order)."""
        graph: Graph = {name: [] for name in self.switches}

        def edge(a: str, b: str) -> None:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, []).append(a)

        for link, node in self._link_nodes():
            if node is None:
                edge(link.a, link.b)
            else:
                edge(link.a, node)
                edge(node, link.b)
        for host in self.hosts.values():
            edge(host.switch, host.name)
        return graph

    def port_map(self, name: str) -> Dict[str, int]:
        """Switch ``name``'s neighbor node -> local port map."""
        if name not in self.switches:
            raise SimulationError(f"unknown switch {name!r}")
        ports: Dict[str, int] = {}
        for link, node in self._link_nodes():
            if link.a == name:
                ports[node or link.b] = link.a_port
            elif link.b == name:
                ports[node or link.a] = link.b_port
        for host in self.hosts.values():
            if host.switch == name:
                ports[host.name] = host.port
        return ports

    def switch_view(self, name: str) -> SwitchTopology:
        """The fabric as seen from one switch: the graph plus this
        switch's neighbor->port map and every host's address->node
        entry (the input of :class:`repro.apps.failover.RouteManager`)."""
        dest_map = {
            host.addr: host.name
            for host in self.hosts.values() if host.addr is not None
        }
        view = SwitchTopology(
            self.graph(), name, self.port_map(name), dest_map
        )
        view.validate()
        return view

    # ---- materialization ------------------------------------------------

    def build(
        self,
        source_or_program,
        clock: Optional[SimClock] = None,
        default_port: Optional[PortConfig] = None,
        **system_kwargs,
    ) -> "BuiltFabric":
        """Instantiate the fabric: one ``MantisSystem`` per switch on a
        shared clock, all cables connected.

        String sources are parsed once and compiled per switch (each
        switch needs private mutable artifacts)."""
        if not self.switches:
            raise SimulationError(f"fabric {self.name!r} has no switches")
        program = (
            parse_p4r(source_or_program)
            if isinstance(source_or_program, str)
            else source_or_program
        )
        clock = clock or SimClock()
        fabric = NetworkSim(clock=clock, default_port=default_port)
        switches: Dict[str, FabricSwitch] = {}
        for name in self.switches:
            system = MantisSystem.from_source(
                program, clock=clock, **system_kwargs
            )
            switches[name] = fabric.add_switch(system, name)
        links: Dict[Tuple[str, int], Link] = {}
        for link in self.links:
            wire = fabric.connect(
                switches[link.a], link.a_port, switches[link.b], link.b_port
            )
            links[(link.a, link.a_port)] = wire
            links[(link.b, link.b_port)] = wire
        return BuiltFabric(self, fabric, switches, links)


@dataclass
class BuiltFabric:
    """A materialized :class:`FabricSpec`: the live ``NetworkSim`` plus
    name-indexed switch and link handles."""

    spec: FabricSpec
    fabric: NetworkSim
    switches: Dict[str, FabricSwitch]
    links: Dict[Tuple[str, int], Link] = field(default_factory=dict)

    @property
    def clock(self) -> SimClock:
        return self.fabric.clock

    def switch(self, name: str) -> FabricSwitch:
        if name not in self.switches:
            raise SimulationError(f"unknown switch {name!r}")
        return self.switches[name]

    def system(self, name: str) -> MantisSystem:
        return self.switch(name).system

    def attach_host(self, host_name: str, host) -> HostSpec:
        """Bind a live host object at the port the spec declared for
        ``host_name``; returns the spec entry (with the address)."""
        if host_name not in self.spec.hosts:
            raise SimulationError(f"unknown host {host_name!r}")
        entry = self.spec.hosts[host_name]
        self.switches[entry.switch].attach_host(host, entry.port)
        return entry

    def link(self, switch: str, port: int) -> Link:
        key = (switch, port)
        if key not in self.links:
            raise SimulationError(f"no link at {switch}:{port}")
        return self.links[key]


class FatTree(FabricSpec):
    """The standard k-ary fat-tree.

    ``k`` pods (``k`` even), each with ``k/2`` edge switches
    (``e<pod>_<i>``) and ``k/2`` aggregation switches (``a<pod>_<j>``);
    ``(k/2)^2`` core switches (``c<x>``); ``k/2`` hosts per edge
    (``h<pod>_<i>_<m>``).  Port convention on edge and aggregation
    switches: ports ``0..k/2-1`` are uplinks, ports ``k/2..k-1`` face
    down (hosts or edges).  Core switch port ``p`` faces pod ``p``.
    Aggregation switch ``j`` uplinks to core group ``j`` (cores
    ``j*k/2 .. j*k/2+k/2-1``).

    Host addresses encode position: ``0x0A000000 | pod<<16 | edge<<8 |
    (host+2)`` -- the 10.pod.edge.host convention of the fat-tree
    paper.
    """

    def __init__(self, k: int = 4):
        if k < 2 or k % 2:
            raise SimulationError("fat-tree k must be even and >= 2")
        super().__init__(name=f"fat-tree-{k}")
        self.k = k
        half = k // 2
        self.half = half
        uplinks = tuple(range(half))
        for x in range(half * half):
            self.add_switch(f"c{x}", role="core")
        for pod in range(k):
            for j in range(half):
                self.add_switch(f"a{pod}_{j}", role="agg", uplink_ports=uplinks)
            for i in range(half):
                self.add_switch(f"e{pod}_{i}", role="edge",
                                uplink_ports=uplinks)
        for pod in range(k):
            for i in range(half):
                for j in range(half):
                    self.add_link(f"e{pod}_{i}", j, f"a{pod}_{j}", half + i)
            for j in range(half):
                for y in range(half):
                    self.add_link(f"a{pod}_{j}", y, f"c{j * half + y}", pod)
        for pod in range(k):
            for i in range(half):
                for m in range(half):
                    self.add_host(
                        f"h{pod}_{i}_{m}", f"e{pod}_{i}", half + m,
                        self.host_addr(pod, i, m),
                    )

    def host_addr(self, pod: int, edge: int, host: int) -> int:
        return 0x0A000000 | (pod << 16) | (edge << 8) | (host + 2)

    def host_name(self, pod: int, edge: int, host: int) -> str:
        return f"h{pod}_{edge}_{host}"

    def pod_hosts(self, pod: int) -> List[HostSpec]:
        return [
            host for host in self.hosts.values()
            if host.addr is not None and (host.addr >> 16) & 0xFF == pod
        ]
