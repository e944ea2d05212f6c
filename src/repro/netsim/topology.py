"""Topology builders: single-switch racks and two-layer rack-scale trees.

Two shapes cover everything in the paper:

* ``build_star`` — the main 4-node cluster (§5.3): N hosts on one switch,
  optionally plus a parameter-server host.
* ``build_rack_tree`` — the scalability setup (§5.3, Figure 10): a root
  switch connecting several racks, each rack a ToR switch with a few
  workers.  Host↔ToR links run at 10 Gb/s; ToR↔root links default to
  40 Gb/s, matching the paper's "higher network bandwidth (e.g., 40Gb to
  100Gb)" for the aggregation layer.

Builders take a ``switch_factory`` so the same wiring code produces either
regular :class:`~repro.netsim.switch.EthernetSwitch` fabric or iSwitch
fabric (:class:`repro.core.switch.ISwitch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .events import Simulator
from .link import GBPS, Link
from .node import Host
from .switch import EthernetSwitch

__all__ = ["Network", "RACK_WIDTH", "build_star", "build_rack_tree",
           "build_three_tier", "racks"]

SwitchFactory = Callable[[Simulator, str], EthernetSwitch]

#: Workers per rack of the trees: "each rack contains three worker nodes"
#: (§5.3), the NetFPGA-port-limited emulation.
RACK_WIDTH = 3


def racks(n_workers: int, workers_per_rack: int = RACK_WIDTH) -> List[range]:
    """The ranks under each ToR: contiguous, ``workers_per_rack`` to a
    rack, the last one partial — rank ``r`` sits in rack
    ``r // workers_per_rack``.  Every tree builder and the live backend's
    switch tree place workers by it."""
    return [
        range(first, min(first + workers_per_rack, n_workers))
        for first in range(0, n_workers, workers_per_rack)
    ]


def _default_switch_factory(sim: Simulator, name: str) -> EthernetSwitch:
    return EthernetSwitch(sim, name)


@dataclass
class Network:
    """A built topology: the simulator plus named devices.

    ``workers`` excludes any parameter-server host; ``hosts`` includes it.
    ``switches`` is ordered leaf-to-root (ToRs first, root last) so the
    hierarchical-aggregation code can find parents by construction order.
    """

    sim: Simulator
    hosts: Dict[str, Host] = field(default_factory=dict)
    switches: List[EthernetSwitch] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    workers: List[Host] = field(default_factory=list)
    server: Optional[Host] = None
    #: ToR switch serving each worker, parallel to ``workers``.
    tor_of_worker: List[EthernetSwitch] = field(default_factory=list)
    root: Optional[EthernetSwitch] = None

    def host(self, name: str) -> Host:
        return self.hosts[name]


def _connect_host(
    net: Network,
    host: Host,
    switch: EthernetSwitch,
    bandwidth: float,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> None:
    """Attach ``host`` to ``switch`` with a new link appended to ``net.links``.

    Each link's rng is seeded ``loss_seed + len(net.links)`` — i.e. the
    base seed plus the link's creation index.  Builders create links in a
    fixed, documented order (workers in index order, then the optional
    server; rack trees interleave one uplink before each rack's hosts),
    so the index — and therefore every link's drop sequence — is a pure
    function of the topology shape.  Two runs with the same builder
    arguments drop exactly the same packets, while distinct links never
    share a seed (which would correlate their drop patterns).  This
    contract is pinned by ``test_loss_seed_derivation_is_deterministic``
    in ``tests/test_faults.py``; changing it invalidates every recorded
    lossy-run result.
    """
    link = Link(
        net.sim,
        bandwidth=bandwidth,
        name=f"{host.name}<->{switch.name}",
        loss_rate=loss_rate,
        # Per-link offset decorrelates drops while staying reproducible.
        loss_seed=loss_seed + len(net.links),
    )
    link.attach(host, switch)
    switch.add_route(host.name, link.ends[1])
    net.links.append(link)


def build_star(
    sim: Simulator,
    n_workers: int,
    with_server: bool = False,
    bandwidth: float = 10 * GBPS,
    switch_factory: SwitchFactory = _default_switch_factory,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> Network:
    """N workers (and optionally one PS host) on a single switch.

    Worker hosts are named ``worker0..workerN-1``; the PS host is ``server``.
    ``loss_rate`` applies independent per-packet drops on every host link.
    ``loss_seed`` is a *base* seed: link ``i`` (in creation order —
    worker0..workerN-1, then ``server``) uses ``loss_seed + i``, making
    drop sequences reproducible per link yet decorrelated across links
    (see :func:`_connect_host`).
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    net = Network(sim=sim)
    switch = switch_factory(sim, "tor0")
    net.switches.append(switch)
    net.root = switch

    for i in range(n_workers):
        host = Host(sim, f"worker{i}")
        _connect_host(net, host, switch, bandwidth, loss_rate, loss_seed)
        net.hosts[host.name] = host
        net.workers.append(host)
        net.tor_of_worker.append(switch)

    if with_server:
        server = Host(sim, "server")
        _connect_host(net, server, switch, bandwidth, loss_rate, loss_seed)
        net.hosts[server.name] = server
        net.server = server
    return net


def build_rack_tree(
    sim: Simulator,
    n_workers: int,
    workers_per_rack: int = RACK_WIDTH,
    with_server: bool = False,
    host_bandwidth: float = 10 * GBPS,
    uplink_bandwidth: float = 40 * GBPS,
    switch_factory: SwitchFactory = _default_switch_factory,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> Network:
    """A root switch over ceil(N / workers_per_rack) ToR racks.

    Matches the paper's scalability emulation: "the cluster has a root
    switch connecting to multiple racks and each rack contains three worker
    nodes".  If ``with_server`` is set, the PS host hangs off the root
    switch (so every worker↔server path crosses the hierarchy, as it would
    in a real deployment where the PS sits in its own rack).
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if workers_per_rack < 1:
        raise ValueError(f"workers_per_rack must be >= 1, got {workers_per_rack}")

    net = Network(sim=sim)
    root = switch_factory(sim, "root")
    net.root = root

    for rack, ranks in enumerate(racks(n_workers, workers_per_rack)):
        tor = switch_factory(sim, f"tor{rack}")
        net.switches.append(tor)
        uplink = Link(
            sim,
            bandwidth=uplink_bandwidth,
            name=f"{tor.name}<->{root.name}",
            loss_rate=loss_rate,
            loss_seed=loss_seed + len(net.links),
        )
        uplink.attach(tor, root)
        tor.set_default_route(uplink.ends[0])
        net.links.append(uplink)

        for worker_idx in ranks:
            host = Host(sim, f"worker{worker_idx}")
            _connect_host(net, host, tor, host_bandwidth, loss_rate, loss_seed)
            net.hosts[host.name] = host
            net.workers.append(host)
            net.tor_of_worker.append(tor)
            # Root routes to this worker via the rack uplink.
            root.add_route(host.name, uplink.ends[1])

    net.switches.append(root)

    if with_server:
        server = Host(sim, "server")
        _connect_host(net, server, root, uplink_bandwidth, loss_rate, loss_seed)
        net.hosts[server.name] = server
        net.server = server
        # Every ToR reaches the server through its default (uplink) route.
    return net


def build_three_tier(
    sim: Simulator,
    n_workers: int,
    workers_per_rack: int = RACK_WIDTH,
    racks_per_pod: int = 2,
    host_bandwidth: float = 10 * GBPS,
    agg_bandwidth: float = 40 * GBPS,
    core_bandwidth: float = 100 * GBPS,
    switch_factory: SwitchFactory = _default_switch_factory,
) -> Network:
    """The full Figure 10 hierarchy: ToR -> AGG -> Core.

    Workers sit in racks under ToR switches; ``racks_per_pod`` ToRs share
    one aggregation (AGG) switch; all AGG switches connect to a single
    core switch.  Bandwidths follow the paper's "10Gb Ethernet [to hosts]
    ... higher network bandwidth (e.g., 40Gb to 100Gb)" in the upper
    layers.  ``net.switches`` is ordered ToRs, then AGGs, then the core
    (leaf-to-root), and ``net.root`` is the core switch.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if workers_per_rack < 1 or racks_per_pod < 1:
        raise ValueError("workers_per_rack and racks_per_pod must be >= 1")

    net = Network(sim=sim)
    core = switch_factory(sim, "core")
    net.root = core

    rack_ranks = racks(n_workers, workers_per_rack)
    n_racks = len(rack_ranks)
    n_pods = (n_racks + racks_per_pod - 1) // racks_per_pod

    aggs: List[EthernetSwitch] = []
    tors: List[EthernetSwitch] = []
    rack = 0
    for pod in range(n_pods):
        agg = switch_factory(sim, f"agg{pod}")
        aggs.append(agg)
        core_link = Link(
            sim, bandwidth=core_bandwidth, name=f"{agg.name}<->{core.name}"
        )
        core_link.attach(agg, core)
        agg.set_default_route(core_link.ends[0])
        net.links.append(core_link)

        racks_here = min(racks_per_pod, n_racks - rack)
        for _ in range(racks_here):
            tor = switch_factory(sim, f"tor{rack}")
            tors.append(tor)
            uplink = Link(
                sim, bandwidth=agg_bandwidth, name=f"{tor.name}<->{agg.name}"
            )
            uplink.attach(tor, agg)
            tor.set_default_route(uplink.ends[0])
            net.links.append(uplink)

            for worker_idx in rack_ranks[rack]:
                host = Host(sim, f"worker{worker_idx}")
                _connect_host(net, host, tor, host_bandwidth)
                net.hosts[host.name] = host
                net.workers.append(host)
                net.tor_of_worker.append(tor)
                # Upward routing is by default routes; downward routing
                # needs explicit per-level entries.
                agg.add_route(host.name, uplink.ends[1])
                core.add_route(host.name, core_link.ends[1])
            rack += 1

    net.switches.extend(tors)
    net.switches.extend(aggs)
    net.switches.append(core)
    return net
