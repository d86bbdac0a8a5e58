"""Network topology model and the five-axis topology classifier.

A topology is a set of nodes with 64-bit addresses joined by directed
links.  A bidirectional connection is expressed as two links marked
``HALF_OF_DUPLEX_PAIR``, one per direction; the pair may mix
technologies (visible-light downlink with a radio uplink, say), which
is exactly what the aggregate class captures.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

from ..params import _TEXT, _integer, _real

__all__ = [
    "Technology",
    "NodeKind",
    "LinkDirection",
    "BeamShape",
    "Node",
    "Link",
    "Topology",
    "TopologyError",
    "TopologyClass",
    "VLC_TECHNOLOGIES",
    "classify_topology",
]


class TopologyError(ValueError):
    """A topology violates a structural invariant."""


class Technology(Enum):
    VLC_LED = "VLC-LED"
    VLC_LD = "VLC-LD"
    RF = "RF"
    ETHERNET = "Ethernet"
    PLC = "PLC"
    FSO = "FSO"


# Links carrying modulated light from either source type count as VLC
# for the multi-channel and standalone/aggregate axes.
VLC_TECHNOLOGIES = frozenset({Technology.VLC_LED, Technology.VLC_LD})


class NodeKind(Enum):
    USER_DEVICE = "UserDevice"
    VLC_ACCESS_POINT = "VlcAccessPoint"
    RELAY = "Relay"


class LinkDirection(Enum):
    SIMPLEX = "Simplex"
    HALF_OF_DUPLEX_PAIR = "HalfOfDuplexPair"


class BeamShape(Enum):
    P2P = "P2P"
    P2MP = "P2MP"


@dataclass(frozen=True)
class Node:
    address: int
    kind: NodeKind
    protocols: frozenset = frozenset()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "address", _integer(self.address, "node address", TopologyError))
        if not 0 <= self.address < 2**64:
            raise TopologyError(f"address {self.address} outside 64-bit range")
        # frozenset("ab") would be the tags "a" and "b"
        if isinstance(self.protocols, _TEXT):
            raise TopologyError(f"protocols must be a collection of tags, got {self.protocols!r}")
        object.__setattr__(self, "protocols", frozenset(self.protocols))


# each numeric field of a Link, its name in errors, and its reader
_LINK_NUMBERS = (
    ("src", "link source", _integer),
    ("dst", "link destination", _integer),
    ("scenario", "scenario", _integer),
    ("channel_count", "channel count", _integer),
    ("capacity_bps", "link capacity", _real),
    ("propagation_delay", "propagation delay", _real),
)


@dataclass(frozen=True)
class Link:
    src: int
    dst: int
    technology: Technology
    direction: LinkDirection = LinkDirection.SIMPLEX
    beam: BeamShape = BeamShape.P2P
    scenario: int = 1
    capacity_bps: float = 1e6
    propagation_delay: float = 0.0
    channel_count: int = 1

    def __post_init__(self):
        for name, what, read in _LINK_NUMBERS:
            object.__setattr__(self, name, read(getattr(self, name), what, TopologyError))
        if self.src == self.dst:
            raise TopologyError(f"link endpoints coincide (address {self.src})")
        if self.scenario not in range(1, 7):
            raise TopologyError(f"scenario {self.scenario} not in 1..6")
        if not 0 < self.capacity_bps < math.inf:
            raise TopologyError(
                f"link capacity must be positive and finite, got {self.capacity_bps}"
            )
        if not 0 <= self.propagation_delay < math.inf:
            raise TopologyError(
                f"propagation delay must be non-negative and finite, got {self.propagation_delay}"
            )
        if self.channel_count < 1:
            raise TopologyError(f"channel count must be >= 1, got {self.channel_count}")


@dataclass(frozen=True)
class Topology:
    nodes: tuple = ()
    links: tuple = ()
    _by_address: dict = field(init=False, repr=False, compare=False)
    # per source address, its outgoing links as (dst, -capacity, index) in
    # ascending order: the order in which shortest_route tries them
    _out_links: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        links = tuple(self.links)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", links)
        by_address = {}
        for node in nodes:
            if node.address in by_address:
                raise TopologyError(f"duplicate node address {node.address}")
            by_address[node.address] = node
        for link in links:
            for end in (link.src, link.dst):
                if end not in by_address:
                    raise TopologyError(f"link endpoint {end} is not a node")
        # every duplex half must have a partner in the opposite direction;
        # with parallel connections the per-direction counts must match
        fwd = defaultdict(int)
        for link in links:
            if link.direction is LinkDirection.HALF_OF_DUPLEX_PAIR:
                fwd[(link.src, link.dst)] += 1
        for (src, dst), count in fwd.items():
            if fwd.get((dst, src), 0) != count:
                raise TopologyError(
                    f"unmatched duplex half between {src} and {dst}: "
                    f"{count} forward vs {fwd.get((dst, src), 0)} reverse"
                )
        object.__setattr__(self, "_by_address", by_address)
        out_links = {}
        for idx, link in enumerate(links):
            out_links.setdefault(link.src, []).append((link.dst, -link.capacity_bps, idx))
        for entries in out_links.values():
            entries.sort()
        object.__setattr__(self, "_out_links", out_links)

    def node(self, address: int) -> Node:
        try:
            return self._by_address[address]
        except KeyError:
            raise TopologyError(f"no node with address {address}") from None


@dataclass(frozen=True)
class TopologyClass:
    """Five-axis label set plus the parallel-connection flag."""

    relaying: str  # "relayed" | "non-relayed"
    directionality: str  # "simplex" | "duplex"
    duplex_kind: str  # "standalone" | "aggregate" | "n/a"
    homogeneity: str  # "homogeneous" | "heterogeneous"
    channels: str  # "single-channel" | "multi-channel"
    parallel_connections: bool = False


def classify_topology(topology: Topology) -> TopologyClass:
    """Classify a topology along the five defining axes.

    Relaying: any connected node of kind Relay makes the network relayed.
    Directionality: duplex iff any duplex pair exists.
    Standalone vs aggregate: defined only for duplex networks; standalone
    when every duplex pair carries VLC in both directions, aggregate when
    any pair mixes a VLC direction with another technology.  Two or more
    independent duplex connections between the same endpoints raise the
    parallel-connection flag.
    Homogeneity: per access point, the protocol tag sets of attached user
    devices must all be equal; any mismatch makes the network
    heterogeneous.
    Channels: multi-channel iff any VLC link has more than one channel.
    """
    if not isinstance(topology, Topology):
        raise TopologyError("classify_topology requires a Topology")

    linked = set()
    for link in topology.links:
        linked.add(link.src)
        linked.add(link.dst)
    relayed = any(
        topology.node(addr).kind is NodeKind.RELAY for addr in linked
    )

    halves = [l for l in topology.links if l.direction is LinkDirection.HALF_OF_DUPLEX_PAIR]
    duplex = bool(halves)

    parallel = False
    if duplex:
        pair_counts = defaultdict(int)
        for link in halves:
            pair_counts[frozenset((link.src, link.dst))] += 1
        # validation guarantees equal counts per direction, so each pair
        # contributes count/2 independent connections
        parallel = any(count >= 4 for count in pair_counts.values())
        all_vlc = True
        for link in halves:
            if link.technology not in VLC_TECHNOLOGIES:
                all_vlc = False
                break
        duplex_kind = "standalone" if all_vlc else "aggregate"
    else:
        duplex_kind = "n/a"

    ap_tagsets = defaultdict(set)
    for link in topology.links:
        ends = (topology.node(link.src), topology.node(link.dst))
        for ap, other in (ends, ends[::-1]):
            if ap.kind is NodeKind.VLC_ACCESS_POINT and other.kind is NodeKind.USER_DEVICE:
                ap_tagsets[ap.address].add(other.protocols)
    homogeneous = all(len(tagsets) <= 1 for tagsets in ap_tagsets.values())

    multi = any(
        link.technology in VLC_TECHNOLOGIES and link.channel_count > 1
        for link in topology.links
    )

    return TopologyClass(
        relaying="relayed" if relayed else "non-relayed",
        directionality="duplex" if duplex else "simplex",
        duplex_kind=duplex_kind,
        homogeneity="homogeneous" if homogeneous else "heterogeneous",
        channels="multi-channel" if multi else "single-channel",
        parallel_connections=parallel,
    )

