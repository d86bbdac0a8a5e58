"""Topology validation, five-axis classification, and re-addressing."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.netsim.topology import (
    VLC_TECHNOLOGIES,
    BeamShape,
    Link,
    LinkDirection,
    Node,
    NodeKind,
    Technology,
    Topology,
    TopologyClass,
    TopologyError,
    classify_topology,
)

UD, AP, RELAY = NodeKind.USER_DEVICE, NodeKind.VLC_ACCESS_POINT, NodeKind.RELAY
HALF = LinkDirection.HALF_OF_DUPLEX_PAIR


def duplex(src, dst, tech_down, tech_up=None, **kw):
    tech_up = tech_up or tech_down
    return [
        Link(src, dst, tech_down, direction=HALF, **kw),
        Link(dst, src, tech_up, direction=HALF, **kw),
    ]


# --------------------------------------------------------------- validation

def test_duplicate_addresses_rejected():
    with pytest.raises(TopologyError):
        Topology(nodes=(Node(1, UD), Node(1, AP)), links=())


def test_dangling_link_rejected():
    with pytest.raises(TopologyError):
        Topology(nodes=(Node(1, UD),), links=(Link(1, 2, Technology.RF),))


def test_unmatched_duplex_half_rejected():
    nodes = (Node(1, UD), Node(2, AP))
    with pytest.raises(TopologyError) as exc:
        Topology(nodes=nodes, links=(Link(1, 2, Technology.VLC_LED, direction=HALF),))
    assert "unmatched duplex half" in str(exc.value)


def test_unbalanced_parallel_halves_rejected():
    nodes = (Node(1, UD), Node(2, AP))
    links = duplex(1, 2, Technology.VLC_LED) + [
        Link(1, 2, Technology.VLC_LED, direction=HALF)
    ]
    with pytest.raises(TopologyError):
        Topology(nodes=nodes, links=tuple(links))


def test_link_field_validation():
    with pytest.raises(TopologyError):
        Link(1, 1, Technology.RF)
    with pytest.raises(TopologyError):
        Link(1, 2, Technology.RF, scenario=7)
    with pytest.raises(TopologyError):
        Link(1, 2, Technology.RF, capacity_bps=0.0)
    with pytest.raises(TopologyError):
        Link(1, 2, Technology.RF, propagation_delay=-1e-9)
    with pytest.raises(TopologyError):
        Link(1, 2, Technology.RF, channel_count=0)
    with pytest.raises(TopologyError, match="scenario must be an integer, got 2.0"):
        Link(1, 2, Technology.RF, scenario=2.0)
    with pytest.raises(TopologyError, match="channel count must be an integer, got 1.5"):
        Link(1, 2, Technology.RF, channel_count=1.5)
    Link(1, 2, Technology.RF, scenario=np.int64(2), channel_count=np.int64(2))


@pytest.mark.parametrize("capacity", [math.inf, math.nan])
def test_link_capacity_must_be_finite(capacity):
    # an infinite capacity serves in zero time, so a saturating flow never
    # lets the clock advance
    with pytest.raises(TopologyError, match="finite"):
        Link(1, 2, Technology.RF, capacity_bps=capacity)


@pytest.mark.parametrize("delay", [math.nan, math.inf])
def test_link_delay_must_be_finite(delay):
    with pytest.raises(TopologyError, match="finite"):
        Link(1, 2, Technology.RF, propagation_delay=delay)


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("capacity_bps", "5", "link capacity must be a number, got '5'"),
        ("capacity_bps", np.array([5.0, 6.0]), "link capacity must be a number, got array("),
        ("propagation_delay", None, "propagation delay must be a number, got None"),
        ("propagation_delay", "0", "propagation delay must be a number, got '0'"),
    ],
)
def test_link_numbers_must_be_numbers(field, value, what):
    # these raised a bare TypeError from a comparison, or numpy's "truth
    # value of an array ... is ambiguous"
    with pytest.raises(TopologyError, match=f"^{re.escape(what)}"):
        Link(1, 2, Technology.RF, **{field: value})


def test_one_element_link_numbers_read_as_their_value():
    # read as LinkBudgetParams reads its numbers
    link = Link(1, 2, Technology.RF, capacity_bps=np.array([5.0]), propagation_delay=np.int64(1))
    assert (link.capacity_bps, link.propagation_delay) == (5.0, 1.0)
    assert type(link.capacity_bps) is type(link.propagation_delay) is float


def test_node_address_range():
    with pytest.raises(TopologyError):
        Node(2**64, UD)
    with pytest.raises(TopologyError):
        Node(-1, UD)
    Node(2**64 - 1, UD)  # max address is fine


@pytest.mark.parametrize("address", [2.5, 3.0, "3"])
def test_node_address_must_be_an_integer(address):
    with pytest.raises(TopologyError, match="node address must be an integer"):
        Node(address, UD)


def test_numpy_integer_address_is_stored_as_int():
    node = Node(np.int64(3), UD)
    assert node.address == 3 and type(node.address) is int


@pytest.mark.parametrize("end", [np.int64(1), True], ids=["numpy", "bool"])
def test_link_endpoints_are_stored_as_int(end):
    # the simulator's CSV writes each endpoint with repr
    for link in (Link(end, 2, Technology.RF), Link(2, end, Technology.RF)):
        assert {link.src, link.dst} == {1, 2}
        assert type(link.src) is int and type(link.dst) is int
    # the other integer fields too
    link = Link(1, 2, Technology.RF, scenario=end, channel_count=end * np.int64(3))
    assert link.scenario == 1 and type(link.scenario) is int
    assert link.channel_count == 3 and type(link.channel_count) is int


def test_link_endpoints_must_be_integers():
    with pytest.raises(TopologyError, match="link source must be an integer, got 1.0"):
        Link(1.0, 2, Technology.RF)
    with pytest.raises(TopologyError, match="link destination must be an integer, got 2.0"):
        Link(1, 2.0, Technology.RF)
    with pytest.raises(TopologyError, match="coincide"):
        Link(np.int64(1), True, Technology.RF)


@pytest.mark.parametrize("field", ["protocols"])
@pytest.mark.parametrize("tags", ["ab", b"ab"], ids=["str", "bytes"])
def test_node_tags_must_not_be_a_string(field, tags):
    # frozenset("ab") is the two tags "a" and "b"
    with pytest.raises(TopologyError, match=f"^{field} must be a collection of tags"):
        Node(1, UD, **{field: tags})


@pytest.mark.parametrize("field", ["protocols"])
@pytest.mark.parametrize("collection", [list, tuple, set, frozenset])
def test_node_tags_accept_any_collection(field, collection):
    node = Node(1, UD, **{field: collection(["ab", "c"])})
    assert getattr(node, field) == frozenset({"ab", "c"})


def test_line_of_sight_by_scenario():
    for s in (1, 2, 3):
        assert Link(1, 2, Technology.VLC_LED, scenario=s).line_of_sight
    for s in (4, 5, 6):
        assert not Link(1, 2, Technology.VLC_LED, scenario=s).line_of_sight


def test_node_lookup():
    t = Topology(nodes=(Node(7, UD),), links=())
    assert t.node(7).kind is UD
    with pytest.raises(TopologyError):
        t.node(8)


# ----------------------------------------------------------- classification

def make(nodes, links):
    return Topology(nodes=tuple(nodes), links=tuple(links))


def test_classify_minimal_simplex():
    t = make([Node(1, AP), Node(2, UD)], [Link(1, 2, Technology.VLC_LED)])
    c = classify_topology(t)
    assert (c.relaying, c.directionality, c.duplex_kind, c.homogeneity, c.channels) == (
        "non-relayed", "simplex", "n/a", "homogeneous", "single-channel"
    )
    assert not c.parallel_connections


def test_classify_standalone_duplex():
    # VLC in both directions
    t = make(
        [Node(1, AP), Node(2, UD)],
        duplex(1, 2, Technology.VLC_LED, Technology.VLC_LED),
    )
    c = classify_topology(t)
    assert c.directionality == "duplex"
    assert c.duplex_kind == "standalone"


def test_classify_aggregate_duplex():
    # VLC downlink with a radio uplink
    t = make(
        [Node(1, AP), Node(2, UD)],
        duplex(1, 2, Technology.VLC_LED, Technology.RF),
    )
    c = classify_topology(t)
    assert c.directionality == "duplex"
    assert c.duplex_kind == "aggregate"


def test_classify_ld_counts_as_vlc():
    t = make(
        [Node(1, AP), Node(2, UD)],
        duplex(1, 2, Technology.VLC_LED, Technology.VLC_LD),
    )
    assert classify_topology(t).duplex_kind == "standalone"


def test_classify_relayed():
    t = make(
        [Node(1, UD), Node(2, RELAY), Node(3, AP)],
        [Link(1, 2, Technology.RF), Link(2, 3, Technology.VLC_LD)],
    )
    assert classify_topology(t).relaying == "relayed"


def test_isolated_relay_does_not_count():
    t = make(
        [Node(1, AP), Node(2, UD), Node(9, RELAY)],
        [Link(1, 2, Technology.VLC_LED)],
    )
    assert classify_topology(t).relaying == "non-relayed"


def test_classify_heterogeneous():
    t = make(
        [
            Node(1, AP),
            Node(2, UD, protocols={"a"}),
            Node(3, UD, protocols={"b"}),
        ],
        [Link(1, 2, Technology.VLC_LED), Link(1, 3, Technology.VLC_LED)],
    )
    assert classify_topology(t).homogeneity == "heterogeneous"


def test_classify_homogeneous_same_tags():
    t = make(
        [
            Node(1, AP),
            Node(2, UD, protocols={"a", "b"}),
            Node(3, UD, protocols={"b", "a"}),
        ],
        [Link(1, 2, Technology.VLC_LED), Link(1, 3, Technology.VLC_LED)],
    )
    assert classify_topology(t).homogeneity == "homogeneous"


def test_homogeneity_is_per_access_point():
    # different tag sets under different APs stay homogeneous
    t = make(
        [
            Node(1, AP),
            Node(2, AP),
            Node(3, UD, protocols={"a"}),
            Node(4, UD, protocols={"b"}),
        ],
        [Link(1, 3, Technology.VLC_LED), Link(2, 4, Technology.VLC_LED)],
    )
    assert classify_topology(t).homogeneity == "homogeneous"


def test_classify_multi_channel():
    t = make(
        [Node(1, AP), Node(2, UD)],
        [Link(1, 2, Technology.VLC_LED, channel_count=3)],
    )
    assert classify_topology(t).channels == "multi-channel"


def test_multi_channel_ignores_non_vlc_links():
    t = make(
        [Node(1, AP), Node(2, UD)],
        [Link(1, 2, Technology.RF, channel_count=8)],
    )
    assert classify_topology(t).channels == "single-channel"


def test_classify_parallel_connections():
    links = duplex(1, 2, Technology.VLC_LED) + duplex(1, 2, Technology.VLC_LD)
    t = make([Node(1, AP), Node(2, UD)], links)
    c = classify_topology(t)
    assert c.parallel_connections
    assert c.duplex_kind == "standalone"
    # one duplex pair alone is not parallel
    t2 = make([Node(1, AP), Node(2, UD)], duplex(1, 2, Technology.VLC_LED))
    assert not classify_topology(t2).parallel_connections


def test_classify_requires_topology():
    with pytest.raises(TopologyError):
        classify_topology([Node(1, UD)])


def test_labels_tuple_shape():
    c = TopologyClass("relayed", "duplex", "aggregate", "heterogeneous", "multi-channel")
    assert (c.relaying, c.directionality, c.duplex_kind, c.homogeneity, c.channels) == (
        "relayed", "duplex", "aggregate", "heterogeneous", "multi-channel"
    )


# -------------------------------------------------------------- readdressing

def build_random_topology(rng: random.Random) -> Topology:
    n_nodes = rng.randint(2, 8)
    kinds = [rng.choice([UD, AP, RELAY]) for _ in range(n_nodes)]
    nodes = [
        Node(i + 1, k, protocols=frozenset(rng.sample(["a", "b", "c"], rng.randint(0, 2))))
        for i, k in enumerate(kinds)
    ]
    links = []
    for _ in range(rng.randint(1, 6)):
        a, b = rng.sample(range(1, n_nodes + 1), 2)
        tech = rng.choice(list(Technology))
        if rng.random() < 0.5:
            links.extend(duplex(a, b, tech, rng.choice(list(Technology))))
        else:
            links.append(
                Link(a, b, tech, channel_count=rng.randint(1, 3), scenario=rng.randint(1, 6))
            )
    return make(nodes, links)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_classification_survives_readdressing(readdress, topo_seed, addr_seed):
    """Classification depends on structure, never on address values."""
    t = build_random_topology(random.Random(topo_seed))
    relabeled = readdress(t, addr_seed)
    assert classify_topology(relabeled) == classify_topology(t)


def test_vlc_technology_set():
    assert Technology.VLC_LED in VLC_TECHNOLOGIES
    assert Technology.VLC_LD in VLC_TECHNOLOGIES
    assert Technology.RF not in VLC_TECHNOLOGIES
    assert BeamShape.P2MP.value == "P2MP"
