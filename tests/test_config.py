"""Network configuration text parser."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.netsim.config import (
    ConfigError,
    NetworkConfig,
    load_network_config,
    parse_network_config,
)
from owpan.netsim.topology import (
    BeamShape,
    LinkDirection,
    NodeKind,
    Technology,
    classify_topology,
)
from owpan.params import _TIME, _number, _split_unit, parse_params

BASIC = """
# a three-hop relayed chain
node ud kind=UserDevice protocols=ipv6,coap caps=RF
node r1 kind=Relay caps=RF,FSO
node ap kind=VlcAccessPoint caps=VLC-LED

link ud r1 tech=RF capacity=54Mbps delay=10ns
link r1 ap tech=VLC-LED capacity=96Mbps delay=3ns scenario=2

flow up ud ap rate=2Mbps packet=600 start=1ms
flow sat ud r1  # defaults to a saturating flow

sim duration=50ms seed=11
"""


def test_parse_basic_config():
    cfg = parse_network_config(BASIC)
    t = cfg.topology
    assert [n.name for n in t.nodes] == ["ud", "r1", "ap"]
    assert [n.address for n in t.nodes] == [1, 2, 3]
    assert t.node(1).kind is NodeKind.USER_DEVICE
    assert t.node(1).protocols == frozenset({"ipv6", "coap"})

    assert len(t.links) == 2
    first, second = t.links
    assert first.capacity_bps == 54e6
    assert first.propagation_delay == pytest.approx(10e-9)
    assert second.technology is Technology.VLC_LED
    assert second.scenario == 2
    assert first.direction is LinkDirection.SIMPLEX

    up, sat = cfg.flows
    assert (up.src, up.dst, up.rate_bps, up.packet_bytes) == (1, 3, 2e6, 600)
    assert up.start == pytest.approx(1e-3)
    assert sat.saturating

    assert cfg.duration == pytest.approx(0.05)
    assert cfg.seed == 11


def test_duplex_yes_expands_to_pair():
    cfg = parse_network_config(
        """
node ap kind=VlcAccessPoint
node ud kind=UserDevice
link ap ud tech=VLC-LED duplex=yes
"""
    )
    links = cfg.topology.links
    assert len(links) == 2
    assert {(l.src, l.dst) for l in links} == {(1, 2), (2, 1)}
    assert all(l.direction is LinkDirection.HALF_OF_DUPLEX_PAIR for l in links)
    assert classify_topology(cfg.topology).duplex_kind == "standalone"


def test_asymmetric_duplex_via_half_lines():
    cfg = parse_network_config(
        """
node ap kind=VlcAccessPoint
node ud kind=UserDevice
link ap ud tech=VLC-LED direction=half
link ud ap tech=RF direction=half
"""
    )
    assert classify_topology(cfg.topology).duplex_kind == "aggregate"


def test_explicit_addresses_and_beam():
    cfg = parse_network_config(
        """
node a kind=UserDevice address=0x10
node b kind=VlcAccessPoint address=99
link a b tech=VLC-LD beam=P2MP channels=4
"""
    )
    assert [n.address for n in cfg.topology.nodes] == [16, 99]
    link = cfg.topology.links[0]
    assert link.beam is BeamShape.P2MP
    assert link.channel_count == 4
    assert classify_topology(cfg.topology).channels == "multi-channel"


def test_rate_and_time_suffixes():
    cfg = parse_network_config(
        """
node a kind=UserDevice
node b kind=VlcAccessPoint
link a b tech=RF capacity=1.5Gbps delay=2us
flow f a b rate=250kbps start=3ms
sim duration=1.5s
"""
    )
    assert cfg.topology.links[0].capacity_bps == 1.5e9
    assert cfg.topology.links[0].propagation_delay == pytest.approx(2e-6)
    assert cfg.flows[0].rate_bps == 250e3
    assert cfg.duration == 1.5


def _spaced(text):
    # '54Mbps' -> '54 Mbps', the spelling of a params file
    return re.sub(r"^([\d.]+)", r"\1 ", text).strip()


@pytest.mark.parametrize(
    "rate, time", [("54Mbps", "10ns"), ("2.5Gbps", "3ms"), ("7bit/s", "1.5s"), ("250kbps", "0.2")]
)
def test_units_read_the_same_as_in_a_params_file(rate, time):
    cfg = parse_network_config(
        f"node a kind=UserDevice\nnode b kind=Relay\n"
        f"link a b tech=RF capacity={rate} delay={time}\n"
        f"flow f a b rate={rate} start={time}\nsim duration={time}\n"
    )
    link, flow = cfg.topology.links[0], cfg.flows[0]
    for r, t in ((rate, time), (_spaced(rate), _spaced(time))):
        p = parse_params([f"rf_capacity = {r}"])
        assert link.capacity_bps == flow.rate_bps == p.rf_capacity
        assert link.propagation_delay == flow.start == cfg.duration == _number(
            *_split_unit(t, _TIME)
        )


def test_missing_sim_line_leaves_none():
    cfg = parse_network_config("node a kind=UserDevice\n")
    assert cfg.duration is None
    assert cfg.seed is None
    assert cfg.flows == ()


@pytest.mark.parametrize(
    "text, message",
    [
        ("sim duration=1\nsim duration=2 seed=3\n", "line 2: duplicate sim attribute 'duration'"),
        ("sim seed=1\n# note\nsim duration=2 seed=3\n", "line 3: duplicate sim attribute 'seed'"),
    ],
)
def test_repeated_sim_setting_is_rejected(text, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_network_config(text)


def test_sim_settings_may_span_lines():
    config = parse_network_config("sim duration=2\nsim seed=3\n")
    assert (config.duration, config.seed) == (2.0, 3)


def test_error_messages_carry_line_numbers():
    cases = [
        ("node a\n", "line 1"),
        ("node a kind=Nonsense\n", "Relay"),
        ("node a kind=UserDevice\nnode a kind=Relay\n", "line 2"),
        ("link a b tech=RF\n", "unknown node"),
        ("node a kind=UserDevice\nnode b kind=Relay\nlink a b\n", "link needs"),
        ("node a kind=UserDevice\nnode b kind=Relay\nlink a b tech=warp\n", "unknown technology"),
        ("node a kind=UserDevice\nnode b kind=Relay\nlink a b tech=RF capacity=fast\n", "bad capacity"),
        ("teleport a b\n", "unknown directive"),
        ("node a kind=UserDevice keel=over\n", "unknown attribute"),
        ("node a kind=UserDevice kind=Relay\n", "duplicate attribute"),
        ("flow f a b\n", "unknown node"),
        ("sim duration=0.1 seed=pi\n", "bad seed"),
    ]
    for text, fragment in cases:
        with pytest.raises(ConfigError) as exc:
            parse_network_config(text)
        assert fragment in str(exc.value), (text, str(exc.value))

    # values the node, link and flow constructors reject name their line too
    nodes = "node a kind=UserDevice\nnode b kind=Relay\n"
    prefixed = [
        (nodes + "link a b tech=RF capacity=0\n", "line 3: link capacity must be positive"),
        (nodes + "flow f a b start=-1\n", "line 3: flow f: start time must be >= 0"),
        (nodes + "flow f a b packet=0\n", "line 3: flow f: packet_bytes must be >= 1"),
        (nodes + "flow f a b rate=0\n", "line 3: flow f: rate must be positive"),
        (nodes + "link a b tech=RF scenario=9\n", "line 3: scenario 9 not in 1..6"),
        (nodes + "link a a tech=RF\n", "line 3: link endpoints coincide"),
        ("node a kind=UserDevice address=-1\n", "line 1: address -1 outside 64-bit range"),
        (nodes + "link a b tech=RF duplex=maybe\n", "line 3: duplex must be yes, true, 1, no"),
        ("node a kind=Relay junk\n", "line 1: expected key=value, got 'junk'"),
    ]
    for text, prefix in prefixed:
        with pytest.raises(ConfigError) as exc:
            parse_network_config(text)
        assert str(exc.value).startswith(prefix), (text, str(exc.value))


def test_caps_are_checked_and_not_stored():
    cfg = parse_network_config("node a kind=Relay caps=FSO,RF,VLC-LED\nnode b kind=Relay caps=\n")
    assert [n.name for n in cfg.topology.nodes] == ["a", "b"]
    with pytest.raises(ConfigError, match=r"^line 2: unknown technology 'IR'"):
        parse_network_config("node a kind=Relay\nnode b kind=Relay caps=RF,IR\n")


@pytest.mark.parametrize("name", ["x,y", 'x"y'])
def test_flow_name_that_breaks_the_csv_names_its_line(name):
    # "flow x,y a b" wrote a metrics row one cell longer than the header
    with pytest.raises(ConfigError, match=f"^line 3: flow name {re.escape(repr(name))} must not"):
        parse_network_config(f"node a kind=Relay\nnode b kind=Relay\nflow {name} a b\n")


def test_flow_from_a_node_to_itself_names_its_line(tmp_path):
    path = tmp_path / "self.cfg"
    path.write_text("node a kind=Relay\nnode b kind=Relay\nlink a b tech=RF\nflow f a a\n")
    with pytest.raises(ConfigError, match=r"^line 4: flow f: source and destination coincide"):
        load_network_config(str(path))


@pytest.mark.parametrize(
    "value, count", [("yes", 2), ("TRUE", 2), ("1", 2), ("no", 1), ("false", 1), ("0", 1)]
)
def test_duplex_values(value, count):
    cfg = parse_network_config(
        f"node a kind=UserDevice\nnode b kind=Relay\nlink a b tech=RF duplex={value}\n"
    )
    assert len(cfg.topology.links) == count


def test_unmatched_half_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        parse_network_config(
            """
node a kind=UserDevice
node b kind=VlcAccessPoint
link a b tech=VLC-LED direction=half
"""
        )
    assert "unmatched duplex half" in str(exc.value)


def test_load_from_file(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(BASIC)
    cfg = load_network_config(str(path))
    assert len(cfg.topology.nodes) == 3
    assert cfg.seed == 11


# a config line is drawn as its directive, the names after it (fitting,
# repeated, unknown or missing), its required key, and keys with values at
# and past the edges of their ranges
_HEADS = {
    "node": ["c", "a", ""],
    "link": ["a b", "a a", "a zz", "a"],
    "flow": ["f a b", "f a a", "f zz b", "f a"],
    "sim": [""],
    "teleport": ["a b"],
}
_REQUIRED = {"node": "kind=Relay", "link": "tech=RF"}
_KEYS = {
    "node": ["kind", "caps", "protocols", "address"],
    "link": ["tech", "capacity", "delay", "scenario", "beam", "channels", "direction", "duplex"],
    "flow": ["rate", "packet", "start"],
    "sim": ["duration", "seed"],
    "teleport": [],
}
_VALUES = [
    "0", "-1", "1", "9", "inf", "nan", "1e400", str(2**64), "infGbps", "-5us", "1e20",
    "1Mbps", "10ns", "0x10", "saturate", "yes", "maybe", "half", "simplex", "P2MP", "RF",
    "FSO,RF", "Relay", "UserDevice", "",
]
# network-wide checks, which no single line causes
_UNLINED = ("duplicate node address", "unmatched duplex half")


@st.composite
def _config_line(draw):
    directive = draw(st.sampled_from(sorted(_HEADS)))
    words = [directive, draw(st.sampled_from(_HEADS[directive]))]
    if directive in _REQUIRED and draw(st.booleans()):
        words.append(_REQUIRED[directive])
    keys = st.sampled_from(_KEYS[directive] + ["colour"])
    words += draw(st.lists(st.builds("{}={}".format, keys, st.sampled_from(_VALUES)), max_size=3))
    return " ".join(words)


_free_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=40)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 3), st.one_of(_config_line(), _free_text))
def test_parser_is_total_and_names_the_line(blank_lines, line):
    text = "node a kind=UserDevice\nnode b kind=Relay\n" + "\n" * blank_lines + line
    line_no = 3 + blank_lines
    try:
        assert isinstance(parse_network_config(text), NetworkConfig)
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith(f"line {line_no}: ") or message.startswith(_UNLINED), message
