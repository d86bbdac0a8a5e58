"""Text configuration for topologies, flows, and simulation settings.

Line-oriented format, one declaration per line, ``#`` comments:

    node <name> kind=<UserDevice|VlcAccessPoint|Relay> [caps=a,b] [protocols=p,q] [address=N]
    link <src> <dst> tech=<technology> [capacity=96Mbps] [delay=10ns]
         [scenario=1..6] [beam=P2P|P2MP] [channels=N] [direction=simplex|half] [duplex=yes|no]
    flow <name> <src> <dst> [rate=<bps>|saturate] [packet=<bytes>] [start=<s>]
    sim duration=<seconds> [seed=N]

Nodes are referenced by name; addresses default to 1, 2, 3, ... in
declaration order.  ``duplex=yes`` expands one line into a matched pair
of duplex halves with the same attributes; an asymmetric pair (the
aggregate pattern) is written as two ``direction=half`` lines instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import _RATE, _TIME, _number, _split_unit
from .engine import FlowSpec
from .topology import (
    BeamShape,
    Link,
    LinkDirection,
    Node,
    NodeKind,
    Technology,
    Topology,
)

__all__ = ["ConfigError", "NetworkConfig", "parse_network_config", "load_network_config"]


class ConfigError(ValueError):
    """Malformed network configuration text."""


@dataclass(frozen=True)
class NetworkConfig:
    topology: Topology
    flows: tuple
    duration: float | None = None
    seed: int | None = None


def _quantity(text: str, units: dict, what: str) -> float:
    # the unit tables and reader of the link-budget parameter file
    try:
        return _number(*_split_unit(text, units))
    except ValueError:
        raise ValueError(f"bad {what} value {text!r}") from None


def _split_attrs(parts) -> dict:
    attrs = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key in attrs:
            raise ValueError(f"duplicate attribute {key!r}")
        attrs[key] = value
    return attrs


# each enum's members by lower-cased value: names match case-insensitively
_MEMBERS = {e: {m.value.lower(): m for m in e} for e in (NodeKind, BeamShape, Technology)}
_DIRECTIONS = {"simplex": LinkDirection.SIMPLEX, "half": LinkDirection.HALF_OF_DUPLEX_PAIR}
_DUPLEX = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _member(enum_type, raw: str, what: str):
    try:
        return _MEMBERS[enum_type][raw.lower()]
    except KeyError:
        known = ", ".join(m.value for m in enum_type)
        raise ValueError(f"unknown {what} {raw!r} (expected one of: {known})") from None


def _integer(text: str, message: str, base: int = 10) -> int:
    try:
        return int(text, base)
    except ValueError:
        raise ValueError(message) from None


def _address(addresses: dict, name: str) -> int:
    try:
        return addresses[name]
    except KeyError:
        raise ValueError(f"unknown node {name!r}") from None


# optional keys of each directive: key -> (dataclass field, reader of the
# text); an absent key takes the dataclass default
_NODE_KEYS = {
    "protocols": ("protocols", lambda v: [p for p in v.split(",") if p]),
}
_LINK_KEYS = {
    "capacity": ("capacity_bps", lambda v: _quantity(v, _RATE, "capacity")),
    "delay": ("propagation_delay", lambda v: _quantity(v, _TIME, "delay")),
    "beam": ("beam", lambda v: _member(BeamShape, v, "beam")),
    "scenario": ("scenario", lambda v: _integer(v, "scenario/channels must be integers")),
    "channels": ("channel_count", lambda v: _integer(v, "scenario/channels must be integers")),
}
_FLOW_KEYS = {
    "rate": (
        "rate_bps", lambda v: None if v == "saturate" else _quantity(v, _RATE, "rate")
    ),
    "packet": ("packet_bytes", lambda v: _integer(v, "packet must be an integer byte count")),
    "start": ("start", lambda v: _quantity(v, _TIME, "start")),
}


def _pop_fields(attrs: dict, keys: dict) -> dict:
    return {field: read(attrs.pop(key)) for key, (field, read) in keys.items() if key in attrs}


def parse_network_config(text: str) -> NetworkConfig:
    """Parse config text into a topology, flow list, and sim settings.

    The parser reads only syntax: tokens, unit suffixes, enum names and
    integers.  Range rules belong to :class:`Node`, :class:`Link` and
    :class:`FlowSpec`.  Any error a line causes, in its syntax or in a
    value those reject, raises :class:`ConfigError` starting with
    ``line N: ``.  Only the checks spanning lines (duplicate addresses,
    unmatched duplex halves) name no line.
    """
    nodes = []
    addresses = {}
    links = []
    flows = []
    duration = None
    seed = None
    next_address = 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) < 2:
                    raise ValueError("node needs a name")
                name = parts[1]
                if name in addresses:
                    raise ValueError(f"duplicate node name {name!r}")
                attrs = _split_attrs(parts[2:])
                if "kind" not in attrs:
                    raise ValueError(f"node {name!r} needs kind=")
                node_kind = _member(NodeKind, attrs.pop("kind"), "kind")
                # caps= names technologies; nothing reads them, so they are
                # checked and dropped
                for tech in attrs.pop("caps", "").split(","):
                    if tech:
                        _member(Technology, tech, "technology")
                fields = _pop_fields(attrs, _NODE_KEYS)
                if "address" in attrs:
                    address = _integer(attrs.pop("address"), "bad address", 0)
                else:
                    address = next_address
                    next_address += 1
                addresses[name] = address
                nodes.append(Node(address=address, kind=node_kind, name=name, **fields))

            elif kind == "link":
                if len(parts) < 3:
                    raise ValueError("link needs <src> <dst>")
                src, dst = _address(addresses, parts[1]), _address(addresses, parts[2])
                attrs = _split_attrs(parts[3:])
                if "tech" not in attrs:
                    raise ValueError("link needs tech=")
                technology = _member(Technology, attrs.pop("tech"), "technology")
                fields = _pop_fields(attrs, _LINK_KEYS)
                duplex = False
                if "duplex" in attrs:
                    duplex = _DUPLEX.get(attrs.pop("duplex").lower())
                    if duplex is None:
                        raise ValueError("duplex must be yes, true, 1, no, false or 0")
                if "direction" in attrs:
                    direction = _DIRECTIONS.get(attrs.pop("direction").lower())
                    if direction is None:
                        raise ValueError("direction must be simplex or half")
                else:
                    direction = _DIRECTIONS["half" if duplex else "simplex"]
                pairs = [(src, dst), (dst, src)] if duplex else [(src, dst)]
                for a, b in pairs:
                    links.append(
                        Link(src=a, dst=b, technology=technology, direction=direction, **fields)
                    )

            elif kind == "flow":
                if len(parts) < 4:
                    raise ValueError("flow needs <name> <src> <dst>")
                src, dst = _address(addresses, parts[2]), _address(addresses, parts[3])
                attrs = _split_attrs(parts[4:])
                fields = _pop_fields(attrs, _FLOW_KEYS)
                flows.append(FlowSpec(name=parts[1], src=src, dst=dst, **fields))

            elif kind == "sim":
                attrs = _split_attrs(parts[1:])
                for key, value in (("duration", duration), ("seed", seed)):
                    if key in attrs and value is not None:
                        raise ValueError(f"duplicate sim attribute {key!r}")
                if "duration" in attrs:
                    duration = _quantity(attrs.pop("duration"), _TIME, "duration")
                if "seed" in attrs:
                    seed = _integer(attrs.pop("seed"), "bad seed", 0)

            else:
                raise ValueError(
                    f"unknown directive {kind!r} (expected node, link, flow, or sim)"
                )
            if attrs:
                raise ValueError(f"unknown attribute(s): {', '.join(sorted(attrs))}")
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from exc

    try:
        topology = Topology(nodes=tuple(nodes), links=tuple(links))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return NetworkConfig(
        topology=topology, flows=tuple(flows), duration=duration, seed=seed
    )


def load_network_config(path: str) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network_config(fh.read())
