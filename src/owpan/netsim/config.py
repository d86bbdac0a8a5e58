"""Text configuration for topologies, flows, and simulation settings.

Line-oriented format, one declaration per line, ``#`` comments:

    node <name> kind=<UserDevice|VlcAccessPoint|Relay> [caps=a,b] [protocols=p,q] [address=N]
    link <src> <dst> tech=<technology> [capacity=96Mbps] [delay=10ns]
         [scenario=1..6] [beam=P2P|P2MP] [channels=N] [direction=simplex|half] [duplex=yes]
    flow <name> <src> <dst> [rate=<bps>|saturate] [packet=<bytes>] [start=<s>]
    sim duration=<seconds> [seed=N]

Nodes are referenced by name; addresses default to 1, 2, 3, ... in
declaration order.  ``duplex=yes`` expands one line into a matched pair
of duplex halves with the same attributes; an asymmetric pair (the
aggregate pattern) is written as two ``direction=half`` lines instead.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_RATE_SUFFIXES = [("Gbps", 1e9), ("Mbps", 1e6), ("kbps", 1e3), ("bps", 1.0)]
_TIME_SUFFIXES = [("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9), ("ps", 1e-12), ("s", 1.0)]


def _scaled(text: str, suffixes, what: str, line_no: int) -> float:
    for suffix, scale in suffixes:
        if text.endswith(suffix):
            body = text[: -len(suffix)]
            break
    else:
        body, scale = text, 1.0
    try:
        return float(body) * scale
    except ValueError:
        raise ConfigError(f"line {line_no}: bad {what} value {text!r}") from None


def _split_attrs(parts, line_no: int) -> dict:
    attrs = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"line {line_no}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key in attrs:
            raise ConfigError(f"line {line_no}: duplicate attribute {key!r}")
        attrs[key] = value
    return attrs


# each enum's members by lower-cased value: names match case-insensitively
_MEMBERS = {e: {m.value.lower(): m for m in e} for e in (NodeKind, BeamShape, Technology)}


def _member(enum_type, raw: str, what: str, line_no: int):
    try:
        return _MEMBERS[enum_type][raw.lower()]
    except KeyError:
        known = ", ".join(m.value for m in enum_type)
        raise ConfigError(
            f"line {line_no}: unknown {what} {raw!r} (expected one of: {known})"
        ) from None


def _pop_enum(attrs, key, enum_type, default, line_no):
    if key not in attrs:
        return default
    return _member(enum_type, attrs.pop(key), key, line_no)


def _reject_extras(attrs, line_no):
    if attrs:
        raise ConfigError(f"line {line_no}: unknown attribute(s): {', '.join(sorted(attrs))}")


def parse_network_config(text: str) -> NetworkConfig:
    """Parse config text into a topology, flow list, and sim settings."""
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

        if kind == "node":
            if len(parts) < 2:
                raise ConfigError(f"line {line_no}: node needs a name")
            name = parts[1]
            if name in addresses:
                raise ConfigError(f"line {line_no}: duplicate node name {name!r}")
            attrs = _split_attrs(parts[2:], line_no)
            node_kind = _pop_enum(attrs, "kind", NodeKind, None, line_no)
            if node_kind is None:
                raise ConfigError(f"line {line_no}: node {name!r} needs kind=")
            caps = frozenset(
                _member(Technology, t, "technology", line_no)
                for t in attrs.pop("caps", "").split(",")
                if t
            )
            protocols = frozenset(p for p in attrs.pop("protocols", "").split(",") if p)
            if "address" in attrs:
                try:
                    address = int(attrs.pop("address"), 0)
                except ValueError:
                    raise ConfigError(f"line {line_no}: bad address") from None
            else:
                address = next_address
                next_address += 1
            _reject_extras(attrs, line_no)
            addresses[name] = address
            nodes.append(
                Node(
                    address=address,
                    kind=node_kind,
                    capabilities=caps,
                    protocols=protocols,
                    name=name,
                )
            )

        elif kind == "link":
            if len(parts) < 3:
                raise ConfigError(f"line {line_no}: link needs <src> <dst>")
            src_name, dst_name = parts[1], parts[2]
            for n in (src_name, dst_name):
                if n not in addresses:
                    raise ConfigError(f"line {line_no}: unknown node {n!r}")
            attrs = _split_attrs(parts[3:], line_no)
            tech = attrs.pop("tech", None)
            if tech is None:
                raise ConfigError(f"line {line_no}: link needs tech=")
            technology = _member(Technology, tech, "technology", line_no)
            capacity = _scaled(attrs.pop("capacity", "1e6"), _RATE_SUFFIXES, "capacity", line_no)
            delay = _scaled(attrs.pop("delay", "0"), _TIME_SUFFIXES, "delay", line_no)
            beam = _pop_enum(attrs, "beam", BeamShape, BeamShape.P2P, line_no)
            try:
                scenario = int(attrs.pop("scenario", "1"))
                channels = int(attrs.pop("channels", "1"))
            except ValueError:
                raise ConfigError(f"line {line_no}: scenario/channels must be integers") from None
            duplex = attrs.pop("duplex", "no").lower() in ("yes", "true", "1")
            direction_raw = attrs.pop("direction", "half" if duplex else "simplex").lower()
            if direction_raw not in ("simplex", "half"):
                raise ConfigError(f"line {line_no}: direction must be simplex or half")
            _reject_extras(attrs, line_no)
            direction = (
                LinkDirection.HALF_OF_DUPLEX_PAIR
                if direction_raw == "half"
                else LinkDirection.SIMPLEX
            )
            endpoint_pairs = [(src_name, dst_name)]
            if duplex:
                endpoint_pairs.append((dst_name, src_name))
            for a, b in endpoint_pairs:
                links.append(
                    Link(
                        src=addresses[a],
                        dst=addresses[b],
                        technology=technology,
                        direction=direction,
                        beam=beam,
                        scenario=scenario,
                        capacity_bps=capacity,
                        propagation_delay=delay,
                        channel_count=channels,
                    )
                )

        elif kind == "flow":
            if len(parts) < 4:
                raise ConfigError(f"line {line_no}: flow needs <name> <src> <dst>")
            name, src_name, dst_name = parts[1], parts[2], parts[3]
            for n in (src_name, dst_name):
                if n not in addresses:
                    raise ConfigError(f"line {line_no}: unknown node {n!r}")
            attrs = _split_attrs(parts[4:], line_no)
            rate_raw = attrs.pop("rate", "saturate")
            rate = None if rate_raw == "saturate" else _scaled(
                rate_raw, _RATE_SUFFIXES, "rate", line_no
            )
            try:
                packet = int(attrs.pop("packet", "1250"))
            except ValueError:
                raise ConfigError(f"line {line_no}: packet must be an integer byte count") from None
            start = _scaled(attrs.pop("start", "0"), _TIME_SUFFIXES, "start", line_no)
            _reject_extras(attrs, line_no)
            flows.append(
                FlowSpec(
                    name=name,
                    src=addresses[src_name],
                    dst=addresses[dst_name],
                    rate_bps=rate,
                    packet_bytes=packet,
                    start=start,
                )
            )

        elif kind == "sim":
            attrs = _split_attrs(parts[1:], line_no)
            if "duration" in attrs:
                duration = _scaled(attrs.pop("duration"), _TIME_SUFFIXES, "duration", line_no)
            if "seed" in attrs:
                try:
                    seed = int(attrs.pop("seed"), 0)
                except ValueError:
                    raise ConfigError(f"line {line_no}: bad seed") from None
            _reject_extras(attrs, line_no)

        else:
            raise ConfigError(
                f"line {line_no}: unknown directive {kind!r} "
                "(expected node, link, flow, or sim)"
            )

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
