"""Relay elements and the discrete-event simulator."""

import hashlib
import io
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import owpan
from owpan.netsim.engine import (
    METRICS_CSV_HEADER,
    FlowSpec,
    SimulationError,
    metrics_summary,
    run_simulation,
    shortest_route,
    write_metrics_csv,
)
from owpan.netsim.relay import RelayDecodeError, af_relay, df_relay
from owpan.netsim.topology import Link, LinkDirection, Node, NodeKind, Technology, Topology
from owpan.phy.frames import encode_frame
from owpan.phy.modes import mode_by_name

UD, AP, RELAY = NodeKind.USER_DEVICE, NodeKind.VLC_ACCESS_POINT, NodeKind.RELAY


def line_topology(capacities, delays=None):
    """Chain of nodes 1..n+1 with the given per-hop capacities."""
    delays = delays or [0.0] * len(capacities)
    kinds = [UD] + [RELAY] * (len(capacities) - 1) + [AP]
    nodes = tuple(Node(i + 1, k) for i, k in enumerate(kinds))
    techs = [Technology.RF, Technology.VLC_LD, Technology.VLC_LED]
    links = tuple(
        Link(
            i + 1,
            i + 2,
            techs[i % 3],
            capacity_bps=c,
            propagation_delay=d,
        )
        for i, (c, d) in enumerate(zip(capacities, delays))
    )
    return Topology(nodes=nodes, links=links)


# --------------------------------------------------------------------- relay

def test_af_identity_at_unit_gain():
    assert af_relay(0.75) == 0.75
    assert af_relay(0.0) == 0.0


def test_af_gain_and_linearity():
    assert af_relay(2.0, gain=3.0) == 6.0
    a, b = 0.4, 1.1
    assert af_relay(a + b, gain=2.5) == pytest.approx(
        af_relay(a, gain=2.5) + af_relay(b, gain=2.5), rel=1e-15
    )


def test_af_applies_to_waveforms():
    wf = np.array([0.0, 0.5, 1.0])
    out = af_relay(wf, gain=2.0)
    assert out.tolist() == [0.0, 1.0, 2.0]


def test_af_amplifies_noise_too():
    clean = np.array([1.0, 0.0, 1.0])
    noise = np.array([0.1, 0.2, 0.05])
    assert af_relay(clean + noise, gain=2.0).tolist() == (2 * (clean + noise)).tolist()


def test_af_rejects_negative_inputs():
    with pytest.raises(ValueError):
        af_relay(-0.1)
    with pytest.raises(ValueError):
        af_relay(np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        af_relay(1.0, gain=-1.0)


def test_df_preserves_payload_across_modes():
    payload = b"relay me exactly"
    frame = encode_frame(payload, mode_by_name("phy1-ook-24k"))
    out = df_relay(frame, out_mode=mode_by_name("phy2-ook-6m"))
    assert out.payload == payload
    assert out.mode.name == "phy2-ook-6m"
    assert out.waveform is not frame.waveform


def test_df_chaining_preserves_payload():
    payload = bytes(range(48))
    frame = encode_frame(payload, mode_by_name("phy2-ook-96m"))
    hop1 = df_relay(frame, out_mode=mode_by_name("phy1-vppm-124k"))
    hop2 = df_relay(hop1, out_mode=mode_by_name("phy1-ook-11k"))
    assert hop2.payload == payload


def test_df_default_output_mode_is_input_mode():
    frame = encode_frame(b"same mode", mode_by_name("phy1-vppm-35k"))
    out = df_relay(frame)
    assert out.mode is frame.mode
    assert out.payload == frame.payload


def test_df_regenerates_rather_than_accumulating_noise():
    """A decodable-but-noisy waveform leaves the relay perfectly clean."""
    mode = mode_by_name("phy2-ook-96m")
    frame = encode_frame(b"denoise", mode)
    rng = np.random.default_rng(1)
    noisy = frame.waveform + rng.uniform(0.0, 0.2, frame.waveform.size)
    dirty = type(frame)(payload=frame.payload, mode=mode, chips=frame.chips, waveform=noisy)
    out = df_relay(dirty)
    assert out.waveform.tolist() == frame.waveform.tolist()


def test_df_decode_failure_is_signalled():
    mode = mode_by_name("phy2-ook-96m")
    frame = encode_frame(b"garble", mode)
    wrecked = frame.waveform.copy()
    wrecked[:] = 0.0
    broken = type(frame)(payload=b"", mode=mode, chips=frame.chips, waveform=wrecked)
    with pytest.raises(RelayDecodeError):
        df_relay(broken)


def test_df_cut_cc_frame_is_a_relay_error():
    # two chips (eight samples) fewer: one coded bit short of rate 1/4
    mode = mode_by_name("phy1-ook-11k")
    frame = encode_frame(b"cut", mode)
    cut = type(frame)(payload=b"", mode=mode, chips=frame.chips, waveform=frame.waveform[:-8])
    with pytest.raises(RelayDecodeError):
        df_relay(cut)


# ------------------------------------------------------------------- routing

def test_shortest_route_is_fewest_hops():
    # 1 -> 4 direct link exists alongside a two-hop path
    nodes = tuple(Node(i, UD if i == 1 else AP) for i in (1, 2, 3, 4))
    links = (
        Link(1, 2, Technology.RF),
        Link(2, 4, Technology.RF),
        Link(1, 4, Technology.FSO),
        Link(1, 3, Technology.RF),
    )
    t = Topology(nodes=nodes, links=links)
    assert shortest_route(t, 1, 4) == [2]
    assert shortest_route(t, 1, 1) == []


def test_route_prefers_higher_capacity_among_parallel_links():
    nodes = (Node(1, UD), Node(2, AP))
    links = (
        Link(1, 2, Technology.RF, capacity_bps=1e6),
        Link(1, 2, Technology.FSO, capacity_bps=9e6),
    )
    t = Topology(nodes=nodes, links=links)
    assert shortest_route(t, 1, 2) == [1]


def test_route_error_when_disconnected():
    t = Topology(nodes=(Node(1, UD), Node(2, AP)), links=())
    with pytest.raises(SimulationError) as exc:
        shortest_route(t, 1, 2)
    assert "no route" in str(exc.value)


def test_route_ignores_reverse_links():
    t = Topology(
        nodes=(Node(1, UD), Node(2, AP)),
        links=(Link(2, 1, Technology.RF),),
    )
    with pytest.raises(SimulationError):
        shortest_route(t, 1, 2)


# ---------------------------------------------------------------- simulation

def test_saturating_flow_reaches_link_capacity():
    cap = 30e6
    t = line_topology([cap])
    flows = [FlowSpec("sat", 1, 2)]
    m = run_simulation(t, flows, duration=0.05, seed=3)
    assert m.throughput_bps <= cap * (1 + 1e-9)
    assert m.throughput_bps >= cap * 0.98


def test_saturating_flow_bottlenecked_by_min_capacity():
    caps = [54e6, 12e6, 96e6]
    t = line_topology(caps)
    m = run_simulation(t, [FlowSpec("sat", 1, 4)], duration=0.05, seed=1)
    assert m.throughput_bps <= min(caps) * (1 + 1e-9)
    assert m.throughput_bps >= min(caps) * 0.98


def test_latency_at_least_propagation_sum():
    delays = [3e-6, 5e-6, 2e-6]
    t = line_topology([10e6, 10e6, 10e6], delays)
    m = run_simulation(
        t, [FlowSpec("f", 1, 4, rate_bps=1e6)], duration=0.02, seed=2
    )
    assert m.delivered > 0
    floor = sum(delays)
    for f in m.flows:
        assert f.mean_latency_s >= floor
        assert f.max_latency_s >= f.p95_latency_s >= f.p50_latency_s >= floor


def test_zero_traffic():
    t = line_topology([1e6])
    m = run_simulation(t, [], duration=0.01)
    assert (m.injected, m.delivered, m.dropped) == (0, 0, 0)
    assert math.isnan(m.mean_latency_s)


def test_flow_starting_after_horizon_stays_idle():
    t = line_topology([1e6])
    m = run_simulation(t, [FlowSpec("late", 1, 2, start=5.0)], duration=0.01)
    assert m.injected == 0


def test_accounting_identity_holds():
    t = line_topology([2e6, 1e6])
    flows = [
        FlowSpec("a", 1, 3, rate_bps=1.5e6),
        FlowSpec("b", 1, 2, rate_bps=0.3e6, packet_bytes=400),
    ]
    m = run_simulation(t, flows, duration=0.05, seed=9)
    assert m.delivered + m.dropped == m.injected
    for f in m.flows:
        assert f.delivered + f.dropped == f.injected
    assert m.injected == sum(f.injected for f in m.flows)


def test_poisson_flow_roughly_hits_offered_load():
    t = line_topology([10e6])
    rate = 2e6
    m = run_simulation(t, [FlowSpec("p", 1, 2, rate_bps=rate)], duration=0.5, seed=4)
    assert m.throughput_bps == pytest.approx(rate, rel=0.15)


def test_utilization_and_bits_carried():
    cap = 8e6
    t = line_topology([cap])
    m = run_simulation(t, [FlowSpec("sat", 1, 2)], duration=0.02, seed=0)
    link = m.links[0]
    assert 0.99 <= link.utilization <= 1.0
    assert link.bits_carried >= m.throughput_bps * m.duration


@st.composite
def _random_relay_run(draw):
    """A random tree of 2-8 nodes, one link each way per edge, and 1-5
    saturating or Poisson flows between random nodes."""
    n = draw(st.integers(2, 8))
    edges = [(child, draw(st.integers(1, child - 1))) for child in range(2, n + 1)]
    caps = {child: draw(st.floats(1e6, 1e9)) for child, _ in edges}
    delays = {child: draw(st.floats(0.0, 1e-4)) for child, _ in edges}
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, n + 1)),
        links=_two_way_links(edges, caps.get, delays.get),
    )
    node = st.integers(1, n)
    flows = [
        FlowSpec(f"f{k}", draw(node), draw(node),
                 rate_bps=draw(st.one_of(st.none(), st.floats(1e5, 5e7))),
                 packet_bytes=draw(st.integers(64, 1500)), start=draw(st.floats(0.0, 1e-3)))
        for k in range(draw(st.integers(1, 5)))
    ]
    return topology, flows, draw(st.floats(1e-4, 3e-3))


@settings(max_examples=60, deadline=None)
@given(_random_relay_run())
def test_bits_carried_is_what_the_link_serialised_by_the_horizon(run):
    topology, flows, duration = run
    m = run_simulation(topology, flows, duration)
    for link, lm in zip(topology.links, m.links):
        assert lm.bits_carried <= link.capacity_bps * duration
        assert lm.bits_carried / (link.capacity_bps * duration) == pytest.approx(
            lm.utilization, rel=1e-12
        )


def test_determinism_same_seed():
    t = line_topology([5e6, 3e6], [1e-6, 2e-6])
    flows = [
        FlowSpec("x", 1, 3, rate_bps=2e6),
        FlowSpec("y", 1, 2, rate_bps=1e6, packet_bytes=800),
    ]
    a = run_simulation(t, flows, duration=0.1, seed=7)
    b = run_simulation(t, flows, duration=0.1, seed=7)
    assert a == b
    c = run_simulation(t, flows, duration=0.1, seed=8)
    assert a != c


def test_flow_validation():
    with pytest.raises(SimulationError):
        FlowSpec("", 1, 2)
    with pytest.raises(SimulationError):
        FlowSpec("f", 1, 2, rate_bps=0.0)
    with pytest.raises(SimulationError):
        FlowSpec("f", 1, 2, packet_bytes=0)
    with pytest.raises(SimulationError):
        FlowSpec("f", 1, 2, start=-1.0)
    assert FlowSpec("f", 1, 2, rate_bps=math.inf).saturating
    assert FlowSpec("f", 1, 2).saturating
    assert not FlowSpec("f", 1, 2, rate_bps=1.0).saturating


def test_simulation_input_validation():
    t = line_topology([1e6])
    with pytest.raises(SimulationError):
        run_simulation(t, [FlowSpec("a", 1, 2), FlowSpec("a", 1, 2)], duration=0.1)
    with pytest.raises(SimulationError):
        run_simulation(t, [], duration=0.0)
    with pytest.raises(SimulationError):
        run_simulation(t, [FlowSpec("a", 2, 1)], duration=0.1)  # no reverse link


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_duration_must_be_finite(duration):
    # an infinite horizon never returns; a NaN one gives NaN utilisation
    with pytest.raises(SimulationError, match="finite"):
        run_simulation(line_topology([1e6]), [FlowSpec("s", 1, 2)], duration=duration)


def test_nan_start_is_rejected():
    with pytest.raises(SimulationError, match="start time"):
        FlowSpec("f", 1, 2, start=math.nan)


def test_infinite_start_never_starts():
    flows = [
        FlowSpec("never", 1, 2, start=math.inf),
        FlowSpec("p", 1, 2, rate_bps=1e6, start=math.inf),
    ]
    m = run_simulation(line_topology([1e6]), flows, duration=0.01)
    assert (m.injected, m.links[0].utilization) == (0, 0.0)


@pytest.mark.parametrize(
    "capacity, flow",
    [
        # 1250 B over 1e20 bit/s is 1e-16 s, and 1.0 + 1e-16 == 1.0
        ("1e20", "FlowSpec('s', 1, 2, start=1.0)"),
        ("1e6", "FlowSpec('s', 1, 2, rate_bps=1e300, start=1.0)"),
        # a Poisson flow with no hop still draws its gaps on the clock
        ("1e6", "FlowSpec('s', 1, 1, rate_bps=1e300, start=1.0)"),
    ],
)
def test_step_below_clock_resolution_is_rejected(capacity, flow):
    # in a child process with a timeout, so that a clock which cannot
    # advance fails this test instead of hanging the suite
    script = (
        "from owpan.netsim.engine import FlowSpec, SimulationError, run_simulation\n"
        "from owpan.netsim.topology import Link, Node, NodeKind, Technology, Topology\n"
        "nodes = (Node(1, NodeKind.RELAY), Node(2, NodeKind.RELAY))\n"
        f"links = (Link(1, 2, Technology.RF, capacity_bps={capacity}),)\n"
        "try:\n"
        f"    run_simulation(Topology(nodes, links), [{flow}], duration=2.0)\n"
        "except SimulationError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(owpan.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("flow s: packet time step")
    assert "below the clock resolution" in done.stdout


def test_metrics_csv_shape_and_determinism():
    t = line_topology([4e6, 2e6])
    flows = [FlowSpec("f", 1, 3, rate_bps=1e6)]
    m = run_simulation(t, flows, duration=0.05, seed=5)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_metrics_csv(m, buf1)
    write_metrics_csv(run_simulation(t, flows, duration=0.05, seed=5), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == METRICS_CSV_HEADER
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["flow", "link", "link", "total"]
    ncols = len(METRICS_CSV_HEADER.split(","))
    assert all(len(line.split(",")) == ncols for line in lines)


def test_metrics_summary_mentions_each_flow():
    t = line_topology([4e6])
    m = run_simulation(t, [FlowSpec("alpha", 1, 2, rate_bps=1e6)], duration=0.05)
    text = metrics_summary(m)
    assert "flow alpha:" in text
    assert "packets delivered" in text


def test_random_three_hop_saturation_sample():
    """A smaller version of the acceptance sweep: random capacities, the
    measured saturating throughput lands on the bottleneck."""
    rng = random.Random(2024)
    for _ in range(25):
        caps = [rng.uniform(1e6, 100e6) for _ in range(3)]
        t = line_topology(caps)
        horizon = 3000 * 1250 * 8 / min(caps)  # ~3000 packets at the bottleneck
        m = run_simulation(t, [FlowSpec("s", 1, 4)], duration=horizon, seed=1)
        assert m.throughput_bps <= min(caps) * (1 + 1e-9)
        assert m.throughput_bps >= min(caps) * 0.98


# ------------------------------------------------------- pinned simulator output

def _metrics_csv(topology, flows, duration, seed=0):
    buf = io.StringIO()
    write_metrics_csv(run_simulation(topology, flows, duration, seed=seed), buf)
    return buf.getvalue()


def _two_way_links(edges, capacity, delay, tech=lambda child: Technology.RF):
    """One simplex link each way per (child, parent) edge."""
    links = []
    for child, parent in edges:
        for a, b in ((child, parent), (parent, child)):
            links.append(
                Link(a, b, tech(child), capacity_bps=capacity(child), propagation_delay=delay(child))
            )
    return tuple(links)


def _relay_tree_run(seed):
    """Gateway 1, relays 2-3, access points 4-6, users 7-11: Poisson flows
    from the gateway down to users and one saturating flow up from a user
    on a 96 Mbps link into a 48 Mbps access hop."""
    rng = random.Random(seed)
    parents = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 4, 8: 4, 9: 5, 10: 6, 11: 6}
    kinds = {1: RELAY, 2: RELAY, 3: RELAY, 4: AP, 5: AP, 6: AP}
    users = list(range(7, 12))
    sat = rng.choice(users)
    caps = {}
    delays = {}
    for child in parents:
        if child <= 3:
            caps[child], delays[child] = rng.choice((1e9, 2.5e9)), rng.randrange(1, 20) * 1e-6
        elif child <= 6:
            caps[child], delays[child] = rng.choice((24e6, 36e6, 54e6)), rng.randrange(10, 500) * 1e-9
        else:
            caps[child], delays[child] = rng.choice((72e6, 96e6)), rng.randrange(5, 50) * 1e-9
    caps[sat], caps[parents[sat]] = 96e6, 48e6
    techs = [Technology.FSO, Technology.RF, Technology.VLC_LD, Technology.VLC_LED]
    topology = Topology(
        nodes=tuple(Node(a, kinds.get(a, UD)) for a in range(1, 12)),
        links=_two_way_links(
            parents.items(), caps.get, delays.get, lambda child: techs[child % 4]
        ),
    )
    flows = [
        FlowSpec(f"f{k}", 1, rng.choice(users), rate_bps=rng.uniform(0.2e6, 6e6),
                 packet_bytes=rng.choice((64, 512, 1500)), start=rng.uniform(0.0, 2e-3))
        for k in range(12)
    ]
    flows.append(FlowSpec("sat", sat, 1, packet_bytes=1500))
    return _metrics_csv(topology, flows, 0.03, seed=seed)


def _tie_heavy_run(seed):
    """A random tree of 2-6 nodes with no propagation delay, 125 B packets
    and 1, 2 or 4 Mbps links, so every service time is exact and many
    events share an instant: saturating flows share a start and a first
    link, and Poisson flows start on the same 0.25 ms grid."""
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    edges = [(child, rng.randrange(1, child)) for child in range(2, n + 1)]
    caps = {child: rng.choice((1e6, 2e6, 4e6)) for child, _ in edges}
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, n + 1)),
        links=_two_way_links(edges, caps.get, lambda child: 0.0),
    )
    src = rng.randrange(1, n + 1)
    dst = rng.choice([a for a in range(1, n + 1) if a != src])
    start = rng.choice((0.0, 0.25e-3, 1e-3))
    flows = [FlowSpec("s0", src, dst, packet_bytes=125, start=start),
             FlowSpec("s1", src, dst, packet_bytes=125, start=start)]
    for k in range(rng.randrange(1, 4)):
        flows.append(FlowSpec(f"s{k + 2}", rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                              packet_bytes=125, start=rng.randrange(4) * 0.25e-3))
    for k in range(rng.randrange(0, 3)):
        flows.append(FlowSpec(f"p{k}", rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                              rate_bps=rng.choice((0.2e6, 1e6)), packet_bytes=125,
                              start=rng.randrange(4) * 0.25e-3))
    return _metrics_csv(topology, flows, rng.choice((0.01, 0.0125, 0.02)), seed=seed)


def _edge_case_runs():
    chain = line_topology([1e6, 2e6], [1e-6, 0.0])
    zero_hop = [FlowSpec("zp", 2, 2, rate_bps=0.5e6, packet_bytes=125),
                FlowSpec("zs", 1, 1, packet_bytes=125), FlowSpec("a", 1, 3, rate_bps=0.3e6)]
    late = [FlowSpec("late", 1, 3, start=5.0),
            FlowSpec("now", 1, 2, rate_bps=0.4e6, packet_bytes=125)]
    # 1 ms per packet on the first hop: the horizon falls mid-service
    cut = [FlowSpec("sat", 1, 3, packet_bytes=125), FlowSpec("p", 2, 3, rate_bps=0.2e6)]
    return [
        _metrics_csv(chain, zero_hop, 0.05, seed=3),
        _metrics_csv(chain, late, 0.01, seed=4),
        _metrics_csv(chain, cut, 0.0105, seed=5),
    ]


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_simulator_output_matches_pinned_digests():
    """The metrics CSV of seeded relay trees, tie-heavy random trees and the
    edge cases (zero-hop flows, a flow starting after the horizon, a
    horizon inside a packet's service) is pinned byte for byte."""
    digests = {
        "relay_trees": _digest(_relay_tree_run(seed) for seed in range(4)),
        "tie_heavy": _digest(_tie_heavy_run(seed) for seed in range(100)),
        "edge_cases": _digest(_edge_case_runs()),
    }
    assert digests == {
        "relay_trees": "52e16115dccd88a97d276aa7aff2514015e7dc9a61e2e739e67952fe982a56a2",
        "tie_heavy": "81e05e9dcf9bc0fbc139c5c3d41a85c7d1a114c966570f0405381861d5613d2f",
        "edge_cases": "b8f7f4f4077247aa25345967608a06661f0295a9c529061bcccba87afe007dcb",
    }
