"""Relay elements and the discrete-event simulator."""

import io
import math
import random

import numpy as np
import pytest

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
