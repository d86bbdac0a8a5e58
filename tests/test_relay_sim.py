"""Routing and the discrete-event simulator."""

import csv
import hashlib
import heapq
import io
import math
import os
import random
import re
import statistics
import subprocess
import sys
from functools import cache, partial
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import owpan
from owpan.netsim import engine
from owpan.netsim.engine import (
    _FLOW_SEED_STRIDE,
    METRICS_CSV_HEADER,
    FlowMetrics,
    FlowSpec,
    SimulationError,
    metrics_summary,
    run_simulation,
    shortest_route,
    write_metrics_csv,
)
from owpan.netsim.topology import Link, LinkDirection, Node, NodeKind, Technology, Topology

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


def _md1_topology():
    # 1 -> 2 at 10 Mbps, then 2 -> 3 and 2 -> 4 at 100 Mbps each
    nodes = (Node(1, UD), Node(2, RELAY), Node(3, AP), Node(4, AP))
    links = (
        Link(1, 2, Technology.RF, capacity_bps=10e6),
        Link(2, 3, Technology.FSO, capacity_bps=100e6),
        Link(2, 4, Technology.FSO, capacity_bps=100e6),
    )
    return Topology(nodes=nodes, links=links)


_MD1_SERVICE = 8000 / 10e6


@cache
def _md1_runs(shared, rho):
    """Poisson arrivals of fixed 1000 B packets at a 10 Mbps link at load
    rho, 8 seeds of 20 s: the metrics of each run and the latency the
    later hops add.  One flow alone runs the simulator's private loop; two
    flows of rho/2 each share the link and then leave on separate 100 Mbps
    links, which runs the event heap and adds one 0.08 ms hop that never
    queues (packets leave the shared link >= 0.8 ms apart)."""
    if shared:
        rate = rho / 2 * 10e6
        flows = [
            FlowSpec(name, 1, dst, rate_bps=rate, packet_bytes=1000)
            for name, dst in (("a", 3), ("b", 4))
        ]
        later_hops = 8000 / 100e6
    else:
        flows = [FlowSpec("a", 1, 2, rate_bps=rho * 10e6, packet_bytes=1000)]
        later_hops = 0.0
    runs = [run_simulation(_md1_topology(), flows, duration=20.0, seed=seed) for seed in range(8)]
    return runs, later_hops


def _assert_within_4_standard_errors(values, expected):
    z = (statistics.fmean(values) - expected) / (statistics.stdev(values) / math.sqrt(len(values)))
    assert abs(z) < 4, (values, expected)


@pytest.mark.parametrize("rho", [0.3, 0.5])
@pytest.mark.parametrize("shared", [False, True], ids=["one_flow", "two_flows"])
def test_mean_latency_matches_md1_queueing_theory(shared, rho):
    """The link is an M/D/1 queue: service s = 0.8 ms, mean latency
    s + rho s / (2 (1 - rho)), Pollaczek-Khinchine.  The mean over the 8
    seeds of ``_md1_runs`` must lie within 4 standard errors."""
    runs, later_hops = _md1_runs(shared, rho)
    s = _MD1_SERVICE
    expected = s + rho * s / (2 * (1 - rho)) + later_hops
    _assert_within_4_standard_errors([m.mean_latency_s for m in runs], expected)


# (packet bytes, load) of two Poisson flows that share the 10 Mbps link of
# _md1_topology, then leave it for nodes 3 and 4: their service times
# differ, so the link is an M/G/1 queue, and both flows take the event heap
_MG1_FLOWS = ((200, 0.25), (1500, 0.25))


@cache
def _mg1_runs():
    flows = [
        FlowSpec(f"{size}B", 1, dst, rate_bps=load * 10e6, packet_bytes=size)
        for (size, load), dst in zip(_MG1_FLOWS, (3, 4))
    ]
    return [run_simulation(_md1_topology(), flows, duration=8.0, seed=seed) for seed in range(8)]


def test_mean_latency_of_each_flow_matches_mg1_queueing_theory():
    """Packets of 200 B (0.16 ms) and 1500 B (1.2 ms) share one FIFO link
    at load rho = 0.5.  Every packet waits, on average, the same
    Pollaczek-Khinchine wait lam E[S^2] / (2 (1 - rho)), where lam E[S^2]
    sums rho_i s_i over the flows: 0.34 ms, twice the M/D/1 wait of the
    mean service time.  A flow's mean latency adds its own service time
    and its 100 Mbps hop, which never queues.  The mean over 8 seeds of 8 s
    must lie within 4 standard errors, for each flow."""
    services = [8 * size / 10e6 for size, _ in _MG1_FLOWS]
    rho = sum(load for _, load in _MG1_FLOWS)
    wait = sum(load * s for (_, load), s in zip(_MG1_FLOWS, services)) / (2 * (1 - rho))
    runs = _mg1_runs()
    for j, ((size, _), s) in enumerate(zip(_MG1_FLOWS, services)):
        expected = wait + s + 8 * size / 100e6
        _assert_within_4_standard_errors([m.flows[j].mean_latency_s for m in runs], expected)


# a tandem of two FIFO links of unequal capacity, slow first or fast first,
# with propagation delays that follow their links; Poisson arrivals of fixed
# 1000 B packets at load 0.5 on the slow link
_TANDEM_SLOW, _TANDEM_FAST, _TANDEM_RHO = (10e6, 1e-4), (25e6, 2e-4), 0.5


@cache
def _tandem_runs(slow_first, shared):
    """8 seeds of 10 s over the tandem.  One flow alone runs the private
    loop; two flows of half the load each, on the same route, run the event
    heap and merge into the same Poisson stream."""
    hops = [_TANDEM_SLOW, _TANDEM_FAST] if slow_first else [_TANDEM_FAST, _TANDEM_SLOW]
    topology = line_topology(*zip(*hops))
    rate = _TANDEM_RHO * _TANDEM_SLOW[0]
    if shared:
        flows = [FlowSpec(name, 1, 3, rate_bps=rate / 2, packet_bytes=1000) for name in "ab"]
    else:
        flows = [FlowSpec("a", 1, 3, rate_bps=rate, packet_bytes=1000)]
    return [run_simulation(topology, flows, duration=10.0, seed=seed) for seed in range(8)]


@pytest.mark.parametrize("shared", [False, True], ids=["one_flow", "two_flows"])
def test_tandem_latency_does_not_depend_on_the_order_of_the_links(shared):
    """Friedman ("Reduction methods for tandem queuing systems", Oper.
    Res. 13, 1965): through FIFO servers of fixed service times s_j, packet
    i leaves at max over k <= i of A(k) + sum s_j + (i - k) max s_j, plus
    the propagation delays, which every packet crosses once.  That does not
    depend on the order of the servers, so neither does any latency."""
    for forward, backward in zip(_tandem_runs(True, shared), _tandem_runs(False, shared)):
        assert (forward.injected, forward.delivered) == (backward.injected, backward.delivered)
        for stat in ("mean_latency_s", "p50_latency_s", "p95_latency_s", "max_latency_s"):
            assert getattr(forward, stat) == pytest.approx(getattr(backward, stat), rel=1e-12)


@pytest.mark.parametrize("slow_first", [True, False], ids=["slow_first", "fast_first"])
@pytest.mark.parametrize("shared", [False, True], ids=["one_flow", "two_flows"])
def test_tandem_latency_is_the_slowest_link_alone_plus_the_rest(shared, slow_first):
    """By the same max, a packet's latency is its M/D/1 latency at the
    slowest link alone, s + rho s / (2 (1 - rho)), plus the other link's
    service time and both propagation delays.  The mean over the 8 seeds
    of ``_tandem_runs`` must lie within 4 standard errors."""
    (slow, slow_delay), (fast, fast_delay) = _TANDEM_SLOW, _TANDEM_FAST
    s = 8000 / slow
    expected = (
        s + _TANDEM_RHO * s / (2 * (1 - _TANDEM_RHO)) + 8000 / fast + slow_delay + fast_delay
    )
    runs = _tandem_runs(slow_first, shared)
    _assert_within_4_standard_errors([m.mean_latency_s for m in runs], expected)


def _md1_wait_cdf(t, rho, s):
    """P(W <= t) of the M/D/1 FIFO wait at load rho and service s, Erlang's
    formula: (1 - rho) sum over k = 0 .. floor(t / s) of
    (lam (k s - t))^k / k! exp(-lam (k s - t)), lam = rho / s.  The terms
    alternate in sign, which float64 sums well only while t / s stays small,
    as it does for the 95th percentile at rho <= 0.5."""
    lam = rho / s
    return (1 - rho) * sum(
        (lam * (k * s - t)) ** k / math.factorial(k) * math.exp(-lam * (k * s - t))
        for k in range(int(t / s) + 1)
    )


def _md1_wait_quantile(q, rho, s):
    # W has an atom of mass 1 - rho at 0 and a continuous, increasing CDF
    # after it, so bisection finds the q-quantile for any q > 1 - rho
    lo, hi = 0.0, s
    while _md1_wait_cdf(hi, rho, s) < q:
        hi *= 2
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _md1_wait_cdf(mid, rho, s) < q else (lo, mid)
    return hi


def test_md1_wait_quantile_matches_its_known_values():
    # the 95th-percentile latencies of ROADMAP's baseline: 1.6567 ms at
    # rho = 0.3 and 2.4405 ms at rho = 0.5, a wait plus one service time
    s = _MD1_SERVICE
    assert _md1_wait_cdf(0.0, 0.3, s) == pytest.approx(0.7)
    assert _md1_wait_quantile(0.95, 0.3, s) + s == pytest.approx(1.6567e-3, abs=1e-7)
    assert _md1_wait_quantile(0.95, 0.5, s) + s == pytest.approx(2.4405e-3, abs=1e-7)


@pytest.mark.parametrize("rho", [0.3, 0.5])
@pytest.mark.parametrize("shared", [False, True], ids=["one_flow", "two_flows"])
def test_p95_latency_matches_md1_waiting_time_distribution(shared, rho):
    """The 95th-percentile latency is the 95th-percentile M/D/1 wait, from
    Erlang's waiting-time CDF, plus one service time and the later hops.
    The mean mostly fixes only the amount of waiting; the quantile also
    fixes its order, so a queue serving the newest packet first, which
    keeps the mean wait, fails here.  The mean over the 8 seeds of
    ``_md1_runs`` must lie within 4 standard errors; p95 lies above the
    atom of mass 1 - rho at zero wait at both loads."""
    runs, later_hops = _md1_runs(shared, rho)
    s = _MD1_SERVICE
    expected = _md1_wait_quantile(0.95, rho, s) + s + later_hops
    _assert_within_4_standard_errors([m.p95_latency_s for m in runs], expected)


def test_utilization_and_bits_carried():
    cap = 8e6
    t = line_topology([cap])
    m = run_simulation(t, [FlowSpec("sat", 1, 2)], duration=0.02, seed=0)
    link = m.links[0]
    assert 0.99 <= link.utilization <= 1.0
    assert link.bits_carried >= m.throughput_bps * m.duration


def _distinct_nodes(draw, n, low=1):
    # a node of low..n and another of 1..n, the second drawn from the
    # other n - 1 so that a flow never runs from a node to itself
    src = draw(st.integers(low, n))
    dst = draw(st.integers(1, n - 1))
    return src, dst + (dst >= src)


@st.composite
def _random_relay_run(draw):
    """A random tree of 2-8 nodes, one link each way per edge, and 1-5
    saturating or Poisson flows between distinct random nodes."""
    n = draw(st.integers(2, 8))
    edges = [(child, draw(st.integers(1, child - 1))) for child in range(2, n + 1)]
    caps = {child: draw(st.floats(1e6, 1e9)) for child, _ in edges}
    delays = {child: draw(st.floats(0.0, 1e-4)) for child, _ in edges}
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, n + 1)),
        links=_two_way_links(edges, caps.get, delays.get),
    )
    flows = [
        FlowSpec(f"f{k}", *_distinct_nodes(draw, n),
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
    with pytest.raises(SimulationError, match="flow f: packet_bytes must be an integer, got 1.5"):
        FlowSpec("f", 1, 2, packet_bytes=1.5)
    assert type(FlowSpec("f", 1, 2, packet_bytes=np.int64(64)).packet_bytes) is int
    with pytest.raises(SimulationError):
        FlowSpec("f", 1, 2, start=-1.0)
    assert FlowSpec("f", 1, 2, rate_bps=math.inf).saturating
    assert FlowSpec("f", 1, 2).saturating
    assert not FlowSpec("f", 1, 2, rate_bps=1.0).saturating


@pytest.mark.parametrize("end", [np.int64(1), True], ids=["numpy", "bool"])
def test_endpoints_reach_the_csv_as_ints(end):
    # repr wrote np.int64(1) or True into the flow and link rows
    def csv_of(src):
        topology = Topology(
            nodes=(Node(1, UD), Node(2, AP)),
            links=(Link(src, 2, Technology.RF, capacity_bps=1e6),),
        )
        flow = FlowSpec("f", src, np.int64(2), rate_bps=1e5)
        assert type(flow.src) is int and type(flow.dst) is int
        out = io.StringIO()
        write_metrics_csv(run_simulation(topology, [flow], duration=0.1, seed=1), out)
        return out.getvalue()

    assert csv_of(end) == csv_of(1)


@pytest.mark.parametrize("name", ["x,y", 'x"y', "x\ry", "x\ny"])
def test_flow_name_must_fit_one_csv_cell(name):
    # the metrics CSV writes the name bare: "x,y" made a row one cell too long
    with pytest.raises(SimulationError, match="must not contain a comma, a double quote, CR or LF"):
        FlowSpec(name, 1, 2)


def test_flow_from_a_node_to_itself_is_rejected():
    # its empty route "delivered" every packet at once over no link
    for end in (1, np.int64(1)):
        with pytest.raises(SimulationError) as exc:
            FlowSpec("f", 1, end)
        assert str(exc.value) == "flow f: source and destination coincide (1)"


def test_flow_endpoints_must_be_integers():
    with pytest.raises(SimulationError, match="flow f: src must be an integer, got 1.0"):
        FlowSpec("f", 1.0, 2)
    with pytest.raises(SimulationError, match="flow f: dst must be an integer, got 2.0"):
        FlowSpec("f", 1, 2.0)


def test_simulation_input_validation():
    t = line_topology([1e6])
    with pytest.raises(SimulationError):
        run_simulation(t, [FlowSpec("a", 1, 2), FlowSpec("a", 1, 2)], duration=0.1)
    with pytest.raises(SimulationError):
        run_simulation(t, [], duration=0.0)
    with pytest.raises(SimulationError):
        run_simulation(t, [FlowSpec("a", 2, 1)], duration=0.1)  # no reverse link


def test_negative_seed_is_rejected():
    # Random seeds from an int's absolute value: seed -1 gave seed 1's run
    flows = [FlowSpec("p", 1, 2, rate_bps=1e6)]
    with pytest.raises(SimulationError, match="seed must be a non-negative integer, got -1"):
        run_simulation(line_topology([2e6]), flows, duration=0.1, seed=-1)
    assert run_simulation(line_topology([2e6]), flows, duration=0.1, seed=0).injected > 0


def test_non_integer_seed_is_rejected():
    # seed 1.5 used to run a stream of its own (9 packets here against 12 for seed 1)
    flows = [FlowSpec("p", 1, 2, rate_bps=1e6)]
    with pytest.raises(SimulationError, match="seed must be an integer, got 1.5"):
        run_simulation(line_topology([2e6]), flows, duration=0.1, seed=1.5)
    one = run_simulation(line_topology([2e6]), flows, duration=0.1, seed=1)
    assert run_simulation(line_topology([2e6]), flows, duration=0.1, seed=np.int64(1)) == one


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_duration_must_be_finite(duration):
    # an infinite horizon never returns; a NaN one gives NaN utilisation
    with pytest.raises(SimulationError, match="finite"):
        run_simulation(line_topology([1e6]), [FlowSpec("s", 1, 2)], duration=duration)


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("rate_bps", "5", "flow f: rate must be a number, got '5'"),
        ("rate_bps", np.array([1.0, 2.0]), "flow f: rate must be a number, got array("),
        ("start", "1", "flow f: start time must be a number, got '1'"),
        ("start", None, "flow f: start time must be a number, got None"),
    ],
)
def test_flow_numbers_must_be_numbers(field, value, what):
    # each raised a bare TypeError from a comparison or from float()
    with pytest.raises(SimulationError, match=f"^{re.escape(what)}"):
        FlowSpec("f", 1, 2, **{field: value})


@pytest.mark.parametrize(
    "duration, what",
    [
        ("1", "duration must be a number, got '1'"),
        (None, "duration must be a number, got None"),
        (np.array([1.0, 2.0]), "duration must be a number, got array("),
    ],
)
def test_duration_must_be_a_number(duration, what):
    with pytest.raises(SimulationError, match=f"^{re.escape(what)}"):
        run_simulation(line_topology([1e6]), [FlowSpec("s", 1, 2)], duration=duration)


def test_one_element_arrays_read_as_their_value():
    # np.array([1.0]) raised TypeError from float(); it now reads as 1.0,
    # as LinkBudgetParams reads its numbers
    flow = FlowSpec("p", 1, 2, rate_bps=np.array([1e6]), start=np.array([0.01]))
    assert (flow.rate_bps, flow.start) == (1e6, 0.01)
    assert type(flow.rate_bps) is type(flow.start) is float
    t = line_topology([2e6])
    m = run_simulation(t, [flow], duration=np.array([0.1]), seed=2)
    assert type(m.duration) is float
    assert m == run_simulation(t, [FlowSpec("p", 1, 2, rate_bps=1e6, start=0.01)], 0.1, seed=2)


@pytest.mark.parametrize("shared", [False, True], ids=["private_loop", "heap_loop"])
def test_a_packet_rate_that_underflows_injects_nothing(shared):
    # 1e-320 bit/s over 10,000-bit packets is 1e-324 packets/s, which
    # underflows to 0.0: the mean gap overflows, and random.expovariate(0.0)
    # used to raise ZeroDivisionError.  A second flow on the link puts both
    # on the event heap
    flows = [FlowSpec("f", 1, 2, rate_bps=1e-320)]
    if shared:
        flows.append(FlowSpec("g", 1, 2, rate_bps=1e5))
    m = run_simulation(line_topology([1e6]), flows, duration=1.0, seed=1)
    assert m.flows[0].injected == 0
    assert not shared or m.flows[1].injected > 0


def test_a_packet_whose_bit_count_overflows_a_float_is_rejected():
    # run_simulation times a packet by its bit count as a float; 8 * 2**1021
    # is 2**1024, past the largest float, and used to raise OverflowError there
    assert FlowSpec("f", 1, 2, packet_bytes=2**1020).packet_bytes == 2**1020
    for size in (2**1021, 10**400):
        with pytest.raises(
            SimulationError, match="^flow f: packet_bytes is too large: its bit count overflows"
        ):
            FlowSpec("f", 1, 2, packet_bytes=size)


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


@pytest.mark.parametrize("name, rate", [("s", math.inf), ("p", 1e15)])
def test_clock_resolution_error_names_the_flow_and_both_times(name, rate):
    # a 1-byte packet on a 1e15 bit/s link lasts 8e-15 s, which a clock
    # reading 1e6 s cannot add; the check raises before any event, so this
    # runs in-process, where the child-process test above cannot pin the message
    flows = [FlowSpec(name, 1, 2, rate_bps=rate, packet_bytes=1)]
    message = (
        f"flow {name}: packet time step 8e-15 s is below the clock resolution "
        "1.1641532182693481e-10 s at duration 1000000.0 s"
    )
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        run_simulation(line_topology([1e15]), flows, duration=1e6)


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


def test_numpy_float_link_parameters_write_the_same_csv():
    """Link stores capacity and delay as Python floats, so no cell reads
    np.float64(...)."""
    flows = [FlowSpec("f", 1, 3, rate_bps=1e6), FlowSpec("s", 1, 2)]
    capacities, delays = [4e6, 2e6], [1e-4, 2.5e-5]
    out = []
    for convert in (float, np.float64):
        t = line_topology([convert(c) for c in capacities], [convert(d) for d in delays])
        assert all(type(l.capacity_bps) is float for l in t.links)
        assert all(type(l.propagation_delay) is float for l in t.links)
        buf = io.StringIO()
        write_metrics_csv(run_simulation(t, flows, duration=0.02, seed=3), buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]
    assert "np." not in out[1]


def test_numpy_float_flow_times_and_duration_write_the_same_output():
    """FlowSpec stores start and rate, and run_simulation the duration, as
    Python floats, so neither the CSV nor the summary reads np.float64(...)."""
    t = line_topology([4e6, 2e6], [1e-4, 2.5e-5])
    out = []
    for convert in (float, np.float64):
        flows = [
            FlowSpec("f", 1, 3, rate_bps=convert(1e6), start=convert(0.001)),
            FlowSpec("s", 1, 2, start=convert(0.0)),
        ]
        assert all(type(f.start) is float for f in flows)
        assert type(flows[0].rate_bps) is float and flows[1].rate_bps is None
        m = run_simulation(t, flows, duration=convert(0.02), seed=3)
        assert type(m.duration) is float
        buf = io.StringIO()
        write_metrics_csv(m, buf)
        out.append(buf.getvalue() + metrics_summary(m))
    assert out[0] == out[1]
    assert "np." not in out[1]


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

    def ends():
        src = rng.randrange(1, n + 1)
        return src, rng.choice([a for a in range(1, n + 1) if a != src])

    src, dst = ends()
    start = rng.choice((0.0, 0.25e-3, 1e-3))
    flows = [FlowSpec("s0", src, dst, packet_bytes=125, start=start),
             FlowSpec("s1", src, dst, packet_bytes=125, start=start)]
    for k in range(rng.randrange(1, 4)):
        flows.append(FlowSpec(f"s{k + 2}", *ends(), packet_bytes=125,
                              start=rng.randrange(4) * 0.25e-3))
    for k in range(rng.randrange(0, 3)):
        flows.append(FlowSpec(f"p{k}", *ends(),
                              rate_bps=rng.choice((0.2e6, 1e6)), packet_bytes=125,
                              start=rng.randrange(4) * 0.25e-3))
    return _metrics_csv(topology, flows, rng.choice((0.01, 0.0125, 0.02)), seed=seed)


def _edge_case_runs():
    chain = line_topology([1e6, 2e6], [1e-6, 0.0])
    late = [FlowSpec("late", 1, 3, start=5.0),
            FlowSpec("now", 1, 2, rate_bps=0.4e6, packet_bytes=125)]
    # 1 ms per packet on the first hop: the horizon falls mid-service
    cut = [FlowSpec("sat", 1, 3, packet_bytes=125), FlowSpec("p", 2, 3, rate_bps=0.2e6)]
    return [
        _metrics_csv(chain, late, 0.01, seed=4),
        _metrics_csv(chain, cut, 0.0105, seed=5),
    ]


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_simulator_output_matches_pinned_digests():
    """The metrics CSV of seeded relay trees, tie-heavy random trees and the
    edge cases (a flow starting after the horizon, a horizon inside a
    packet's service) is pinned byte for byte."""
    digests = {
        "relay_trees": _digest(_relay_tree_run(seed) for seed in range(4)),
        "tie_heavy": _digest(_tie_heavy_run(seed) for seed in range(100)),
        "edge_cases": _digest(_edge_case_runs()),
    }
    assert digests == {
        "relay_trees": "52e16115dccd88a97d276aa7aff2514015e7dc9a61e2e739e67952fe982a56a2",
        "tie_heavy": "d45657dbb71fbc4f060b7174e037a9f66e93beb233544c16765b89481a5b4479",
        "edge_cases": "2b6ff199cbfa5aef7ef4956806735958e07d2bd50a728369f9f4ccb1b375a366",
    }


def test_each_row_kind_fills_its_own_cells():
    """On a pinned relay tree: flow rows leave the link columns blank, link
    rows the packet and latency columns, and the total row src and dst."""
    rows = list(csv.reader(io.StringIO(_relay_tree_run(0))))
    header, rows = rows[0], rows[1:]
    ends = ["src", "dst"]
    packets = ["injected", "delivered", "dropped", "throughput_bps", "mean_latency_s",
               "p50_latency_s", "p95_latency_s", "max_latency_s"]
    filled = {
        "flow": ["kind", "name", *ends, *packets],
        "link": ["kind", "name", *ends, "bits_carried", "utilization"],
        "total": ["kind", "name", *packets],
    }
    assert [row[0] for row in rows] == ["flow"] * 13 + ["link"] * 20 + ["total"]
    assert [row[1] for row in rows] == (
        [f"f{k}" for k in range(12)] + ["sat"] + [f"link{k}" for k in range(20)] + ["all"]
    )
    for row in rows:
        assert [name for name, cell in zip(header, row, strict=True) if cell] == filled[row[0]]


def test_every_row_keeps_the_accounting_invariant():
    metrics = run_simulation(line_topology([4e6]), [FlowSpec("f", 1, 2, rate_bps=1e6)], 0.05)
    assert isinstance(metrics, FlowMetrics)
    assert (metrics.name, metrics.src, metrics.dst) == ("all", None, None)
    stats = dict(throughput_bps=0.0, mean_latency_s=math.nan, p50_latency_s=math.nan,
                 p95_latency_s=math.nan, max_latency_s=math.nan)
    with pytest.raises(SimulationError, match=r"delivered \+ dropped != injected"):
        FlowMetrics("f", 1, 2, injected=3, delivered=2, dropped=0, **stats)


# ------------------------------------------------- event-per-hop reference loop

def _event_per_hop_reference(topology, flows, duration, seed=0):
    """The simulator with one heap event per injection, per hop and per
    delivery, ordered by (time, insertion sequence): the loop that
    ``run_simulation`` shortens.  Returns each flow's injected count and
    delivered latencies and each link's busy time by the horizon."""
    links = topology.links
    routes = [shortest_route(topology, f.src, f.dst) for f in flows]
    gaps = [
        None if f.saturating else partial(
            Random(seed * _FLOW_SEED_STRIDE + i).expovariate, f.rate_bps / (f.packet_bytes * 8)
        )
        for i, f in enumerate(flows)
    ]
    next_free = [0.0] * len(links)
    busy = [0.0] * len(links)
    injected = [0] * len(flows)
    latencies = [[] for _ in flows]
    heap = [(f.start if gap is None else f.start + gap(), i, i, -1, 0.0)
            for i, (f, gap) in enumerate(zip(flows, gaps))]
    heapq.heapify(heap)
    seq = len(heap)
    while heap and heap[0][0] <= duration:
        time, _, i, hop, gen_time = heapq.heappop(heap)
        pushes = []
        if hop < 0:
            injected[i] += 1
            pushes.append((time, 0, time))
            if gaps[i] is not None:
                pushes.append((time + gaps[i](), -1, 0.0))
        elif hop == len(routes[i]):
            latencies[i].append(time - gen_time)
        else:
            link = routes[i][hop]
            start = max(time, next_free[link])
            finish = start + flows[i].packet_bytes * 8 / links[link].capacity_bps
            next_free[link] = finish
            if finish <= duration:
                busy[link] += finish - start
            elif start < duration:
                busy[link] += duration - start
            pushes.append((finish + links[link].propagation_delay, hop + 1, gen_time))
            if hop == 0 and flows[i].saturating:
                pushes.append((finish, -1, 0.0))
        for at, next_hop, born in pushes:
            heapq.heappush(heap, (at, seq, i, next_hop, born))
            seq += 1
    return injected, latencies, busy


def _assert_matches_reference(topology, flows, duration, seed=0):
    metrics = run_simulation(topology, flows, duration, seed=seed)
    injected, latencies, busy = _event_per_hop_reference(topology, flows, duration, seed)
    for row, count, lats in zip(metrics.flows, injected, latencies):
        lats.sort()
        n = len(lats)
        # the mean is a sum over the sorted list, percentiles are nearest-rank
        stats = (sum(lats) / n, lats[math.ceil(0.5 * n) - 1], lats[math.ceil(0.95 * n) - 1],
                 lats[-1]) if n else (math.nan,) * 4
        got = (row.injected, row.delivered, row.mean_latency_s, row.p50_latency_s,
               row.p95_latency_s, row.max_latency_s)
        assert repr(got) == repr((count, n, *stats)), row.name
    for link, row, seconds in zip(topology.links, metrics.links, busy):
        assert (row.bits_carried, row.utilization) == (
            seconds * link.capacity_bps, seconds / duration), row.name


@st.composite
def _shared_and_private_routes(draw):
    """A random tree of 2-8 nodes and 1-5 saturating or Poisson flows, each
    up to the root, down from it or between two distinct nodes: routes that
    merge run private hops into a shared link, and routes that part run
    private hops behind a shared first hop.  Capacities, packet sizes,
    starts and most delays are powers of two, so sums of service times are
    exact and many events share an instant; the horizon may fall anywhere
    along a route."""
    n = draw(st.integers(2, 8))
    edges = [(child, draw(st.integers(1, child - 1))) for child in range(2, n + 1)]
    caps = {child: draw(st.sampled_from((2.0**18, 2.0**19, 2.0**20, 2.0**21))) for child, _ in edges}
    delay = st.one_of(st.sampled_from((0.0, 2.0**-11, 2.0**-10)), st.floats(0.0, 1e-3))
    delays = {child: draw(delay) for child, _ in edges}
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, n + 1)),
        links=_two_way_links(edges, caps.get, delays.get),
    )
    flows = []
    for k in range(draw(st.integers(1, 5))):
        a, b = _distinct_nodes(draw, n, low=2)  # a is not the root
        src, dst = draw(st.sampled_from(((a, 1), (1, a), (a, b))))
        flows.append(FlowSpec(f"f{k}", src, dst,
                              rate_bps=draw(st.sampled_from((None, None, 2.0**17, 2.0**19))),
                              packet_bytes=draw(st.sampled_from((128, 256))),
                              start=draw(st.integers(0, 3)) * 2.0**-11))
    duration = draw(st.integers(1, 64)) * 2.0**-11 + draw(st.sampled_from((0.0, 1e-4)))
    return topology, flows, duration, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_shared_and_private_routes())
def test_simulation_matches_the_event_per_hop_reference(run):
    _assert_matches_reference(*run)


def test_a_private_hop_before_a_shared_link_keeps_its_tie_break():
    """Flow a crosses links 1->2 and 2->3, which no other route uses, then
    3->4, which b's route also uses; each hop takes 1 s.  Both first packets
    reach 3->4 at 2 s.  A flow that shares a link takes one event per hop,
    its private hops included, so b's event at 3->4 was queued at 0.5 s and
    a's only when it left 1->2 at 1 s: b is served first.  Serving a's hop
    over 2->3 at its injection would queue a's event at 0 s and reverse the
    two."""
    nodes = tuple(Node(a, RELAY) for a in range(1, 6))
    links = (
        Link(1, 2, Technology.RF, capacity_bps=1000.0),
        Link(2, 3, Technology.RF, capacity_bps=1000.0),
        Link(3, 4, Technology.RF, capacity_bps=1000.0),
        Link(5, 3, Technology.RF, capacity_bps=2000.0, propagation_delay=1.0),
    )
    topology = Topology(nodes, links)
    flows = [FlowSpec("a", 1, 4, packet_bytes=125),
             FlowSpec("b", 5, 4, packet_bytes=125, start=0.5)]
    assert [f.delivered for f in run_simulation(topology, flows, 3.5).flows] == [0, 1]
    _assert_matches_reference(topology, flows, 10.0)


def _recording_heapq(events, real=heapq):
    """The heapq functions the simulators call, each also recording in
    ``events`` every event that enters the heap."""
    def heapify(heap):
        events.extend(heap)
        real.heapify(heap)

    def heappush(heap, event):
        events.append(event)
        real.heappush(heap, event)

    def heapreplace(heap, event):
        events.append(event)
        return real.heapreplace(heap, event)

    return SimpleNamespace(heapify=heapify, heappush=heappush, heapreplace=heapreplace,
                           heappop=real.heappop)


def test_a_flow_sharing_a_link_takes_one_event_per_hop(monkeypatch):
    """On the line 1->2->3->4, Poisson flows 1->4 and 1->2 share link 1->2,
    and a Poisson flow 4->3 has its link to itself.  The 1->4 flow takes one
    event per injected packet, which serves its first hop, and one for each
    later hop the packet reaches by the horizon: the reference's events less
    its first hops and deliveries.  Its private links 2->3 and 3->4 are no
    exception.  The 1->2 flow takes its injections only, and the 4->3 flow
    no event at all.  No two events share an instant, so no first hop is
    queued."""
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, 5)),
        links=(Link(1, 2, Technology.RF, capacity_bps=1e6, propagation_delay=1e-6),
               Link(2, 3, Technology.FSO, capacity_bps=3e6, propagation_delay=2e-6),
               Link(3, 4, Technology.VLC_LED, capacity_bps=2e6, propagation_delay=3e-6),
               Link(4, 3, Technology.VLC_LED, capacity_bps=2e6, propagation_delay=3e-6)),
    )
    flows = [FlowSpec("long", 1, 4, rate_bps=4e5, packet_bytes=1000),
             FlowSpec("short", 1, 2, rate_bps=4e5, packet_bytes=1000),
             FlowSpec("alone", 4, 3, rate_bps=4e5, packet_bytes=1000)]
    duration = 0.5
    ours, reference = [], []
    monkeypatch.setattr(engine, "heapq", _recording_heapq(ours))
    metrics = run_simulation(topology, flows, duration, seed=3)
    monkeypatch.setitem(globals(), "heapq", _recording_heapq(reference))
    _event_per_hop_reference(topology, flows, duration, seed=3)

    def handled(events, flow, hops):
        # the (hop, time) of each of the flow's events handled by the horizon
        return sorted((hop, time) for time, _, i, hop, _ in events
                      if i == flow and time <= duration and hop in hops)

    long_events = handled(ours, 0, range(-1, 3))
    assert long_events == handled(reference, 0, (-1, 1, 2))
    hops = [hop for hop, _ in long_events]
    assert hops.count(-1) == metrics.flows[0].injected
    assert min(hops.count(1), hops.count(2)) >= metrics.flows[0].delivered > 0
    assert handled(ours, 1, range(-1, 1)) == handled(reference, 1, (-1,))
    assert len(handled(ours, 1, (-1,))) == metrics.flows[1].injected > 0
    assert handled(ours, 2, range(-1, 1)) == []
    assert metrics.flows[2].delivered > 0


def _private_and_shared_flows():
    """Nodes 1-5 on a line, a link each way between neighbours, capacities
    of 2**20 and 2**19 bit/s and 128 B packets, so every service time is a
    power of two and many events share an instant.  The first three flows
    are private, no link of their routes carrying another flow: p0 saturates
    3->4->5, whose second hop is slower, p1 crosses 5->4->3->2 and p2
    saturates 2->1.  c and b both saturate 1->2, c from 0 s and b
    from 2**-10 s, when c's first packet clears the link; q crosses 1->2->3."""
    topology = Topology(
        nodes=tuple(Node(a, RELAY) for a in range(1, 6)),
        links=_two_way_links([(2, 1), (3, 2), (4, 3), (5, 4)],
                             {2: 2.0**20, 3: 2.0**19, 4: 2.0**20, 5: 2.0**19}.get,
                             lambda child: 0.0),
    )
    private = [FlowSpec("p0", 3, 5, packet_bytes=128),
               FlowSpec("p1", 5, 2, rate_bps=2.0**19, packet_bytes=128, start=2.0**-10),
               FlowSpec("p2", 2, 1, packet_bytes=128, start=2.0**-9)]
    shared = [FlowSpec("c", 1, 2, packet_bytes=128),
              FlowSpec("b", 1, 2, packet_bytes=128, start=2.0**-10),
              FlowSpec("q", 1, 3, rate_bps=2.0**18, packet_bytes=128)]
    return topology, private, shared


def test_private_flows_listed_first_keep_the_shared_flows_tie_breaks():
    """b's first injection holds sequence number 4 and ties at 2**-10 s with
    c's first re-injection.  With the private flows off the heap, later
    events must still count on from the number of flows: counted from the
    heap's three entries, c's re-injection would take number 3, go first
    and reverse b and c on link 1->2."""
    topology, private, shared = _private_and_shared_flows()
    for seed in range(4):
        _assert_matches_reference(topology, private + shared, 2.0**-5 + 1e-4, seed)


def test_a_private_flow_runs_as_if_alone():
    """The private flows keep their rows, and their links theirs, when
    flows sharing the links beside theirs join.  The horizon falls inside
    a packet's service on both of p0's links, the second of which p0
    keeps backlogged."""
    topology, private, shared = _private_and_shared_flows()
    duration = 25.5 * 2.0**-10
    alone = run_simulation(topology, private, duration, seed=2)
    together = run_simulation(topology, private + shared, duration, seed=2)
    assert repr(together.flows[:len(private)]) == repr(alone.flows)
    used = sorted({idx for f in private for idx in shortest_route(topology, f.src, f.dst)})
    assert [together.links[idx] for idx in used] == [alone.links[idx] for idx in used]
    # p0's links carried 25.5 and 12.25 packets of 1024 bits: a packet was
    # in service on each at the horizon
    assert [together.links[idx].bits_carried / 1024 for idx in (5, 7)] == [25.5, 12.25]
    assert all(f.delivered > 0 for f in together.flows)
