"""Deterministic discrete-event simulator for multi-hop optical networks.

Packets traverse fixed shortest-hop routes over FIFO links.  The event
queue is ordered by (time, insertion sequence), so runs are bit-for-bit
reproducible for a given topology, traffic, duration, and seed.  Each
flow draws from its own seeded random stream; flows are either Poisson
sources at a configured offered load or saturating sources that keep
their first hop permanently busy.

An event is the flat tuple ``(time, seq, flow, hop, gen_time)``: hop -1
injects a packet of the flow, hop k >= 0 is a packet generated at
``gen_time`` reaching the k-th link of its route.  An injection serves
hop 0 in the same step unless another queued event has exactly its
time; then hop 0 is queued, so (time, seq) order decides as it would
for separate events.  A link's state is touched only by the flows routed
over it.  So a route's private tail, its links after the first hop and
after every link another flow's route also uses, is served in the step
of the hop before it, each link at the packet's arrival: the flow's
packets reach those links in FIFO order, so this computes the same
floats in the same order.  A hop before a shared link queues an event,
whose queueing instant breaks ties there.  A packet leaving its last hop
is counted delivered at once if it arrives by the horizon."""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from random import Random

from .topology import Topology

__all__ = [
    "FlowSpec",
    "FlowMetrics",
    "LinkMetrics",
    "SimMetrics",
    "SimulationError",
    "run_simulation",
    "shortest_route",
    "write_metrics_csv",
    "metrics_summary",
    "METRICS_CSV_HEADER",
]

_FLOW_SEED_STRIDE = 1_000_003


class SimulationError(ValueError):
    """The simulation inputs are unusable (bad flow, no route)."""


@dataclass(frozen=True)
class FlowSpec:
    """A unidirectional packet flow.

    ``rate_bps`` is the mean offered load of a Poisson packet source;
    ``None`` (or infinity) makes the flow saturating: a new packet is
    injected the instant the previous one finishes serializing on the
    first hop, keeping that link permanently backlogged.  An infinite
    ``start`` means the flow never starts.
    """

    name: str
    src: int
    dst: int
    rate_bps: float | None = None
    packet_bytes: int = 1250
    start: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise SimulationError("flow needs a non-empty name")
        if self.packet_bytes < 1:
            raise SimulationError(f"flow {self.name}: packet_bytes must be >= 1")
        if not self.start >= 0:
            raise SimulationError(f"flow {self.name}: start time must be >= 0, got {self.start}")
        if self.rate_bps is not None and not self.rate_bps > 0:
            raise SimulationError(f"flow {self.name}: rate must be positive or saturating")

    @property
    def saturating(self) -> bool:
        return self.rate_bps is None or math.isinf(self.rate_bps)


@dataclass(frozen=True)
class FlowMetrics:
    """A row of packet counts and latency statistics: a flow's, or the total's."""

    name: str
    src: int | None
    dst: int | None
    injected: int
    delivered: int
    dropped: int
    throughput_bps: float
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    max_latency_s: float

    def __post_init__(self):
        if self.delivered + self.dropped != self.injected:
            raise SimulationError("metric accounting broke: delivered + dropped != injected")


@dataclass(frozen=True)
class LinkMetrics:
    index: int
    src: int
    dst: int
    bits_carried: float
    utilization: float

    @property
    def name(self) -> str:
        return f"link{self.index}"


@dataclass(frozen=True)
class SimMetrics(FlowMetrics):
    """The total row (``all``, no ``src`` or ``dst``); ``flows`` and ``links`` hold the rest."""

    duration: float
    flows: tuple
    links: tuple


def shortest_route(topology: Topology, src: int, dst: int) -> list:
    """Fewest-hop route as a list of link indices.

    Neighbors are explored in address order and parallel links resolved
    by highest capacity then lowest index, so the route is a pure
    function of the topology contents, not of iteration order.
    """
    topology.node(src)
    topology.node(dst)
    adjacency = {}
    for idx, link in enumerate(topology.links):
        adjacency.setdefault(link.src, []).append((link.dst, -link.capacity_bps, idx))
    for entries in adjacency.values():
        entries.sort()
    if src == dst:
        return []
    parent = {src: None}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for nxt, _, idx in adjacency.get(here, ()):
            if nxt not in parent:
                parent[nxt] = (here, idx)
                if nxt == dst:
                    queue.clear()
                    break
                queue.append(nxt)
    if dst not in parent:
        raise SimulationError(f"no route from {src} to {dst}")
    route = []
    at = dst
    while parent[at] is not None:
        prev, idx = parent[at]
        route.append(idx)
        at = prev
    route.reverse()
    return route


def _percentile(sorted_values, fraction):
    # nearest-rank percentile over an already sorted list
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _packet_row(cls, injected, latencies, throughput_bps, **fields):
    # sorts ``latencies`` in place, so each mean is a sum over the sorted list
    latencies.sort()
    delivered = len(latencies)
    return cls(
        injected=injected,
        delivered=delivered,
        dropped=injected - delivered,
        throughput_bps=throughput_bps,
        mean_latency_s=sum(latencies) / delivered if delivered else math.nan,
        p50_latency_s=_percentile(latencies, 0.50),
        p95_latency_s=_percentile(latencies, 0.95),
        max_latency_s=latencies[-1] if latencies else math.nan,
        **fields,
    )


def run_simulation(topology: Topology, flows, duration: float, seed: int = 0) -> SimMetrics:
    """Run the network for ``duration`` seconds and collect metrics.

    Event order is the lexicographic (time, insertion sequence), which
    makes the whole run deterministic for fixed inputs.  What the numbers
    mean:

    - ``dropped`` counts packets still queued or in flight at the horizon,
      so delivered + dropped always equals injected.  The simulator itself
      never drops a packet.
    - A link's ``bits_carried`` is its busy time by the horizon times its
      capacity: the bits serialised by then, a packet cut by the horizon
      counting in part.  Up to rounding it equals ``utilization *
      capacity * duration``.  It is a float sum of service times, so 93
      whole packets of 1000 B may read as ``743999.9999999971``.
    - Every delivered packet's latency is kept until the end, because exact
      nearest-rank percentiles need every value; memory grows with the
      packets delivered.
    - The number of events is not capped: one per injected packet, plus
      one per hop after the first up to the route's last link that another
      flow's route also uses.  Run time grows with the sum over flows of
      (duration / time step) times those hops plus one, where the step is
      the first-hop service time of a saturating flow and the mean gap of a
      Poisson flow.
    """
    flows = list(flows)
    if not 0 < duration < math.inf:
        raise SimulationError(f"duration must be positive and finite, got {duration}")
    names = [f.name for f in flows]
    if len(set(names)) != len(names):
        raise SimulationError("flow names must be unique")

    routes = [shortest_route(topology, f.src, f.dst) for f in flows]
    links = topology.links
    next_free = [0.0] * len(links)
    busy = [0.0] * len(links)

    injected = [0] * len(flows)
    latencies = [[] for _ in flows]

    users = Counter(idx for route in routes for idx in route)
    # per flow: its hops as (link, service time, propagation delay, serve the
    # rest, its private tail, at once?, re-inject after it?) and the draw of
    # its next Poisson gap (None when saturating); the heap starts with each
    # first injection
    hops, gaps, heap = [], [], []
    for i, (flow, route) in enumerate(zip(flows, routes)):
        size = flow.packet_bytes * 8
        tail = len(route)
        while tail and users[route[tail - 1]] == 1:
            tail -= 1
        hops.append(tuple(
            (idx, size / links[idx].capacity_bps, links[idx].propagation_delay,
             n >= tail, n == 1 and flow.saturating)
            for n, idx in enumerate(route, 1)
        ))
        # a step below the clock's resolution at the horizon would repeat one
        # instant forever: a saturating flow steps by its first-hop service
        # time (and has no step without a hop), a Poisson flow by its mean gap
        if flow.saturating:
            step = size / links[route[0]].capacity_bps if route else math.inf
        else:
            step = size / flow.rate_bps
        if step < math.ulp(duration):
            raise SimulationError(
                f"flow {flow.name}: packet time step {step!r} s is below the clock "
                f"resolution {math.ulp(duration)!r} s at duration {duration!r} s"
            )
        gap = None if flow.saturating else partial(
            Random(seed * _FLOW_SEED_STRIDE + i).expovariate, flow.rate_bps / size
        )
        gaps.append(gap)
        heap.append((flow.start if gap is None else flow.start + gap(), i, i, -1, 0.0))
    heapq.heapify(heap)
    seq = len(heap)
    heappush, heapreplace = heapq.heappush, heapq.heapreplace

    while heap:
        time, _, i, hop, gen_time = heap[0]
        if time > duration:
            break
        # the first event scheduled replaces the handled one at heap[0]
        put = heapreplace
        if hop < 0:
            injected[i] += 1
            gap = gaps[i]
            if not hops[i]:
                latencies[i].append(0.0)
            elif (len(heap) > 1 and heap[1][0] == time) or (len(heap) > 2 and heap[2][0] == time):
                # another event shares this instant and precedes hop 0
                put(heap, (time, seq, i, 0, time))
                seq += 1
                put = heappush
            else:
                hop, gen_time = 0, time
            if gap is not None:
                put(heap, (time + gap(), seq, i, -1, 0.0))
                seq += 1
                put = heappush
        if hop >= 0:
            route = hops[i]
            while True:
                link, service, delay, at_once, reinject = route[hop]
                start = next_free[link]
                if time >= start:
                    start = time
                finish = start + service
                next_free[link] = finish
                if finish <= duration:
                    busy[link] += finish - start
                elif start < duration:
                    busy[link] += duration - start
                arrive = finish + delay
                if not at_once:
                    put(heap, (arrive, seq, i, hop + 1, gen_time))
                    seq += 1
                    put = heappush
                if reinject:
                    # keep the first hop backlogged: next packet the moment
                    # this one clears the transmitter
                    put(heap, (finish, seq, i, -1, 0.0))
                    seq += 1
                    put = heappush
                hop += 1
                if not at_once or arrive > duration:
                    break
                if hop == len(route):
                    latencies[i].append(arrive - gen_time)
                    break
                time = arrive
        if put is heapreplace:
            heapq.heappop(heap)

    flow_metrics = tuple(
        _packet_row(
            FlowMetrics, count, lats, len(lats) * flow.packet_bytes * 8 / duration,
            name=flow.name, src=flow.src, dst=flow.dst,
        )
        for flow, count, lats in zip(flows, injected, latencies)
    )
    link_metrics = tuple(
        LinkMetrics(
            index=idx,
            src=link.src,
            dst=link.dst,
            bits_carried=busy[idx] * link.capacity_bps,
            utilization=busy[idx] / duration,
        )
        for idx, link in enumerate(topology.links)
    )
    # the flows' latencies are sorted runs by now, which the total's sort merges
    return _packet_row(
        SimMetrics, sum(injected), [t for lats in latencies for t in lats],
        sum(f.throughput_bps for f in flow_metrics),
        name="all", src=None, dst=None,
        duration=duration, flows=flow_metrics, links=link_metrics,
    )


# the CSV columns after kind and name; a row fills each column it has a
# field for, except a None, and leaves the rest blank
_CSV_COLUMNS = (
    "src", "dst", "injected", "delivered", "dropped",
    "throughput_bps", "mean_latency_s", "p50_latency_s", "p95_latency_s", "max_latency_s",
    "bits_carried", "utilization",
)
METRICS_CSV_HEADER = ",".join(("kind", "name") + _CSV_COLUMNS)


def write_metrics_csv(metrics: SimMetrics, stream) -> None:
    """Write one flow row per flow, one link row per link, and a total row.

    Fields that do not apply to a row kind are left empty.  Numbers are
    written with repr so identical runs serialize identically.
    """
    stream.write(METRICS_CSV_HEADER + "\n")
    for kind, rows in (("flow", metrics.flows), ("link", metrics.links), ("total", (metrics,))):
        for row in rows:
            cells = ["" if v is None else repr(v) for v in map(vars(row).get, _CSV_COLUMNS)]
            stream.write(f"{kind},{row.name},{','.join(cells)}\n")


def metrics_summary(metrics: SimMetrics) -> str:
    """Human-oriented summary block for standard output."""
    lines = [
        f"duration           {metrics.duration!r} s",
        f"packets injected   {metrics.injected}",
        f"packets delivered  {metrics.delivered}",
        f"packets dropped    {metrics.dropped}",
        f"total throughput   {metrics.throughput_bps!r} bit/s",
        f"mean latency       {metrics.mean_latency_s!r} s",
        f"p95 latency        {metrics.p95_latency_s!r} s",
    ]
    for f in metrics.flows:
        lines.append(
            f"flow {f.name}: {f.delivered}/{f.injected} delivered, "
            f"{f.throughput_bps!r} bit/s"
        )
    return "\n".join(lines) + "\n"
