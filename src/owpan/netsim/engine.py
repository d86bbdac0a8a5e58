"""Deterministic discrete-event simulator for multi-hop optical networks.

Packets traverse fixed shortest-hop routes over FIFO links.  The event
queue is ordered by (time, insertion sequence), so runs are bit-for-bit
reproducible for a given topology, traffic, duration, and seed.  Each
flow draws from its own seeded random stream; flows are either Poisson
sources at a configured offered load or saturating sources that keep
their first hop permanently busy.

A link's state is touched only by the flows routed over it, and FIFO
links in tandem keep the order of their packets (Friedman, "Reduction
methods for tandem queuing systems", 1965).  Flows are grouped by their
first link.  A group forms a tree when every route that uses one of its
links enters that link from the same link, or from none: each link's
users then share one prefix, no other group's route touches the group's
links, and every link serves the group's packets in the order of its
first link.  The one flow of a tree of one is private: it takes no heap
event, its packets simulated one after another in a loop of its own,
each over its whole route at its injection.  A flow in a tree of several
takes one heap event per packet, which serves its whole route.  The flows
of any other group take one event per hop, whose queueing instant breaks
ties at a link where routes merge.

An event is the flat tuple ``(time, seq, flow, hop, gen_time)``: hop -1
injects a packet of the flow, hop k >= 0 is a packet generated at
``gen_time`` reaching the k-th step of its route: a link, or the whole
route for a flow in a tree.  An injection serves hop 0 in the same step
unless another queued event has exactly its time; then hop 0 is queued,
so (time, seq) order decides as it would for separate events.  A
packet leaving its last link is counted delivered at once if it arrives
by the horizon."""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from random import Random

from .topology import Topology, _as_integer, _as_real

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
        # the metrics CSV writes the name as one bare cell
        if any(c in str(self.name) for c in ',"\r\n'):
            raise SimulationError(
                f"flow name {self.name!r} must not contain a comma, a double quote, CR or LF"
            )
        for end in ("src", "dst"):
            value = _as_integer(getattr(self, end), f"flow {self.name}: {end}", SimulationError)
            object.__setattr__(self, end, value)
        # a route from a node to itself crosses no link
        if self.src == self.dst:
            raise SimulationError(
                f"flow {self.name}: source and destination coincide ({self.src})"
            )
        object.__setattr__(
            self,
            "packet_bytes",
            _as_integer(self.packet_bytes, f"flow {self.name}: packet_bytes", SimulationError),
        )
        if self.packet_bytes < 1:
            raise SimulationError(f"flow {self.name}: packet_bytes must be >= 1")
        # the simulator times a packet by its bit count as a float
        try:
            float(self.packet_bytes * 8)
        except OverflowError:
            raise SimulationError(
                f"flow {self.name}: packet_bytes is too large: its bit count overflows a float"
            ) from None
        start = _as_real(self.start, f"flow {self.name}: start time", SimulationError)
        object.__setattr__(self, "start", start)
        if not start >= 0:
            raise SimulationError(f"flow {self.name}: start time must be >= 0, got {start}")
        if self.rate_bps is not None:
            rate = _as_real(self.rate_bps, f"flow {self.name}: rate", SimulationError)
            object.__setattr__(self, "rate_bps", rate)
            if not rate > 0:
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
    if src == dst:
        return []
    parent = {src: None}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for nxt, _, idx in topology._out_links.get(here, ()):
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
    - The number of events is not capped.  The flows that share a first
      link form a tree when every route that uses one of their links
      enters it from the same link, or from none.  The one flow of a tree
      of one takes no event, and each flow in a tree of several takes one
      per injected packet.  Any other flow takes one per injected packet,
      plus one per hop after the first that the packet reaches by the
      horizon.  Run time grows with the sum over flows of (duration / time
      step) times (hops + 1), where the step is the first-hop service time
      of a saturating flow and the mean gap of a Poisson flow.
    - ``seed`` must be a non-negative integer.  Flow ``i`` draws from
      ``Random(seed * 1_000_003 + i)``, and ``Random`` seeds from an int's
      absolute value, so a negative seed would repeat a positive one.
    """
    flows = list(flows)
    duration = _as_real(duration, "duration", SimulationError)
    if not 0 < duration < math.inf:
        raise SimulationError(f"duration must be positive and finite, got {duration}")
    seed = _as_integer(seed, "seed", SimulationError)
    if seed < 0:
        raise SimulationError(f"seed must be a non-negative integer, got {seed}")
    names = [f.name for f in flows]
    if len(set(names)) != len(names):
        raise SimulationError("flow names must be unique")

    routes = [shortest_route(topology, f.src, f.dst) for f in flows]
    links = topology.links
    next_free = [0.0] * len(links)
    busy = [0.0] * len(links)

    injected = [0] * len(flows)
    latencies = [[] for _ in flows]

    def carry(hops, time):
        # serve a packet reaching ``hops`` at ``time`` on each of their links
        # in turn, at its arrival there; return its arrival after the last,
        # or its first arrival past the horizon
        for link, service, delay in hops:
            start = next_free[link]
            if time >= start:
                start = time
            finish = start + service
            next_free[link] = finish
            if finish <= duration:
                busy[link] += finish - start
            elif start < duration:
                busy[link] += duration - start
            time = finish + delay
            if time > duration:
                break
        return time

    # each link's sources: the links that the routes over it enter it from,
    # None for a first link.  The flows sharing a first link form a tree
    # unless a link of their routes has two sources; ``merged`` holds the
    # first links of the groups that do not
    sources = {}
    for route in routes:
        for prev, idx in zip((None, *route), route):
            sources.setdefault(idx, set()).add(prev)
    firsts = Counter(route[0] for route in routes)
    merged = {route[0] for route in routes if any(len(sources[idx]) > 1 for idx in route)}
    # per flow: its hops as (link, service time, propagation delay), each in
    # a tuple of its own when its group is merged, whose packets then take
    # one event per hop, else all in one, served by one event per packet; the
    # draw of its next Poisson gap (None when saturating); and a saturating
    # flow's first link, whose clearing injects the flow's next packet (None
    # otherwise).  The first injection goes on the heap, or, for a tree of one
    # flow, on the list of private flows
    hops, gaps, refills, heap, private = [], [], [], [], []
    for i, (flow, route) in enumerate(zip(flows, routes)):
        size = flow.packet_bytes * 8
        path = tuple((idx, size / links[idx].capacity_bps, links[idx].propagation_delay)
                     for idx in route)
        hops.append(tuple((hop,) for hop in path) if route[0] in merged else (path,))
        # a step below the clock's resolution at the horizon would repeat one
        # instant forever: a saturating flow steps by its first-hop service
        # time, a Poisson flow by its mean gap
        if flow.saturating:
            step = path[0][1]
        else:
            step = size / flow.rate_bps
        if step < math.ulp(duration):
            raise SimulationError(
                f"flow {flow.name}: packet time step {step!r} s is below the clock "
                f"resolution {math.ulp(duration)!r} s at duration {duration!r} s"
            )
        if flow.saturating:
            gap = None
        elif flow.rate_bps / size:
            gap = partial(Random(seed * _FLOW_SEED_STRIDE + i).expovariate, flow.rate_bps / size)
        else:
            # a packet rate that underflows to 0 has an infinite mean gap
            gap = lambda: math.inf
        gaps.append(gap)
        refills.append(route[0] if flow.saturating else None)
        first = flow.start if gap is None else flow.start + gap()
        if route[0] in merged or firsts[route[0]] > 1:
            heap.append((first, i, i, -1, 0.0))
        else:
            private.append((i, first))

    # a private flow meets no other flow, so its packets run one after
    # another, each over its whole route at its injection
    for i, time in private:
        (path,), gap, refill, delivered = hops[i], gaps[i], refills[i], latencies[i]
        while time <= duration:
            injected[i] += 1
            arrive = carry(path, time)
            if arrive <= duration:
                delivered.append(arrive - time)
            if gap is not None:
                time += gap()
            else:
                time = next_free[refill]

    heapq.heapify(heap)
    # a first injection's sequence number is its flow's index, so later
    # events count on from len(flows): from len(heap), with private flows
    # left out, they would reuse a first injection's number and tie on it
    seq = len(flows)
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
            if (len(heap) > 1 and heap[1][0] == time) or (len(heap) > 2 and heap[2][0] == time):
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
            arrive = carry(route[hop], time)
            hop += 1
            if arrive <= duration:
                if hop == len(route):
                    latencies[i].append(arrive - gen_time)
                else:
                    put(heap, (arrive, seq, i, hop, gen_time))
                    seq += 1
                    put = heappush
            if hop == 1 and refills[i] is not None:
                # keep the first hop backlogged: next packet the moment
                # this one clears the transmitter
                put(heap, (next_free[refills[i]], seq, i, -1, 0.0))
                seq += 1
                put = heappush
        if put is heapreplace:
            heapq.heappop(heap)

    # an exact integer division, correctly rounded: a delivered bit count
    # past the largest float divides as well as one below it
    num, den = duration.as_integer_ratio()
    flow_metrics = tuple(
        _packet_row(
            FlowMetrics, count, lats, len(lats) * flow.packet_bytes * 8 * den / num,
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
