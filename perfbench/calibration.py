"""Calibration kernels: fixed work, independent of owpan, timed between
operations to measure how fast a shared machine currently runs.

On a shared 2-vCPU Xeon virtual machine the speed drifts by tens of
percent over seconds and minutes, and the drift slows kinds of work
unequally: across runs minutes apart, netsim throughput tracked a
heap-event loop within ~3% while a generic mix of Python and numpy work
missed by 10-30% on some workloads.  So each workload is scaled by a
kernel that does its kind of work.  A kernel's reference is its 10th
percentile time over 150 runs on that machine (Python 3.11, numpy 2.4),
so reference-speed times read close to its idle-machine times.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
_rng = np.random.default_rng(0)
_PREDECESSORS = np.stack([np.arange(64) >> 1, (np.arange(64) >> 1) | 32], axis=1)
_BRANCH = _rng.integers(0, 4, size=(4, 64, 2)).astype(np.int64)
_GF_TABLE = _rng.integers(0, 16, size=(16, 16), dtype=np.uint8)
_BLOCKS = _rng.integers(0, 16, size=(5, 15), dtype=np.uint8)
_NIBBLES = _rng.integers(0, 16, size=200, dtype=np.uint8)
_LARGE = _rng.random(1 << 18)
_MANY_BLOCKS = _rng.integers(0, 16, size=(20000, 15), dtype=np.uint8)


def trellis_and_blocks() -> None:
    """A 64-state add-compare-select over 150 steps, table-driven syndromes
    of 5 RS blocks and nibble packing, all on small numpy arrays: the
    per-call work of the pure kernels on a short frame."""
    metric = np.zeros(64, dtype=np.int64)
    for step in range(150):
        candidates = metric[_PREDECESSORS] + _BRANCH[step & 3]
        np.argmin(candidates, axis=1)
        metric = candidates.min(axis=1)
    for root in range(1, 5):
        np.bitwise_xor.reduce(_GF_TABLE[_BLOCKS, root], axis=1)
    for _ in range(20):
        bits = ((_NIBBLES[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8).ravel()
        groups = bits.reshape(-1, 4).astype(np.int64)
        ((groups[:, 0] << 3) | (groups[:, 1] << 2) | (groups[:, 2] << 1) | groups[:, 3])


def large_numpy() -> None:
    """Repeat, reshape and threshold over a million samples and
    table-driven syndromes of 20000 RS blocks, as modulation, the line
    codes and RS do on a 64 KiB frame."""
    x = np.repeat(_LARGE, 4)
    (x.reshape(-1, 4).sum(axis=1) > 0.5).astype(np.uint8)
    for root in (1, 2):
        np.bitwise_xor.reduce(_GF_TABLE[_MANY_BLOCKS, root], axis=1)


@dataclass(frozen=True)
class _Budget:
    pr_db: float
    responsivity: float
    gain: float
    bandwidth: float = 10e6

    def __post_init__(self) -> None:
        if not 0.0 <= self.gain <= 1.0:
            raise ValueError(f"gain {self.gain!r}")


class _Gain(float):
    __slots__ = ()


def link_budgets() -> None:
    """Laser-hop capacities through a frozen dataclass and a float
    subclass, with repr formatting of each row: the work of a sweep point
    and its CSV row."""
    rows = []
    for k in range(300):
        span = k * 10.0
        radius = 5e-4 * math.hypot(1.0, span / 700.0)
        capture = _Gain(-math.expm1(-2e-4 / (math.pi * radius * radius)))
        gain = _Gain(10.0 ** (-(k % 90) * (span / 1000.0) / 10.0)) * capture
        budget = _Budget(30.0, 0.8, gain)
        photo = budget.responsivity * budget.gain
        snr = photo * photo * 10.0 ** (budget.pr_db / 10.0) / budget.bandwidth
        rows.append(f"{span!r},{k!r},{budget.bandwidth * math.log1p(snr) / _LN2!r}\n")
    "".join(rows)


def heap_events() -> None:
    """Push and pop of (time, sequence, event tuple) entries, as the
    simulator's event loop does."""
    heap = []
    for k in range(3000):
        heapq.heappush(heap, ((k * 7919) % 1000 / 7.0, k, ("pkt", k & 7, 0.5, k & 3)))
    while heap:
        heapq.heappop(heap)


# kernel name -> (kernel, reference nanoseconds on an idle machine)
KERNELS = {
    "trellis_and_blocks": (trellis_and_blocks, 1_100_000),
    "large_numpy": (large_numpy, 9_000_000),
    "link_budgets": (link_budgets, 1_400_000),
    "heap_events": (heap_events, 2_700_000),
}


def sample(name: str) -> float:
    """Time kernel ``name`` once; return its time over its reference."""
    kernel, reference_ns = KERNELS[name]
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / reference_ns
