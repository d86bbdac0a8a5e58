#!/usr/bin/env python3
"""Time the compiled decoder kernels against the pure-numpy fallback.

Runs the same workloads through owpan._kernels._native and ._pure and
prints a table with the per-call median and the speedup.  The pure
backend is always present; the native rows are skipped when the
extension is not built (pip install compiles it unless OWPAN_NO_EXT=1).

The first rows are frame-sized calls, a 32-byte frame's work: a 3-block
RS encode, a noiseless 3-block RS decode and a 270-step rate-1/3 Viterbi.
There the per-call overhead dominates; in the large batches after them,
the per-block or per-step cost does.

Usage:
    python3 benchmarks/bench_kernels.py [--blocks N] [--steps N] [--repeat N]
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

from owpan._kernels import _pure

try:
    from owpan._kernels import _native
except ImportError:
    _native = None

from owpan.phy.fec import _TABLE_R13, _TABLE_R14


def _median_call_s(fn, repeat: int) -> float:
    # each timeit sample is a single call; frames are decoded one at a
    # time in real use, so per-call latency is the number that matters
    times = timeit.repeat(fn, number=1, repeat=repeat)
    return sorted(times)[len(times) // 2]


def build_workloads(blocks: int, steps: int):
    rng = np.random.default_rng(12)
    loads = []

    frame_data = rng.integers(0, 16, size=(3, 11), dtype=np.uint8)
    loads.append(("rs_encode k=11 x3", "rs_encode_blocks", (frame_data, 11)))
    frame_code = _pure.rs_encode_blocks(frame_data, 11)
    loads.append(("rs_decode k=11 x3 clean", "rs_decode_blocks", (frame_code, 11)))
    frame_obs = rng.integers(0, 2, size=270 * 3).astype(np.uint8)
    loads.append(
        ("viterbi rate 1/3 x270 steps", "viterbi_decode", (frame_obs, _TABLE_R13))
    )

    for k in (7, 11):
        data = rng.integers(0, 16, size=(blocks, k), dtype=np.uint8)
        loads.append((f"rs_encode k={k} x{blocks}", "rs_encode_blocks", (data, k)))

        code = _pure.rs_encode_blocks(data, k)
        noisy = code.copy()
        t = (15 - k) // 2
        for row in noisy:
            pos = rng.choice(15, size=t, replace=False)
            row[pos] ^= rng.integers(1, 16, size=t).astype(np.uint8)
        loads.append((f"rs_decode k={k} x{blocks}", "rs_decode_blocks", (noisy, k)))

    for label, table in (("1/3", _TABLE_R13), ("1/4", _TABLE_R14)):
        nout = table.shape[1]
        obs = rng.integers(0, 2, size=steps * nout).astype(np.uint8)
        obs[rng.choice(obs.size, size=steps // 5, replace=False)] = 2
        loads.append(
            (f"viterbi rate {label} x{steps} steps", "viterbi_decode", (obs, table))
        )
    return loads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=20000, help="RS rows per call")
    parser.add_argument("--steps", type=int, default=2000, help="trellis steps per call")
    parser.add_argument("--repeat", type=int, default=9, help="samples per measurement")
    args = parser.parse_args()

    if _native is None:
        print("note: compiled extension not importable; timing the fallback only")

    backends = [("pure", _pure)] + ([("native", _native)] if _native else [])
    loads = build_workloads(args.blocks, args.steps)

    name_w = max(len(n) for n, _, _ in loads)
    cells = [f"{'workload':<{name_w}} "] + [f"{b:>12}" for b, _ in backends]
    if _native:
        cells.append(f"{'speedup':>10}")
    header = " ".join(cells)
    print(header)
    print("-" * len(header))

    for name, fn_name, fn_args in loads:
        row = [f"{name:<{name_w}} "]
        per = {}
        for bname, mod in backends:
            fn = getattr(mod, fn_name)
            # one warm call keeps table setup out of the measurement
            fn(*fn_args)
            per[bname] = _median_call_s(lambda: fn(*fn_args), args.repeat)
            row.append(f"{per[bname] * 1e6:>10.0f}us")
        if _native:
            row.append(f"{per['pure'] / per['native']:>9.1f}x")
        print(" ".join(row))


if __name__ == "__main__":
    main()
