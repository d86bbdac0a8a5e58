#!/usr/bin/env python3
"""owpan benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload codec-short --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is built from ``src/`` (the
optional native kernels through ``setup.py build_ext --inplace``) and
imported from there.

``--trace 0`` measures the end-to-end metrics with nothing wrapped, in
reference-speed time (see calibration.py).  ``--trace 1`` issues whole
cycles of operations alternately untraced and with every layer boundary
wrapped in a span, until half of ``--seconds`` of untraced time, and
reports the per-layer metrics, the tracing overhead (traced over
untraced wall of the same operations) and a replay of the recorded
kernel inputs on every importable kernel backend.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, whose
names and units come from ``BENCHMARK.json``.  The exit code is 1 when
any operation failed, 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
# set-up is repeated and its median reported, so one slow import does not decide it
SETUP_REPEATS = 9
# End-to-end times are reported in reference-speed time: wall time divided
# by the machine's current speed, the median of the last SPEED_WINDOW
# calibration ratios (see calibration.py), sampled this often.
CALIBRATE_EVERY_S = 0.1
SPEED_WINDOW = 9


class Tally:
    """Latencies and outcomes of the operations one loop issued.

    ``latency_ns`` is wall time.  ``scaled_ns`` is the same divided by the
    machine's speed when the operation ran: the median of the last
    ``SPEED_WINDOW`` calibration samples (1 until the first sample).
    """

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.slot_scaled_ns: dict[int, list[float]] = {}
        self.slot_output: dict[int, tuple[int, int]] = {}
        self.speed: list[float] = []
        self.current_speed = 1.0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    @property
    def busy_ns(self) -> int:
        return sum(self.latency_ns)

    @property
    def items(self) -> int:
        return sum(items for items, _ in self.slot_output.values())

    def calibrate(self, kernel: str) -> None:
        self.speed.append(calibration.sample(kernel))
        self.current_speed = statistics.median(self.speed[-SPEED_WINDOW:])

    def fail(self, index: int, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"operation {index}: {type(exc).__name__}: {exc}")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, only when ten samples lie beyond it.

    p99 needs 1000 samples, p90 100, p75 40, p50 20.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[rank - 1]


def samples_for(q: float) -> int:
    """Fewest samples that leave ten beyond the ``q``-th percentile."""
    return round(1000.0 / (100.0 - q))


def issue(workload, index: int, tally: Tally) -> None:
    """Issue one operation, time it and check its output."""
    slot = index % len(workload.pool)
    start = time.perf_counter_ns()
    try:
        output = workload.run(slot)
    except Exception as exc:  # a call that raises is a failed operation
        output, error = None, exc
    else:
        error = None
    elapsed = time.perf_counter_ns() - start
    scaled = elapsed / tally.current_speed
    tally.latency_ns.append(elapsed)
    tally.scaled_ns.append(scaled)
    tally.slot_scaled_ns.setdefault(slot, []).append(scaled)
    if error is None:
        try:
            tally.slot_output[slot] = workload.check(slot, output)
            return
        except Exception as exc:  # a wrong output, or a check that could not read it
            error = exc
    tally.fail(index, error)


def closed_loop(workload, seconds: float, min_ops: int, whole_cycles: bool) -> Tally:
    """Issue operations back to back until ``seconds`` have passed and at
    least ``min_ops`` were issued, ending on a cycle boundary if asked.

    Between operations, every ``CALIBRATE_EVERY_S``, the workload's
    calibration kernel is timed, sampling the machine's speed across the
    whole run.
    """
    tally = Tally()
    start = time.perf_counter()
    next_calibration = start
    index = 0
    while True:
        if time.perf_counter() >= next_calibration:
            tally.calibrate(workload.calibration)
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        issue(workload, index, tally)
        index += 1
        if (
            time.perf_counter() - start >= seconds
            and index >= min_ops
            and (not whole_cycles or index % workload.cycle == 0)
        ):
            return tally


def build() -> None:
    """Build the optional native kernels in place, once per source version."""
    setup_py = ROOT / "setup.py"
    if not setup_py.exists():
        return
    sources = [setup_py] + sorted((ROOT / "src" / "owpan" / "_kernels").glob("*"))
    digest = hashlib.sha256()
    for path in sources:
        if path.is_file() and path.suffix not in (".so", ".pyd"):
            digest.update(path.name.encode() + path.read_bytes())
    marker = BUILD_DIR / f"built-{digest.hexdigest()[:16]}"
    if marker.exists():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    result = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(BUILD_DIR / "temp")],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=900,
    )
    if result.returncode == 0:
        marker.touch()
    else:
        print(f"note: native build failed ({result.returncode}); measuring what imports",
              file=sys.stderr)


def set_up(name: str, seed: int):
    """Import owpan afresh, generate the inputs and warm every path.

    Compiled extension modules stay loaded: they cannot be initialised
    twice, and dropping them would make the kernels fall back to pure.
    """
    start = time.perf_counter_ns()
    for mod in [m for m in sys.modules if m == "owpan" or m.startswith("owpan.")]:
        if not str(getattr(sys.modules[mod], "__file__", "")).endswith((".so", ".pyd")):
            del sys.modules[mod]
    owpan = importlib.import_module("owpan")
    for sub in ("owpan.phy.frames", "owpan.phy.modes", "owpan.netsim", "owpan._kernels"):
        importlib.import_module(sub)
    workload = workloads.WORKLOADS[name](seed)
    workload.setup(owpan)
    return time.perf_counter_ns() - start, owpan, workload


def stamp(owpan, args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".h"):
            src.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": owpan._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def end_to_end(workload, tally: Tally, setup: Tally) -> tuple[dict, dict]:
    """End-to-end metrics in reference-speed time, and in wall time.

    Throughput is one pass over the input pool at each slot's median
    scaled latency, so a stall that hits a few operations does not move
    it; the percentiles keep every operation.  ``setup`` holds the timed
    set-ups.
    """
    speed = statistics.median(tally.speed)
    pass_s = sum(statistics.median(tally.slot_scaled_ns[s]) for s in tally.slot_output) / 1e9
    nbytes = sum(b for _, b in tally.slot_output.values())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = {
        "setup_s": statistics.median(setup.scaled_ns) / 1e9,
        "items_per_s": tally.items / pass_s,
        "payload_MBps": nbytes / pass_s / 1e6,
        "op_p50_ms": percentile(tally.scaled_ns, 50) / 1e6,
        "op_tail_ms": percentile(tally.scaled_ns, workload.tail_q) / 1e6,
        "peak_rss_MB": rss,
    }
    issued_items = sum(
        items * len(tally.slot_scaled_ns[s]) for s, (items, _) in tally.slot_output.items()
    )
    raw = {
        "setup_s": statistics.median(setup.latency_ns) / 1e9,
        "items_per_s": issued_items / (tally.busy_ns / 1e9),
        "op_p50_ms": percentile(tally.latency_ns, 50) / 1e6,
        "op_tail_ms": percentile(tally.latency_ns, workload.tail_q) / 1e6,
        "speed_factor": speed,
    }
    return scaled, raw


def traced(workload, owpan, seconds: float):
    """Cycles issued untraced and then traced, in turn, for ``seconds / 2``
    of untraced time, and the replay of the recorded kernel inputs.

    Alternating cycle by cycle puts both sides of the overhead ratio under
    the same conditions (caches, heap, other tenants of the machine).
    """
    plain, spanned = Tally(), Tally()
    tracer = spans.Tracer()
    recorder = layers.KernelRecorder()
    sites = layers.span_sites(owpan)
    index = 0
    while plain.busy_ns < seconds / 2 * 1e9:
        for tally, trace in ((plain, False), (spanned, True)):
            if trace:
                layers.install(tracer, sites, recorder)
            try:
                for i in range(index, index + workload.cycle):
                    issue(workload, i, tally)
            finally:
                tracer.close()
        index += workload.cycle
    metrics = layers.layer_metrics(tracer, spanned.busy_ns, index // workload.cycle, workload)
    metrics["trace.overhead"] = spanned.busy_ns / plain.busy_ns
    backends = layers.available_backends()
    kernel_metrics, mismatches = layers.replay(recorder, backends)
    metrics.update(kernel_metrics)
    spanned.failed += plain.failed + len(mismatches)
    spanned.errors = plain.errors + spanned.errors + mismatches[:5]
    attempted = plain.attempted + spanned.attempted + len(recorder.calls) * len(backends)
    return metrics, spanned, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "owpan" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from an owpan checkout with src/owpan and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    build()
    sys.path.insert(0, str(ROOT / "src"))
    # each set-up is scaled by the machine's speed measured just before it
    setup = Tally()
    kernel = workloads.WORKLOADS[args.workload].calibration
    for _ in range(SETUP_REPEATS):
        setup.calibrate(kernel)
        elapsed, owpan, workload = set_up(args.workload, args.seed)
        setup.latency_ns.append(elapsed)
        setup.scaled_ns.append(elapsed / setup.current_speed)
    info = stamp(owpan, args)
    print("stamp " + json.dumps(info, sort_keys=True))

    if args.trace:
        metrics, tally, attempted = traced(workload, owpan, args.seconds)
        listed = spec["per_layer"]
    else:
        min_ops = max(samples_for(workload.tail_q), workload.min_cycles * workload.cycle)
        tally = closed_loop(workload, args.seconds, min_ops, workload.whole_cycles)
        attempted = tally.attempted
        metrics, raw = end_to_end(workload, tally, setup)
        listed = spec["end_to_end"]
        print(f"ops {tally.attempted} over {len(tally.slot_scaled_ns)} input slots; "
              f"items are {workload.item}s; op_tail_ms is p{workload.tail_q:g}")
        for name, value in sorted(raw.items()):
            print(f"raw.{name} {value!r}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(metrics.items()):
        # a native replay row has the unit of its pure twin
        unit = units.get(name) or units.get(name.replace(".native.", ".pure."), "")
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {tally.failed / attempted!r} ({tally.failed} of {attempted})")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
