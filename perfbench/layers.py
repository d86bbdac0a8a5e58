"""Which owpan functions the traced run wraps, the per-layer metrics made
from their spans, and the replay of recorded kernel inputs on every
kernel backend.

Each layer is one owpan module; metric names start with a letter, so
the layer of ``owpan._kernels`` is called ``kernels``.  A span is named
``<layer>.<function>``
and wraps the attribute its caller looks up at call time, so the span
sits on the call from one layer into the next: ``frames`` calls
``rs_decode`` through its own namespace, ``fec`` calls
``_kernels.rs_decode_blocks`` through the package, ``capacity`` calls
the channel functions through its own namespace.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = (
    "phy.modulation",
    "phy.line_codes",
    "phy.frames",
    "phy.fec",
    "kernels",
    "capacity",
    "channels",
    "netsim.config",
    "netsim.engine",
)

KERNELS = ("rs_encode_blocks", "rs_decode_blocks", "viterbi_decode")
# inputs kept for the replay; a 64 KiB frame hands RS ~1 MB per call
RECORD_BUDGET_BYTES = 64 << 20


def _blocks(args, result) -> int:
    return args[0].shape[0]


def _steps(args, result) -> int:
    obs, table = args
    return len(obs) // table.shape[1]


def _chips_out(args, result) -> int:
    # encode_8b10b returns (chips, running disparity)
    return len(result[0] if isinstance(result, tuple) else result)


def _size_in(args, result) -> int:
    return len(args[0])


def _size_out(args, result) -> int:
    return len(result)


def _points(args, result) -> int:
    return sum(len(c.x) for c in result)


def _rows(args, result) -> int:
    return sum(len(c.x) for c in args[0])


def _injected(args, result) -> int:
    return result.injected


LINE_ENCODERS = ("manchester_encode", "encode_4b6b", "encode_8b10b")
LINE_DECODERS = ("manchester_decode", "decode_4b6b", "decode_8b10b")
MODULATORS = ("ook_modulate", "vppm_modulate")
DEMODULATORS = ("ook_demodulate", "vppm_demodulate")
CHANNEL_FUNCTIONS = (
    "gaussian_beam_radius",
    "beers_lambert_transmittance",
    "fso_capture_fraction",
    "los_gain",
    "diffuse_gain",
)


def span_sites(owpan):
    """(module, attribute, span name, work hook) for every traced call that
    exists in this version of owpan."""
    phy = owpan.phy
    netsim = owpan.netsim
    sites = [
        (phy.frames, "encode_frame", "phy.frames.encode_frame", None),
        (phy.frames, "decode_frame", "phy.frames.decode_frame", None),
    ]
    sites += [(phy.frames, f, f"phy.fec.{f}", None) for f in ("rs_encode", "rs_decode", "cc_encode", "viterbi_decode")]
    sites += [(phy.line_codes, f, f"phy.line_codes.{f}", _chips_out) for f in LINE_ENCODERS]
    sites += [(phy.line_codes, f, f"phy.line_codes.{f}", _size_in) for f in LINE_DECODERS]
    sites += [(phy.modulation, f, f"phy.modulation.{f}", _size_out) for f in MODULATORS]
    sites += [(phy.modulation, f, f"phy.modulation.{f}", _size_in) for f in DEMODULATORS]
    sites += [
        (owpan._kernels, "rs_encode_blocks", "kernels.rs_encode_blocks", _blocks),
        (owpan._kernels, "rs_decode_blocks", "kernels.rs_decode_blocks", _blocks),
        (owpan._kernels, "viterbi_decode", "kernels.viterbi_decode", _steps),
        (owpan.capacity, "sweep_capacity", "capacity.sweep_capacity", _points),
        (owpan.capacity, "write_curves_csv", "capacity.write_curves_csv", _rows),
        (owpan.capacity, "outdoor_link_capacity", "capacity.outdoor_link_capacity", None),
        (owpan.capacity, "indoor_link_capacity", "capacity.indoor_link_capacity", None),
    ]
    sites += [(owpan.capacity, f, f"channels.{f}", None) for f in CHANNEL_FUNCTIONS]
    sites += [
        (netsim.config, "parse_network_config", "netsim.config.parse_network_config", None),
        (netsim.engine, "run_simulation", "netsim.engine.run_simulation", _injected),
        (netsim.engine, "shortest_route", "netsim.engine.shortest_route", None),
        (netsim.engine, "write_metrics_csv", "netsim.engine.write_metrics_csv", None),
    ]
    present = []
    for site in sites:
        if hasattr(site[0], site[1]):
            present.append(site)
        else:
            print(f"note: {site[0].__name__}.{site[1]} not found; span {site[2]} not recorded",
                  file=sys.stderr)
    return present


class KernelRecorder:
    """Keeps the inputs and outputs of ``owpan._kernels`` calls, up to a byte budget."""

    def __init__(self, budget: int = RECORD_BUDGET_BYTES) -> None:
        self.budget = budget
        self.calls: list[tuple[str, tuple, object]] = []

    def hook(self, kernel: str, work):
        def after(args, result):
            outputs = result if isinstance(result, tuple) else (result,)
            size = sum(getattr(a, "nbytes", 0) for a in args + outputs)
            if size <= self.budget:
                self.budget -= size
                self.calls.append((kernel, _copy(args), _copy(result)))
            return work(args, result)

        return after


def _copy(value):
    # callers may write into a kernel's output; keep what the kernel returned
    if isinstance(value, tuple):
        return tuple(_copy(v) for v in value)
    return value.copy() if hasattr(value, "copy") else value


def install(tracer, sites, recorder: KernelRecorder | None = None) -> None:
    """Wrap every span site; ``tracer.close()`` unwraps them."""
    for module, attr, name, work in sites:
        if recorder is not None and name.startswith("kernels."):
            work = recorder.hook(attr, work)
        tracer.wrap(module, attr, name, work)


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def available_backends() -> dict:
    """Every kernel backend module that imports here, by name."""
    found = {}
    for name in ("pure", "native"):
        try:
            found[name] = importlib.import_module(f"owpan._kernels._{name}")
        except ImportError:
            continue
    return found


def replay(recorder: KernelRecorder, backends: dict) -> tuple[dict, list[str]]:
    """Re-run every recorded kernel call on every backend.

    Returns per-backend metrics and a list of mismatches: any output
    that is not bit-identical (dtype, shape and bytes) to the recorded
    one from the live backend.
    """
    metrics: dict[str, float] = {}
    mismatches: list[str] = []
    for backend, module in backends.items():
        total_ns = {k: 0 for k in KERNELS}
        work = {k: 0 for k in KERNELS}
        for kernel, args, expected in recorder.calls:
            fn = getattr(module, kernel)
            start = time.perf_counter_ns()
            got = fn(*args)
            total_ns[kernel] += time.perf_counter_ns() - start
            work[kernel] += _steps(args, got) if kernel == "viterbi_decode" else _blocks(args, got)
            if not _same(got, expected):
                mismatches.append(f"{backend}.{kernel} differs on a {args[0].shape} input")
        for kernel in KERNELS:
            unit = "us_per_step" if kernel == "viterbi_decode" else "us_per_block"
            metrics[f"kernels.{backend}.{kernel}.{unit}"] = _div(total_ns[kernel] / 1e3, work[kernel])
    metrics["kernels.replay.calls"] = len(recorder.calls)
    metrics["kernels.replay.backends"] = len(backends)
    return metrics, mismatches


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, wall_ns: int, cycles: int, workload) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not reach reads 0.

    ``wall_ns`` is the summed latency of the traced operations and
    ``cycles`` the number of passes over the workload's modes, variables
    or configs that they made.
    """
    stats = tracer.stats

    def total(*names):
        return sum(stats[n].total_ns for n in names if n in stats)

    def self_ns(*names):
        return sum(stats[n].self_ns for n in names if n in stats)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def work(*names):
        return sum(stats[n].work for n in names if n in stats)

    m: dict[str, float] = {}
    frames = calls("phy.frames.encode_frame")
    k = "kernels.viterbi_decode"
    m[f"{k}.us_per_step"] = _div(total(k) / 1e3, work(k))
    m[f"{k}.steps"] = _div(work(k), cycles)
    for k in ("kernels.rs_decode_blocks", "kernels.rs_encode_blocks"):
        m[f"{k}.us_per_call"] = _div(total(k) / 1e3, calls(k))
        m[f"{k}.us_per_block"] = _div(total(k) / 1e3, work(k))
    m["kernels.rs_decode_blocks.blocks_per_call"] = _div(
        work("kernels.rs_decode_blocks"), calls("kernels.rs_decode_blocks")
    )
    fec = [n for n in stats if n.startswith("phy.fec.")]
    m["phy.fec.self_ms"] = _div(self_ns(*fec) / 1e6, frames)
    for side, names in (("encode", LINE_ENCODERS), ("decode", LINE_DECODERS)):
        spans = [f"phy.line_codes.{f}" for f in names]
        m[f"phy.line_codes.{side}.ns_per_chip"] = _div(total(*spans), work(*spans))
    for side, names in (("modulate", MODULATORS), ("demodulate", DEMODULATORS)):
        spans = [f"phy.modulation.{f}" for f in names]
        m[f"phy.modulation.{side}.ns_per_sample"] = _div(total(*spans), work(*spans))
    enc, dec = self_ns("phy.frames.encode_frame"), self_ns("phy.frames.decode_frame")
    m["phy.frames.self_us_per_frame"] = _div((enc + dec) / 1e3, frames)
    m["phy.frames.encode_share"] = _div(enc, enc + dec)
    m["phy.frames.decode_share"] = _div(dec, enc + dec)

    points = work("capacity.sweep_capacity")
    k = "capacity.outdoor_link_capacity"
    m[f"{k}.us_per_call"] = _div(total(k) / 1e3, calls(k))
    # every operation makes one end-to-end sweep out of its two sweeps
    m["capacity.indoor_link_capacity.calls"] = _div(
        calls("capacity.indoor_link_capacity"), calls("capacity.sweep_capacity") / 2
    )
    m["channels.us_per_point"] = _div(
        self_ns(*[f"channels.{f}" for f in CHANNEL_FUNCTIONS]) / 1e3, points
    )
    m["capacity.sweep_capacity.self_us_per_point"] = _div(
        self_ns("capacity.sweep_capacity") / 1e3, points
    )
    k = "capacity.write_curves_csv"
    m[f"{k}.us_per_row"] = _div(total(k) / 1e3, work(k))

    sims = calls("netsim.engine.run_simulation")
    m["netsim.config.parse_ms"] = _div(
        total("netsim.config.parse_network_config") / 1e6,
        calls("netsim.config.parse_network_config"),
    )
    m["netsim.engine.shortest_route.ms"] = _div(total("netsim.engine.shortest_route") / 1e6, sims)
    # the event loop alone: routing is the child span above
    m["netsim.engine.run_simulation.us_per_packet"] = _div(
        self_ns("netsim.engine.run_simulation") / 1e3, work("netsim.engine.run_simulation")
    )
    k = "netsim.engine.write_metrics_csv"
    m[f"{k}.ms"] = _div(total(k) / 1e6, calls(k))
    sim = getattr(workload, "reference", None)
    m["netsim.injected"] = sim.injected if sim else 0
    m["netsim.delivered"] = sim.delivered if sim else 0
    m["netsim.dropped"] = sim.dropped if sim else 0
    m["netsim.sim.throughput_bps"] = sim.throughput_bps if sim else 0.0
    m["netsim.sim.p95_latency_ms"] = sim.p95_latency_s * 1e3 if sim else 0.0

    layer_ns = tracer.layer_self_ns()
    for layer in LAYERS:
        m[f"{layer}.share"] = _div(layer_ns.get(layer, 0), wall_ns)
    return m
