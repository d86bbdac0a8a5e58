"""The benchmark's workloads: seeded inputs, the calls into owpan, and the
checks on what owpan returns.

A workload is a pool of operations.  The harness issues them one at a
time, each only after the previous one returned: a closed loop with one
caller.  An operation is what a library or CLI user issues: one frame
round trip, one capacity sweep written to CSV, or one parsed, simulated
and written network.  Inputs come from ``random.Random(seed)`` alone;
owpan receives only the generated values.

Every workload counts "items" (frames, swept points or injected packets)
and "payload bytes" (payload round-tripped, CSV written or packet bytes
simulated), which the harness turns into rates.
"""

from __future__ import annotations

import hashlib
import io
import math
import random

# 64 KiB payloads are the codec's MAX_PAYLOAD.
BULK_PAYLOAD_BYTES = 0xFFFF
CODEC_DIMMINGS = (0.25, 0.5, 0.75)
_LN2 = math.log(2.0)


class CheckError(Exception):
    """owpan returned a result that disagrees with the benchmark's check."""


class Workload:
    """Base of the workloads.

    ``calibration`` names the kernel of calibration.py that does the
    workload's kind of work.  ``tail_q`` is the percentile reported as
    ``op_tail_ms``; the harness
    keeps issuing operations until the percentile has ten samples beyond
    it, and for at least ``min_cycles`` cycles.  ``cycle`` operations make
    one pass over every mode, variable or config; with ``whole_cycles`` a
    run stops only at a cycle boundary.
    """

    name = ""
    item = "item"
    calibration = ""
    tail_q = 99.0
    cycle = 1
    min_cycles = 1
    whole_cycles = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool: list = []

    def generate(self, names=None) -> None:
        """Fill ``self.pool`` with the seeded inputs (no owpan call)."""
        raise NotImplementedError

    def setup(self, owpan) -> None:
        """Bind the generated inputs to owpan objects and warm every path."""
        raise NotImplementedError

    def run(self, index: int):
        """Issue operation ``index`` of the pool and return its output."""
        raise NotImplementedError

    def check(self, index: int, output) -> tuple[int, int]:
        """Raise CheckError on a wrong output; else return (items, payload bytes)."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """SHA-256 of the generated inputs, for the determinism self-test."""
        return hashlib.sha256(repr(self.pool).encode()).hexdigest()


class _Codec(Workload):
    item = "frame"
    whole_cycles = True

    def _modes(self, owpan):
        raise NotImplementedError

    def mode_names(self, owpan) -> list[str]:
        return sorted(m.name for m in self._modes(owpan))

    def generate(self, names=None) -> None:
        # every mode gets every payload length once, in a seeded order, so
        # the work in the pool is the same for every seed
        rng = random.Random(self.seed)
        lengths = {name: rng.sample(self.lengths, len(self.lengths)) for name in names}
        self.cycle = len(names)
        self.pool = []
        for c in range(len(self.lengths)):
            order = list(names)
            rng.shuffle(order)
            for name in order:
                self.pool.append(
                    (name, rng.randbytes(lengths[name][c]), rng.choice(CODEC_DIMMINGS))
                )

    def setup(self, owpan) -> None:
        self.generate(self.mode_names(owpan))
        self.frames = owpan.phy.frames
        modes = {m.name: m for m in self._modes(owpan)}
        self.ops = [(payload, modes[name], dim) for name, payload, dim in self.pool]
        for mode in modes.values():
            payload = bytes(range(self.warm_bytes))
            self._round_trip(payload, mode, 0.5)

    def _round_trip(self, payload: bytes, mode, dimming: float) -> bytes:
        frame = self.frames.encode_frame(payload, mode, dimming)
        return self.frames.decode_frame(frame.waveform, mode, dimming)

    def run(self, index: int):
        return self._round_trip(*self.ops[index])

    def check(self, index: int, output) -> tuple[int, int]:
        payload, mode, _ = self.ops[index]
        if output != payload:
            raise CheckError(f"{mode.name}: decoded bytes differ from the payload")
        return 1, len(payload)


class CodecShort(_Codec):
    """0-32 B payloads through all 23 bound modes, one frame per call.

    The payload lengths are acceptance 4's, 0 to 32 B, each equally often.
    Per-call cost dominates: RS on 1-5 blocks, the generator rebuilt per
    encode, Viterbi over a few hundred steps.
    """

    name = "codec-short"
    calibration = "trellis_and_blocks"
    tail_q = 99.0
    lengths = tuple(range(33))
    warm_bytes = 16

    def _modes(self, owpan):
        return [m for m in owpan.phy.modes.phy_mode_catalog() if m.bound]


class CodecBulk(_Codec):
    """64 KiB payloads through the 20 bound modes without a convolutional
    code: vectorised RS, modulation and line codes, with no Viterbi.

    CC modes are left out because one 64 KiB CC frame takes seconds on
    the pure backend.  A frame takes ~0.3 s, so a run is at least three
    whole passes over the modes (a median per mode) and the tail is p75.
    """

    name = "codec-bulk"
    calibration = "large_numpy"
    tail_q = 75.0
    min_cycles = 3
    lengths = (BULK_PAYLOAD_BYTES,)
    # warming every mode with a full frame would cost a whole pass per set-up
    warm_bytes = 64

    def _modes(self, owpan):
        return [
            m for m in owpan.phy.modes.phy_mode_catalog() if m.bound and m.inner_code is None
        ]


class Sweep(Workload):
    """``sweep_capacity`` over both variables, laser-only and end-to-end,
    with seed-drawn attenuation lists, then ``write_curves_csv``.

    One operation is one variable: the laser-only sweep, the end-to-end
    sweep and both CSVs, like two ``capacity-sweep`` invocations.  Grids
    of 20, 50, 50 and 200 points give operations of three sizes, so the
    median falls among the 50-point sweeps and the p90 among the
    200-point ones rather than on the machine's stalls.
    """

    name = "sweep"
    calibration = "link_budgets"
    item = "point"
    tail_q = 90.0
    grids = (20, 50, 50, 200)
    cycle = 2 * len(grids)  # every grid over both sweep variables
    ops_in_pool = 2 * cycle
    alphas_per_op = 4
    checks_per_op = 4

    def generate(self, names=None) -> None:
        rng = random.Random(self.seed)
        self.pool = []
        for i in range(self.ops_in_pool):
            # at least 0.5 dB/km apart, so neighbouring curves differ; unsorted,
            # as a user may list them
            alphas = tuple(
                round(k + rng.random() / 2, 3) for k in rng.sample(range(120), self.alphas_per_op)
            )
            points = self.grids[i // 2 % len(self.grids)]
            if i % 2 == 0:
                start, stop = 0.0, float(rng.randrange(500, 5001, 50))
                variable = "span_m"
            else:
                start = float(rng.randrange(-10, 11))
                stop = start + rng.randrange(20, 61)
                variable = "pr_over_n0_db"
            sample = [
                (rng.randrange(self.alphas_per_op), rng.randrange(points))
                for _ in range(self.checks_per_op)
            ]
            self.pool.append((variable, alphas, start, stop, points, sample))

    def setup(self, owpan) -> None:
        self.generate()
        self.capacity = owpan.capacity
        self.ops = []
        for variable, alphas, start, stop, points, sample in self.pool:
            params = owpan.params.LinkBudgetParams(attenuation_coeffs=alphas)
            spec = owpan.capacity.SweepSpec(
                owpan.capacity.SweepVariable(variable), start, stop, points
            )
            self.ops.append((params, spec, sample))
        for index in range(self.cycle):
            self.check(index, self.run(index))

    def run(self, index: int):
        params, spec, _ = self.ops[index]
        cap = self.capacity
        laser = cap.sweep_capacity(params, spec)
        e2e = cap.sweep_capacity(params, spec, end_to_end=True)
        texts = []
        for curves in (laser, e2e):
            buf = io.StringIO()
            cap.write_curves_csv(curves, buf)
            texts.append(buf.getvalue())
        return laser, e2e, texts

    def check(self, index: int, output) -> tuple[int, int]:
        params, spec, sample = self.ops[index]
        variable = self.pool[index][0]
        laser, e2e, texts = output
        alphas = params.attenuation_coeffs
        led = led_capacity_ref(params)
        for curves, end_to_end in ((laser, False), (e2e, True)):
            if [c.alpha_db_per_km for c in curves] != list(alphas):
                raise CheckError(f"sweep {index}: curves do not follow the attenuation list")
            if any(len(c.x) != spec.points for c in curves):
                raise CheckError(f"sweep {index}: curve length differs from the grid")
            for a, j in sample:
                x = curves[a].x[j]
                span, pr_db = (x, params.pr_over_n0) if variable == "span_m" else (params.span, x)
                want = laser_capacity_ref(params, alphas[a], span, pr_db)
                if end_to_end:
                    want = min(params.rf_capacity, want, led)
                got = curves[a].capacity_bps[j]
                if abs(got - want) > 1e-12 * abs(want):
                    raise CheckError(
                        f"sweep {index}: capacity {got!r} at x={x!r}, alpha={alphas[a]!r} "
                        f"differs from the closed form {want!r}"
                    )
            by_alpha = sorted(curves, key=lambda c: c.alpha_db_per_km)
            for j in range(spec.points):
                span = by_alpha[0].x[j] if variable == "span_m" else params.span
                strict = not end_to_end and span > 0.0
                caps = [c.capacity_bps[j] for c in by_alpha]
                for lo, hi in zip(caps, caps[1:]):
                    if hi > lo or (strict and hi == lo):
                        raise CheckError(
                            f"sweep {index}: capacity does not fall with attenuation at "
                            f"x={by_alpha[0].x[j]!r}"
                        )
        for curves, text in zip((laser, e2e), texts):
            rows = text.splitlines()
            if len(rows) != 1 + sum(len(c.x) for c in curves):
                raise CheckError(f"sweep {index}: CSV has {len(rows)} lines")
            a, j = sample[0]
            fields = [float(v) for v in rows[1 + a * spec.points + j].split(",")]
            curve = curves[a]
            if fields != [curve.x[j], curve.alpha_db_per_km, curve.capacity_bps[j]]:
                raise CheckError(f"sweep {index}: CSV row disagrees with the curve")
        points = sum(len(c.x) for c in laser) + sum(len(c.x) for c in e2e)
        return points, sum(len(t) for t in texts)


def laser_capacity_ref(p, alpha: float, span: float, pr_db: float) -> float:
    """Closed-form laser-hop capacity: Gaussian beam capture, Beer-Lambert
    loss, squared photocurrent SNR, Shannon capacity."""
    rayleigh = math.pi * p.beam_waist**2 / p.wavelength
    radius_sq = p.beam_waist**2 * (1.0 + (span / rayleigh) ** 2)
    capture = -math.expm1(-2.0 * p.detector_area / (math.pi * radius_sq))
    transmittance = 10.0 ** (-alpha * (span / 1000.0) / 10.0)
    photo = p.laser_responsivity * transmittance * capture
    snr = photo * photo * 10.0 ** (pr_db / 10.0) / p.bandwidth
    return p.bandwidth * math.log1p(snr) / _LN2


def led_capacity_ref(p) -> float:
    """Closed-form LED-hop capacity: Lambertian LOS plus diffuse gain."""
    if abs(p.irradiance_angle) >= math.pi / 2 or abs(p.incidence_angle) >= math.pi / 2:
        los = 0.0
    else:
        m = -_LN2 / math.log(math.cos(p.half_intensity_angle))
        los = (
            (m + 1.0) * p.pd_area / (2.0 * math.pi * p.led_distance**2)
            * math.cos(p.irradiance_angle) ** m * math.cos(p.incidence_angle)
        )
    rho = p.wall_reflectivity
    diffuse = p.pd_area / p.room_area * rho / (1.0 - rho)
    photo = p.pd_responsivity * (los + diffuse)
    snr = photo * photo * 10.0 ** (p.pr_over_n0 / 10.0) / p.bandwidth
    return p.bandwidth * math.log1p(snr) / _LN2


class Netsim(Workload):
    """Seeded relay trees of 11 nodes with RF, FSO and VLC links, 15
    Poisson downlink flows of 64, 512 and 1500 B packets and one
    saturating uplink flow whose second hop is slower than its first, so
    its backlog grows.

    One operation parses a config text, simulates it and writes the
    metrics CSV, like ``owpan simulate``.  The pool holds four networks
    simulated for 0.05, 0.2, 0.2 and 0.6 s, so the median falls among the
    0.2 s runs and the p90 among the 0.6 s ones rather than on the
    machine's stalls.
    """

    name = "netsim"
    calibration = "heap_events"
    item = "packet"
    tail_q = 90.0
    durations_s = (0.05, 0.2, 0.2, 0.6)
    cycle = len(durations_s)

    def generate(self, names=None) -> None:
        rng = random.Random(self.seed)
        self.pool = [network_config(rng.randrange(1 << 30), d) for d in self.durations_s]

    def setup(self, owpan) -> None:
        self.generate()
        self.config = owpan.netsim.config
        self.engine = owpan.netsim.engine
        self.packet_bytes = []
        self.digests = []
        for index, text in enumerate(self.pool):
            config = self.config.parse_network_config(text)
            self.packet_bytes.append([f.packet_bytes for f in config.flows])
            metrics, csv = self.run(index)
            self.digests.append(hashlib.sha256(csv.encode()).hexdigest())
            self.check(index, (metrics, csv))
        # the counts reported by the traced run are the longest simulation's
        self.reference = metrics

    def run(self, index: int):
        config = self.config.parse_network_config(self.pool[index])
        metrics = self.engine.run_simulation(
            config.topology, config.flows, config.duration, seed=config.seed
        )
        buf = io.StringIO()
        self.engine.write_metrics_csv(metrics, buf)
        return metrics, buf.getvalue()

    def check(self, index: int, output) -> tuple[int, int]:
        metrics, text = output
        for f in metrics.flows:
            if f.delivered + f.dropped != f.injected:
                raise CheckError(f"flow {f.name}: delivered + dropped != injected")
        for link in metrics.links:
            if not 0.0 <= link.utilization <= 1.0:
                raise CheckError(f"link{link.index}: utilisation {link.utilization!r}")
        if hashlib.sha256(text.encode()).hexdigest() != self.digests[index]:
            raise CheckError(f"network {index}: metrics CSV differs from its first run")
        sizes = self.packet_bytes[index]
        return metrics.injected, sum(f.injected * size for f, size in zip(metrics.flows, sizes))


# Each packet size carries this many packets per second in total, split
# unevenly over its flows, so every seed offers the same packet load.
_PACKETS_PER_S_PER_SIZE = 1200.0
_TREE = (
    ("r1", "gw"), ("r2", "gw"),
    ("ap1", "r1"), ("ap2", "r1"), ("ap3", "r2"),
    ("ud1", "ap1"), ("ud2", "ap1"), ("ud3", "ap2"), ("ud4", "ap3"), ("ud5", "ap3"),
)
_KINDS = {"r": "Relay", "ap": "VlcAccessPoint", "ud": "UserDevice"}


def network_config(seed: int, duration_s: float) -> str:
    """Config text for a relay tree of fixed shape: the seed draws link
    technologies, capacities and delays, flow destinations and rates.

    Trunks are FSO at 1-2.5 Gbps, access uplinks RF or laser VLC at 24-54
    Mbps, user links LED or laser VLC at 72-96 Mbps.  Every Poisson flow
    runs from the gateway down to a user (three hops); the saturating
    flow runs up from a user on a 96 Mbps link into a 48 Mbps access hop.
    """
    rng = random.Random(seed)
    users = [child for child, _ in _TREE if child.startswith("ud")]
    saturating = rng.choice(users)
    # a fixed bottleneck keeps the share of the backlog that completes the
    # same for every seed
    bottleneck = dict(_TREE)[saturating]
    lines = [f"# owpan benchmark network, seed {seed}", "node gw kind=Relay caps=FSO"]
    for child, parent in _TREE:
        kind = _KINDS[child.rstrip("0123456789")]
        lines.append(f"node {child} kind={kind} caps=FSO,RF,VLC-LED protocols=ieee802.15.7")
        if child.startswith("r"):
            tech, cap = "FSO", rng.choice(("1Gbps", "2.5Gbps"))
            delay = f"{rng.randrange(1, 20)}us"
        elif child.startswith("ap"):
            tech, cap = rng.choice(("RF", "VLC-LD")), rng.choice(("24Mbps", "36Mbps", "54Mbps"))
            if child == bottleneck:
                cap = "48Mbps"
            delay = f"{rng.randrange(10, 500)}ns"
        else:
            tech = rng.choice(("VLC-LED", "VLC-LD"))
            cap = "96Mbps" if child == saturating else rng.choice(("72Mbps", "96Mbps"))
            delay = f"{rng.randrange(5, 50)}ns"
        lines.append(f"link {child} {parent} tech={tech} capacity={cap} delay={delay} duplex=yes")
    sizes = [64, 512, 1500] * 5
    rng.shuffle(sizes)
    weights = [rng.uniform(0.5, 1.5) for _ in sizes]
    for i, size in enumerate(sizes):
        group = sum(w for w, s in zip(weights, sizes) if s == size)
        bps = _PACKETS_PER_S_PER_SIZE * weights[i] / group * size * 8
        lines.append(f"flow f{i} gw {rng.choice(users)} rate={bps!r}bps packet={size}")
    lines.append(f"flow sat {saturating} gw rate=saturate packet=1500")
    lines.append(f"sim duration={duration_s} seed={rng.randrange(1, 1 << 30)}")
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (CodecShort, CodecBulk, Sweep, Netsim)}
