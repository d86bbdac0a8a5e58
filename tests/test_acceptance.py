"""Acceptance gate: seven end-to-end checks, one visible PASS/FAIL line each.

Each test prints its verdict through the capture-disabled channel so the
line shows up in plain pytest output, then (on failure) re-raises the
underlying assertion.
"""

import itertools
import random
import time

import numpy as np
import pytest

from owpan import capacity as cap
from owpan.channels import beers_lambert_transmittance
from owpan.cli import main
from owpan.netsim.engine import FlowSpec, run_simulation
from owpan.netsim.topology import (
    BeamShape,
    Link,
    LinkDirection,
    Node,
    NodeKind,
    Technology,
    Topology,
    classify_topology,
)
from owpan.params import LinkBudgetParams
from owpan.phy.fec import RsCode, rs_decode, rs_encode
from owpan.phy.frames import decode_from_chips, encode_frame, encode_to_chips
from owpan.phy.modes import LineCode, data_rate, phy_mode_catalog

UD, AP, RELAY = NodeKind.USER_DEVICE, NodeKind.VLC_ACCESS_POINT, NodeKind.RELAY
HALF = LinkDirection.HALF_OF_DUPLEX_PAIR


def _verdict(capsys, label: str, body) -> None:
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nacceptance {label}: PASS")


# published payload rates for every bound operating mode
PUBLISHED_RATES = {
    "phy1-ook-11k": 11.67e3,
    "phy1-ook-24k": 24.44e3,
    "phy1-ook-48k": 48.89e3,
    "phy1-ook-73k": 73.3e3,
    "phy1-ook-100k": 100e3,
    "phy1-vppm-35k": 35.56e3,
    "phy1-vppm-71k": 71.11e3,
    "phy1-vppm-124k": 124.4e3,
    "phy1-vppm-266k": 266.67e3,
    "phy2-vppm-1m25": 1.25e6,
    "phy2-vppm-2m": 2e6,
    "phy2-vppm-2m5": 2.5e6,
    "phy2-vppm-4m": 4e6,
    "phy2-vppm-5m": 5e6,
    "phy2-ook-6m": 6e6,
    "phy2-ook-9m6": 9.6e6,
    "phy2-ook-12m": 12e6,
    "phy2-ook-19m2": 19.2e6,
    "phy2-ook-24m": 24e6,
    "phy2-ook-38m4": 38.4e6,
    "phy2-ook-48m": 48e6,
    "phy2-ook-76m8": 76.8e6,
    "phy2-ook-96m": 96e6,
}


def test_criterion_1_rate_catalog(capsys):
    """Every bound mode's computed rate hits its published value to 0.5%."""

    def body():
        start = time.perf_counter()
        bound = [m for m in phy_mode_catalog() if m.bound]
        assert {m.name for m in bound} == set(PUBLISHED_RATES)
        for mode in bound:
            want = PUBLISHED_RATES[mode.name]
            got = data_rate(mode)
            assert abs(got - want) <= 0.005 * want, (mode.name, got, want)
        assert time.perf_counter() - start < 1.0

    _verdict(capsys, "1 (rate catalog within 0.5%)", body)


def test_criterion_2_capacity_sweep_shape(capsys):
    """200-point sweeps: rising in receive SNR budget, falling in span,
    with higher attenuation decaying faster at every grid interval
    (log-domain slope ordering) and the steepest initial linear drop."""

    def body():
        start = time.perf_counter()
        params = LinkBudgetParams()
        assert list(params.attenuation_coeffs) == [5.0, 20.0, 50.0, 80.0]

        snr_spec = cap.SweepSpec(cap.SweepVariable.PR_OVER_N0_DB, 0.0, 30.0, 200)
        snr_curves = cap.sweep_capacity(params, snr_spec)
        assert len(snr_curves) == 4
        for curve in snr_curves:
            c = np.asarray(curve.capacity_bps)
            assert c.size == 200
            assert np.all(np.isfinite(c)) and np.all(c > 0)
            assert np.all(np.diff(c) >= 0)  # monotone non-decreasing

        span_spec = cap.SweepSpec(cap.SweepVariable.SPAN_M, 0.0, 2000.0, 200)
        span_curves = cap.sweep_capacity(params, span_spec)
        assert [c.alpha_db_per_km for c in span_curves] == [5.0, 20.0, 50.0, 80.0]
        caps = np.vstack([np.asarray(c.capacity_bps) for c in span_curves])
        assert np.all(np.isfinite(caps)) and np.all(caps > 0)
        # each curve falls monotonically with span
        assert np.all(np.diff(caps, axis=1) <= 0)
        # at every span > 0, more attenuation means strictly less capacity
        assert np.all(np.diff(caps[:, 1:], axis=0) < 0)
        # all curves agree where the medium has no length to act over
        assert np.allclose(caps[:, 0], caps[0, 0], rtol=1e-12)
        # faster drop for higher attenuation, at every interval: the
        # per-interval survival ratio shrinks strictly as alpha grows,
        # i.e. the log-capacity slope magnitudes are ordered by alpha
        ratios = caps[:, 1:] / caps[:, :-1]
        assert np.all(np.diff(ratios, axis=0) < 0)
        # and the first linear finite-difference slope is ordered too
        first_drop = caps[:, 0] - caps[:, 1]
        assert np.all(np.diff(first_drop) > 0)
        assert time.perf_counter() - start < 5.0

    _verdict(capsys, "2 (capacity sweep shape and attenuation ordering)", body)


def test_criterion_3_transmittance_points(capsys):
    """Two fixed medium-loss transmittance values at a 160 m span."""

    def body():
        t5 = beers_lambert_transmittance(5.0, 160.0)
        t80 = beers_lambert_transmittance(80.0, 160.0)
        assert abs(t5 - 0.8318) <= 1e-4, t5
        assert abs(t80 - 0.05248) <= 1e-4, t80

    _verdict(capsys, "3 (Beers-Lambert point values)", body)


def test_criterion_4_codec_suite(capsys):
    """1000 noiseless round trips per bound mode, exhaustive double-symbol
    RS correction, exact DC balance, non-negative waveforms."""

    def body():
        start = time.perf_counter()
        rng = random.Random(20240819)
        for mode in (m for m in phy_mode_catalog() if m.bound):
            for trial in range(1000):
                payload = rng.randbytes(rng.randrange(0, 33))
                chips = encode_to_chips(payload, mode)
                assert decode_from_chips(chips, mode) == payload
                if mode.line_code in (LineCode.MANCHESTER, LineCode.FOUR_B_SIX_B):
                    # both codes place exactly half the chips high
                    assert int(chips.sum()) * 2 == chips.size
                if trial % 200 == 0:
                    frame = encode_frame(payload, mode, dimming=0.4)
                    assert (frame.waveform >= 0.0).all()

        # every 1- and 2-symbol corruption of 100 random codewords
        code = RsCode(15, 11)
        patterns = [np.zeros(15, np.uint8)]
        for p in range(15):
            for v in range(1, 16):
                e = np.zeros(15, np.uint8)
                e[p] = v
                patterns.append(e)
        for p, q in itertools.combinations(range(15), 2):
            for vp in range(1, 16):
                for vq in range(1, 16):
                    e = np.zeros(15, np.uint8)
                    e[p], e[q] = vp, vq
                    patterns.append(e)
        pattern_mat = np.array(patterns)

        nprng = np.random.default_rng(7)
        data = nprng.integers(0, 16, size=(100, 11), dtype=np.uint8)
        codewords = rs_encode(data, code)
        for cw, row in zip(codewords, data):
            decoded = rs_decode(cw[None, :] ^ pattern_mat, code)
            assert (decoded == row).all()

        assert time.perf_counter() - start < 30.0

    _verdict(capsys, "4 (codec suite: round trips, RS budget, DC balance)", body)


def test_criterion_5_cascade_law(capsys):
    """1000 random three-link paths: saturating throughput caps at, and
    closely tracks, the bottleneck capacity."""

    def body():
        rng = random.Random(5150)
        techs = [Technology.RF, Technology.VLC_LD, Technology.VLC_LED]
        for trial in range(1000):
            caps = [rng.uniform(5e6, 100e6) for _ in range(3)]
            nodes = tuple(
                Node(i + 1, k) for i, k in enumerate([UD, RELAY, RELAY, AP])
            )
            links = tuple(
                Link(i + 1, i + 2, techs[i], capacity_bps=c)
                for i, c in enumerate(caps)
            )
            topo = Topology(nodes=nodes, links=links)
            bottleneck = min(caps)
            duration = 400 * 1250 * 8 / bottleneck
            m = run_simulation(topo, [FlowSpec("s", 1, 4)], duration, seed=trial)
            assert m.throughput_bps <= bottleneck * (1 + 1e-9)
            assert m.throughput_bps >= bottleneck * 0.98, (trial, caps)

    _verdict(capsys, "5 (throughput equals bottleneck capacity)", body)


def _duplex(a, b, down, up=None, **kw):
    up = up or down
    return [
        Link(a, b, down, direction=HALF, **kw),
        Link(b, a, up, direction=HALF, **kw),
    ]


def _canonical_topologies():
    p2p = Topology(
        nodes=(Node(1, AP), Node(2, UD)),
        links=(Link(1, 2, Technology.VLC_LED),),
    )
    owpan = Topology(
        nodes=(Node(1, AP), Node(2, UD), Node(3, UD)),
        links=tuple(
            _duplex(1, 2, Technology.VLC_LED, beam=BeamShape.P2MP)
            + _duplex(1, 3, Technology.VLC_LED, beam=BeamShape.P2MP)
        ),
    )
    relayed = Topology(
        nodes=(Node(1, UD), Node(2, RELAY), Node(3, AP)),
        links=(Link(1, 2, Technology.RF), Link(2, 3, Technology.VLC_LD)),
    )
    standalone = Topology(
        nodes=(Node(1, AP), Node(2, UD)),
        links=tuple(_duplex(1, 2, Technology.VLC_LED)),
    )
    aggregate = Topology(
        nodes=(Node(1, AP), Node(2, UD)),
        links=tuple(_duplex(1, 2, Technology.VLC_LED, Technology.RF)),
    )
    multi = Topology(
        nodes=(Node(1, AP), Node(2, UD)),
        links=(Link(1, 2, Technology.VLC_LED, channel_count=4),),
    )
    return [
        ("p2p", p2p, ("non-relayed", "simplex", "n/a", "homogeneous", "single-channel")),
        ("owpan", owpan, ("non-relayed", "duplex", "standalone", "homogeneous", "single-channel")),
        ("relayed", relayed, ("relayed", "simplex", "n/a", "homogeneous", "single-channel")),
        ("standalone", standalone, ("non-relayed", "duplex", "standalone", "homogeneous", "single-channel")),
        ("aggregate", aggregate, ("non-relayed", "duplex", "aggregate", "homogeneous", "single-channel")),
        ("multi-channel", multi, ("non-relayed", "simplex", "n/a", "homogeneous", "multi-channel")),
    ]


def _random_topology(rng: random.Random) -> Topology:
    n = rng.randint(2, 7)
    nodes = [
        Node(
            i + 1,
            rng.choice([UD, AP, RELAY]),
            protocols=frozenset(rng.sample(["a", "b", "c"], rng.randint(0, 2))),
        )
        for i in range(n)
    ]
    links = []
    for _ in range(rng.randint(1, 5)):
        a, b = rng.sample(range(1, n + 1), 2)
        if rng.random() < 0.5:
            links.extend(
                _duplex(a, b, rng.choice(list(Technology)), rng.choice(list(Technology)))
            )
        else:
            links.append(
                Link(
                    a,
                    b,
                    rng.choice(list(Technology)),
                    channel_count=rng.randint(1, 3),
                    scenario=rng.randint(1, 6),
                )
            )
    return Topology(nodes=tuple(nodes), links=tuple(links))


def test_criterion_6_classifier(capsys, readdress):
    """Canonical shapes classify as expected; classification is invariant
    under node/link reordering and re-addressing, 500 random topologies."""

    def body():
        for name, topo, want in _canonical_topologies():
            c = classify_topology(topo)
            got = (c.relaying, c.directionality, c.duplex_kind, c.homogeneity, c.channels)
            assert got == want, (name, got, want)

        for trial in range(500):
            rng = random.Random(trial)
            topo = _random_topology(rng)
            base = classify_topology(topo)
            nodes = list(topo.nodes)
            links = list(topo.links)
            rng.shuffle(nodes)
            rng.shuffle(links)
            shuffled = Topology(nodes=tuple(nodes), links=tuple(links))
            relabeled = readdress(shuffled, trial * 31 + 7)
            assert classify_topology(shuffled) == base
            assert classify_topology(relabeled) == base

    _verdict(capsys, "6 (classifier conformance and invariance)", body)


SIM_CONFIG = """
node ud kind=UserDevice
node relay kind=Relay
node ap kind=VlcAccessPoint
link ud relay tech=RF capacity=54Mbps delay=10ns
link relay ap tech=VLC-LD capacity=30Mbps delay=5ns
flow up ud ap rate=20Mbps packet=1000
flow sat ud relay
sim duration=40ms seed=42
"""


def test_criterion_7_simulate_determinism(capsys, tmp_path):
    """Identical config and seed give byte-identical simulator CSV."""

    def body():
        cfg = tmp_path / "net.cfg"
        cfg.write_text(SIM_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        rc_a = main(["simulate", "--topology", str(cfg), "--output", str(out_a)])
        rc_b = main(["simulate", "--topology", str(cfg), "--output", str(out_b)])
        assert rc_a == rc_b == 0
        a = out_a.read_bytes()
        b = out_b.read_bytes()
        assert a == b
        assert a.startswith(b"kind,name,src,dst,")

    _verdict(capsys, "7 (byte-identical simulation runs)", body)
