"""SNR composition, Shannon capacity, cascading, and the two sweeps."""

import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from owpan import capacity
from owpan.capacity import (
    CSV_HEADER,
    CapacityCurve,
    SweepSpec,
    SweepVariable,
    cascade_capacity,
    electrical_snr,
    indoor_link_capacity,
    link_capacity,
    outdoor_link_capacity,
    sweep_capacity,
    write_curves_csv,
)
from owpan.channels import (
    beers_lambert_transmittance,
    fso_capture_fraction,
    fso_gain,
    gaussian_beam_radius,
)
from owpan.params import LinkBudgetParams


class TestElectricalSnr:
    def test_zero_gain_zero_snr(self):
        assert electrical_snr(pr_over_n0_db=30.0, responsivity=0.8, channel_gain=0.0) == 0.0

    def test_identity_composition(self):
        snr = electrical_snr(
            pr_over_n0_db=0.0, responsivity=1.0, channel_gain=1.0, bandwidth=1.0
        )
        assert snr == 1.0

    def test_ten_db_is_a_factor_of_ten(self):
        lo = electrical_snr(pr_over_n0_db=20.0, responsivity=0.8, channel_gain=0.3)
        hi = electrical_snr(pr_over_n0_db=30.0, responsivity=0.8, channel_gain=0.3)
        assert hi / lo == pytest.approx(10.0, rel=1e-12)

    def test_responsivity_gain_product_squared(self):
        a = electrical_snr(pr_over_n0_db=10.0, responsivity=0.5, channel_gain=0.8)
        b = electrical_snr(pr_over_n0_db=10.0, responsivity=0.8, channel_gain=0.5)
        assert a == pytest.approx(b, rel=1e-12)

    @given(
        st.floats(min_value=-20.0, max_value=40.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_strictly_increasing_in_db_and_gain(self, db, gain):
        base = electrical_snr(pr_over_n0_db=db, responsivity=0.8, channel_gain=gain)
        more_db = electrical_snr(pr_over_n0_db=db + 1.0, responsivity=0.8, channel_gain=gain)
        assert more_db > base
        if gain < 0.99:
            more_gain = electrical_snr(
                pr_over_n0_db=db, responsivity=0.8, channel_gain=gain * 1.01
            )
            assert more_gain > base

    def test_rejects_gain_outside_unit_interval(self):
        with pytest.raises(ValueError):
            electrical_snr(pr_over_n0_db=0.0, responsivity=1.0, channel_gain=1.5)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            electrical_snr(
                pr_over_n0_db=0.0, responsivity=1.0, channel_gain=0.5, bandwidth=0.0
            )

    @pytest.mark.parametrize(
        "db, bad",
        [
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (np.array([10.0, math.nan, math.inf]), "nan"),
        ],
    )
    def test_rejects_non_finite_ratio(self, db, bad):
        with pytest.raises(ValueError, match=f"^pr_over_n0_db must be finite, got {bad}$"):
            electrical_snr(pr_over_n0_db=db, responsivity=0.5, channel_gain=0.5)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10.0, math.nan, 0.5), "responsivity must be finite and >= 0, got nan"),
            ((10.0, math.inf, 0.5), "responsivity must be finite and >= 0, got inf"),
            ((10.0, 0.8, 0.5, math.nan), "bandwidth must be finite and > 0, got nan"),
            ((10.0, 0.8, 0.5, math.inf), "bandwidth must be finite and > 0, got inf"),
        ],
    )
    def test_rejects_non_finite_responsivity_and_bandwidth(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            electrical_snr(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("db", [3082.6, 4000.0, np.array([30.0, 4000.0])])
    def test_rejects_ratio_whose_linear_form_overflows(self, db):
        with pytest.raises(ValueError, match=r"^pr_over_n0_db must be <= 3082.5 dB, got \d"):
            electrical_snr(db, 0.8, 0.5)

    def test_largest_ratio_stays_finite(self):
        assert math.isfinite(electrical_snr(3082.5, 1.0, 1.0, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("db", [3082.0, np.array([3082.0]), np.array([30.0, 3082.0])])
    def test_rejects_snr_that_overflows(self, db):
        # the ratio is in range, but a responsivity of 10 A/W takes the SNR past
        # the largest float; the message names the first offending element
        with pytest.raises(
            ValueError,
            match=r"^snr overflows at pr_over_n0_db 3082\.0 dB, channel_gain 1\.0, "
            r"responsivity 10\.0 and bandwidth 1\.0$",
        ):
            electrical_snr(db, 10.0, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_square_of_a_huge_photocurrent_scaled_back_down_is_finite(self):
        # (1e200)^2 overflows, but the -4000 dB ratio brings the SNR back to 1
        assert electrical_snr(-4000.0, 1e200, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("db", [3082.0, np.array([30.0, 3082.0])])
    def test_a_wide_band_scales_a_huge_snr_back_down(self, db):
        # 2^2 * 10^308.2 overflows before the 1e307 Hz band divides it back
        # down to about 63
        snr = np.ravel(electrical_snr(db, 2.0, 1.0, 1e307))[-1]
        assert snr == pytest.approx(4.0 * 10.0**1.2, rel=1e-12)
        assert link_capacity(snr, 1e307) == pytest.approx(1e307 * math.log2(1.0 + snr))

    @pytest.mark.filterwarnings("error")
    def test_overflow_fallback_touches_only_non_finite_elements(self):
        snr = electrical_snr(np.array([-4000.0, 10.0]), 1e200, np.array([1.0, 1e-200]), 1.0)
        assert snr[0] == pytest.approx(1.0, rel=1e-12)
        # computed in the direct form, bit for bit
        assert snr[1] == electrical_snr(10.0, 1e200, 1e-200, 1.0)


class TestLinkCapacity:
    def test_zero_snr_zero_capacity(self):
        assert link_capacity(0.0, 10e6) == 0.0

    def test_unity_snr_equals_bandwidth(self):
        assert link_capacity(1.0, 10e6) == pytest.approx(10e6, rel=1e-12)

    def test_snr_three_gives_two_bits(self):
        assert link_capacity(3.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_deeply_attenuated_links_stay_positive(self):
        # log1p keeps capacities above zero far below double-precision 1+x
        assert link_capacity(1e-40, 10e6) > 0.0

    def test_concave_increasing(self):
        caps = [link_capacity(s, 1e6) for s in (1.0, 2.0, 3.0, 4.0)]
        assert all(a < b for a, b in zip(caps, caps[1:]))
        # concavity: equal snr steps give diminishing capacity gains
        diffs = [b - a for a, b in zip(caps, caps[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            link_capacity(-0.5, 1e6)

    @pytest.mark.parametrize(
        "snr, message",
        [
            (math.nan, "finite, got nan"),
            (math.inf, "finite, got inf"),
            (-math.inf, ">= 0, got -inf"),
            (np.array([1.0, math.nan, -1.0]), "finite, got nan"),
            (np.array([2.0, -1.0, math.inf]), ">= 0, got -1.0"),
            (np.array([[0.0], [math.inf]]), "finite, got inf"),
        ],
    )
    def test_rejects_non_finite_snr(self, snr, message):
        with pytest.raises(ValueError, match=f"^snr must be {message}$"):
            link_capacity(snr, 1e6)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        message = f"^bandwidth must be finite and > 0, got {bandwidth}$"
        with pytest.raises(ValueError, match=message):
            link_capacity(1.0, bandwidth)


class TestCascade:
    def test_min_rule(self):
        assert cascade_capacity([3.0, 5.0, 2.0]) == 2.0

    def test_singleton(self):
        assert cascade_capacity([7.5]) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cascade_capacity([])

    @pytest.mark.parametrize("caps", [[1.0, math.nan], [math.nan, 1.0], [-1.0, 2.0]])
    def test_nan_and_negative_rejected_in_any_order(self, caps):
        with pytest.raises(ValueError, match="^capacities must be >= 0$"):
            cascade_capacity(caps)

    def test_infinite_capacity_allowed(self):
        assert cascade_capacity([math.inf, 2.0]) == 2.0
        assert cascade_capacity([math.inf]) == math.inf

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=8))
    def test_permutation_invariant_and_bounded(self, caps):
        c = cascade_capacity(caps)
        assert c == cascade_capacity(sorted(caps))
        assert all(c <= x for x in caps)


class TestLinkCapacities:
    def test_outdoor_matches_manual_composition(self):
        p = LinkBudgetParams()
        gain = beers_lambert_transmittance(5.0, p.span) * fso_capture_fraction(
            p.detector_area, gaussian_beam_radius(p.beam_waist, p.wavelength, p.span)
        )
        snr = (p.laser_responsivity * gain) ** 2 * 10 ** (p.pr_over_n0 / 10) / p.bandwidth
        expected = p.bandwidth * math.log1p(snr) / math.log(2)
        assert outdoor_link_capacity(p, 5.0) == pytest.approx(expected, rel=1e-12)

    def test_outdoor_accepts_zero_span(self):
        p = LinkBudgetParams()
        c0 = outdoor_link_capacity(p, 80.0, span=0.0)
        assert c0 > outdoor_link_capacity(p, 80.0, span=1.0)

    def test_indoor_independent_of_attenuation(self):
        p = LinkBudgetParams()
        assert indoor_link_capacity(p) > 0.0

    def test_scaling_responsivity_against_gain_cancels(self):
        # capacity depends only on the responsivity * gain product
        a = electrical_snr(pr_over_n0_db=12.0, responsivity=0.4, channel_gain=0.6)
        b = electrical_snr(pr_over_n0_db=12.0, responsivity=0.8, channel_gain=0.3)
        assert link_capacity(a, 1e7) == pytest.approx(link_capacity(b, 1e7), rel=1e-12)


# spans where pi times the squared beam radius (the radius is about 8.4e-4
# times the span under the default parameters) passes the largest float:
# from 1e157 on the array path warned, from 1e158 on the scalar path's
# square raised OverflowError
_HUGE_SPANS = [1e157, 1e158, 1e200, 1e300, 1.7e308]
_ODD_REALS = [0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf, 3082.5, 3082.6, 1e4]
_REALS = st.one_of(
    st.floats(-20.0, 6000.0), st.sampled_from(_ODD_REALS), st.sampled_from(_HUGE_SPANS)
)


def _outcome(call):
    """A call's floats bit for bit, or its error's type and text.  An
    arithmetic error or a RuntimeWarning (an error under tier-1's filter)
    counts as an outcome too, so that one side cannot raise it alone."""
    try:
        value = call()
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


class TestOneCallMatchesTheSteps:
    """outdoor_link_capacity checks each input once; the public steps check
    all of theirs again.  Both must give the same floats or the same error."""

    @given(st.data())
    def test_outdoor_capacity_equals_the_step_chain(self, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))

        def arg(shape):
            return data.draw(st.one_of(_REALS, arrays(np.float64, shape, elements=_REALS)))

        alpha, span, db = arg((rows, 1)), arg((cols,)), arg((cols,))
        p = LinkBudgetParams()

        def steps():
            # the radius first, as fso_gain takes it, so that errors come in
            # the same order
            radius = gaussian_beam_radius(p.beam_waist, p.wavelength, span)
            gain = beers_lambert_transmittance(alpha, span) * fso_capture_fraction(
                p.detector_area, radius
            )
            snr = electrical_snr(db, p.laser_responsivity, gain, p.bandwidth)
            return link_capacity(snr, p.bandwidth)

        got = _outcome(lambda: outdoor_link_capacity(p, alpha, span=span, pr_over_n0_db=db))
        assert got == _outcome(steps)


def _bits(call):
    """A call's result as float64 bytes, or its error's type and text."""
    try:
        return np.asarray(call(), dtype=np.float64).tobytes()
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


_P = LinkBudgetParams()
# the valid values, 0, -0, the limits from the smallest subnormal to the
# largest float, and the invalid values of _ODD_REALS; plus seeded uniform
# values over [-20, 100), since hypothesis favours round numbers, and every
# pow is exact on those
_POINTS = st.one_of(
    _REALS,
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(-20.0, 100.0)),
    st.sampled_from([5e-324, 1e-170, 1.7976931348623157e308]),
)
_GAINS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 1.0, 5e-324]))
# name: (strategies of the fixed arguments, strategy of the swept one, the
# call with the swept argument last)
_ROWS = {
    "transmittance-alpha": ((_POINTS,), _POINTS, lambda s, v: beers_lambert_transmittance(v, s)),
    "transmittance-span": ((_POINTS,), _POINTS, lambda a, v: beers_lambert_transmittance(a, v)),
    "beam-radius": ((), _POINTS, lambda v: gaussian_beam_radius(_P.beam_waist, _P.wavelength, v)),
    "capture-fraction": ((), _POINTS, lambda v: fso_capture_fraction(_P.detector_area, v)),
    "gain-alpha": (
        (_POINTS,), _POINTS,
        lambda s, v: fso_gain(v, s, _P.detector_area, _P.beam_waist, _P.wavelength),
    ),
    "gain-span": (
        (_POINTS,), _POINTS,
        lambda a, v: fso_gain(a, v, _P.detector_area, _P.beam_waist, _P.wavelength),
    ),
    "snr-ratio": (
        (_GAINS,), _POINTS,
        lambda g, v: electrical_snr(v, _P.laser_responsivity, g, _P.bandwidth),
    ),
    "snr-gain": (
        (_POINTS,), _GAINS,
        lambda db, v: electrical_snr(db, _P.laser_responsivity, v, _P.bandwidth),
    ),
    "capacity": ((), _POINTS, lambda v: link_capacity(v, _P.bandwidth)),
    "outdoor-alpha": (
        (_POINTS, _POINTS), _POINTS,
        lambda s, db, v: outdoor_link_capacity(_P, v, span=s, pr_over_n0_db=db),
    ),
    "outdoor-span": (
        (_POINTS, _POINTS), _POINTS,
        lambda a, db, v: outdoor_link_capacity(_P, a, span=v, pr_over_n0_db=db),
    ),
    "outdoor-ratio": (
        (_POINTS, _POINTS), _POINTS,
        lambda a, s, v: outdoor_link_capacity(_P, a, span=s, pr_over_n0_db=v),
    ),
}


class TestAPointEqualsItsRow:
    """Scalars and arrays share one arithmetic, so a call on one value gives
    the float64 bits of the matching element of the call on a row of values,
    as a sweep makes.  A row with a value that raises alone raises one such
    value's error; the values that pass alone pass as a row."""

    @pytest.mark.parametrize("name", list(_ROWS))
    @settings(max_examples=50)
    @given(data=st.data())
    def test_a_point_equals_its_row(self, name, data):
        fixed_strategies, swept, call = _ROWS[name]
        fixed = [data.draw(strategy) for strategy in fixed_strategies]
        row = data.draw(st.lists(swept, min_size=1, max_size=12))
        points = [_bits(lambda: call(*fixed, v)) for v in row]
        errors = [point for point in points if isinstance(point, tuple)]
        if errors:
            assert _bits(lambda: call(*fixed, np.array(row))) in errors
        passed = [(v, point) for v, point in zip(row, points) if not isinstance(point, tuple)]
        if passed:
            values, bits = zip(*passed)
            assert _bits(lambda: call(*fixed, np.array(values))) == b"".join(bits)


class TestExtremeBeamWaists:
    """Every beam waist ends in a capacity.  A 1e-170 m waist's Rayleigh
    range underflows to 0: at span 0 the beam is the waist and captures all,
    past it the beam spreads at once and captures nothing.  A 1e155 m waist
    squares past the largest float and captures nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w0", [1e-170, 1e155])
    @pytest.mark.parametrize("variable", list(SweepVariable))
    def test_sweep_matches_scalar_calls(self, w0, variable):
        p = replace(LinkBudgetParams(), beam_waist=w0)
        spec = SweepSpec(variable, 0.0, 160.0, points=3)
        for curve in sweep_capacity(p, spec):
            arg = "span" if variable is SweepVariable.SPAN_M else "pr_over_n0_db"
            points = [
                outdoor_link_capacity(p, curve.alpha_db_per_km, **{arg: x}) for x in curve.x
            ]
            assert curve.capacity_bps == tuple(points)
            full = w0 < 1.0 and variable is SweepVariable.SPAN_M
            assert (curve.capacity_bps[0] > 0.0) is full
            assert curve.capacity_bps[1:] == (0.0, 0.0)

    def test_at_the_waist_a_narrow_beam_captures_all(self):
        p = LinkBudgetParams()
        snr = electrical_snr(p.pr_over_n0, p.laser_responsivity, 1.0, p.bandwidth)
        narrow = replace(p, beam_waist=1e-170)
        assert outdoor_link_capacity(narrow, 5.0, span=0.0) == link_capacity(snr, p.bandwidth)


class TestHugeSpans:
    """A span whose beam radius squares past the largest float reads
    capacity 0.0: the scalar path raised OverflowError there, and the array
    path warned of an overflow in square."""

    @pytest.mark.parametrize("span", _HUGE_SPANS)
    def test_scalar_span(self, span):
        assert outdoor_link_capacity(LinkBudgetParams(), 5.0, span=span) == 0.0

    def test_array_span(self):
        spans = np.array([0.0, *_HUGE_SPANS])
        caps = outdoor_link_capacity(LinkBudgetParams(), np.array([[0.0], [5.0]]), span=spans)
        assert caps[:, 1:].tolist() == [[0.0] * len(_HUGE_SPANS)] * 2
        assert caps[:, 0].tolist() == [outdoor_link_capacity(LinkBudgetParams(), 0.0, span=0.0)] * 2

    def test_sweep(self):
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 1e308, points=3)
        for curve in sweep_capacity(LinkBudgetParams(), spec):
            assert curve.capacity_bps[1:] == (0.0, 0.0)


class TestSweeps:
    def test_one_curve_per_attenuation(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.PR_OVER_N0_DB, 0.0, 30.0, points=16)
        curves = sweep_capacity(p, spec)
        assert [c.alpha_db_per_km for c in curves] == [5.0, 20.0, 50.0, 80.0]
        for c in curves:
            assert len(c.x) == 16
            assert c.x[0] == 0.0 and c.x[-1] == 30.0

    def test_snr_sweep_monotone_non_decreasing(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.PR_OVER_N0_DB, 0.0, 30.0, points=50)
        for c in sweep_capacity(p, spec):
            assert (np.diff(c.capacity_bps) >= 0).all()

    def test_span_sweep_monotone_non_increasing(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 2000.0, points=50)
        for c in sweep_capacity(p, spec):
            assert (np.diff(c.capacity_bps) <= 0).all()

    def test_span_sweep_value_ordering_by_attenuation(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 2000.0, points=50)
        caps = [np.asarray(c.capacity_bps) for c in sweep_capacity(p, spec)]
        for lo, hi in zip(caps, caps[1:]):
            assert (lo[1:] >= hi[1:]).all()

    def test_span_sweep_relative_decay_ordered_by_attenuation(self):
        # higher attenuation decays proportionally faster at every step
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 2000.0, points=50)
        caps = [np.asarray(c.capacity_bps) for c in sweep_capacity(p, spec)]
        ratios = [c[1:] / c[:-1] for c in caps]
        for gentle, steep in zip(ratios, ratios[1:]):
            assert (steep < gentle).all()

    def test_all_points_finite_nonnegative(self):
        p = LinkBudgetParams()
        for var, lo, hi in (
            (SweepVariable.PR_OVER_N0_DB, 0.0, 30.0),
            (SweepVariable.SPAN_M, 0.0, 2000.0),
        ):
            for c in sweep_capacity(p, SweepSpec(var, lo, hi, points=40)):
                arr = np.asarray(c.capacity_bps)
                assert np.isfinite(arr).all()
                assert (arr >= 0).all()

    def test_zero_width_sweep(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 160.0, 160.0, points=2)
        for c in sweep_capacity(p, spec):
            assert c.capacity_bps[0] == c.capacity_bps[1]

    def test_end_to_end_caps_at_led_floor(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.PR_OVER_N0_DB, 0.0, 30.0, points=8)
        led = indoor_link_capacity(p)
        for c in sweep_capacity(p, spec, end_to_end=True):
            assert (np.asarray(c.capacity_bps) <= led + 1e-12).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.SPAN_M, 100.0, 50.0, points=10)
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.SPAN_M, 0.0, 100.0, points=1)

    @pytest.mark.parametrize("points", [2.5, np.float64(3.0), "5"])
    def test_spec_rejects_non_integer_points(self, points):
        with pytest.raises(ValueError, match="^points must be an integer, got "):
            SweepSpec(SweepVariable.SPAN_M, 0.0, 1.0, points)

    def test_spec_stores_numpy_integer_points_as_int(self):
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 1.0, np.int64(5))
        assert type(spec.points) is int and spec.points == 5
        assert spec.grid().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


    @pytest.mark.parametrize(
        "start, stop, what",
        [
            ("a", 1.0, "start must be a number, got 'a'"),
            (None, 1.0, "start must be a number, got None"),
            (0.0, np.array([1.0, 2.0]), "stop must be a number, got array("),
        ],
    )
    def test_spec_rejects_bounds_that_are_no_numbers(self, start, stop, what):
        # "a" raised a bare TypeError from math.isfinite
        with pytest.raises(ValueError, match=f"^{re.escape(what)}"):
            SweepSpec(SweepVariable.SPAN_M, start, stop)

    def test_spec_stores_numpy_bounds_as_floats(self):
        # np.float64 bounds were stored as given
        spec = SweepSpec(SweepVariable.SPAN_M, np.float64(0.0), np.int64(4), 5)
        assert (spec.start, spec.stop) == (0.0, 4.0)
        assert type(spec.start) is type(spec.stop) is float

    @pytest.mark.parametrize(
        "start, stop", [(math.nan, 10.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]
    )
    def test_spec_rejects_non_finite_range(self, start, stop):
        with pytest.raises(ValueError, match="sweep range must be finite"):
            SweepSpec(SweepVariable.SPAN_M, start, stop)

def laser_capacity_closed_form(p, alpha, span, pr_db):
    """The laser-hop capacity written out with the math module alone."""
    radius_sq = p.beam_waist**2 * (1.0 + (span * p.wavelength / (math.pi * p.beam_waist**2)) ** 2)
    capture = -math.expm1(-2.0 * p.detector_area / (math.pi * radius_sq))
    transmittance = 10.0 ** (-alpha * span / 10000.0)
    photo = p.laser_responsivity * transmittance * capture
    snr = photo**2 * 10.0 ** (pr_db / 10.0) / p.bandwidth
    return p.bandwidth * math.log1p(snr) / math.log(2.0)


class TestSweepClosedForm:
    """Every point of a sweep against the closed form, to 1e-13 relative."""

    PARAMS = [
        LinkBudgetParams(),
        LinkBudgetParams(
            attenuation_coeffs=(0.0, 12.5, 117.3), span=900.0, pr_over_n0=55.0, rf_capacity=3e6
        ),
    ]
    SPECS = [
        SweepSpec(SweepVariable.SPAN_M, 0.0, 5000.0, points=101),
        SweepSpec(SweepVariable.PR_OVER_N0_DB, -10.0, 60.0, points=71),
    ]

    @pytest.mark.parametrize("params", PARAMS, ids=["defaults", "custom"])
    @pytest.mark.parametrize("spec", SPECS, ids=["span", "pr_n0"])
    @pytest.mark.parametrize("end_to_end", [False, True], ids=["laser", "e2e"])
    def test_every_point(self, params, spec, end_to_end):
        floor = min(params.rf_capacity, indoor_link_capacity(params))
        curves = sweep_capacity(params, spec, end_to_end=end_to_end)
        assert [c.alpha_db_per_km for c in curves] == list(params.attenuation_coeffs)
        for curve in curves:
            assert curve.x == tuple(spec.grid().tolist())
            for x, got in zip(curve.x, curve.capacity_bps):
                assert type(got) is float
                if spec.variable is SweepVariable.SPAN_M:
                    span, pr_db = x, params.pr_over_n0
                else:
                    span, pr_db = params.span, x
                want = laser_capacity_closed_form(params, curve.alpha_db_per_km, span, pr_db)
                if end_to_end:
                    want = min(want, floor)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_span_zero_column_ignores_attenuation(self):
        p = LinkBudgetParams()
        curves = sweep_capacity(p, SweepSpec(SweepVariable.SPAN_M, 0.0, 100.0, points=3))
        at_zero = {c.capacity_bps[0] for c in curves}
        assert at_zero == {outdoor_link_capacity(p, 0.0, span=0.0)}

    def test_one_channel_call_per_sweep(self, monkeypatch):
        calls = {"outdoor": 0, "indoor": 0}

        def counting(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            capacity, "outdoor_link_capacity", counting("outdoor", outdoor_link_capacity)
        )
        monkeypatch.setattr(
            capacity, "indoor_link_capacity", counting("indoor", indoor_link_capacity)
        )
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 2000.0, points=200)
        sweep_capacity(LinkBudgetParams(), spec, end_to_end=True)
        assert calls == {"outdoor": 1, "indoor": 1}
        sweep_capacity(LinkBudgetParams(), spec)
        assert calls == {"outdoor": 2, "indoor": 1}


class TestSweepChecksOnce:
    """A sweep runs the checks of CapacityCurve once for all its curves."""

    SPEC = SweepSpec(SweepVariable.SPAN_M, 0.0, 2000.0, points=50)

    @pytest.mark.parametrize("end_to_end", [False, True])
    def test_curves_equal_those_the_constructor_builds(self, end_to_end):
        curves = sweep_capacity(LinkBudgetParams(), self.SPEC, end_to_end=end_to_end)
        for curve in curves:
            rebuilt = CapacityCurve(
                curve.variable, curve.alpha_db_per_km, curve.x, curve.capacity_bps,
                curve.fixed_params,
            )
            assert rebuilt == curve and hash(rebuilt) == hash(curve)
            assert curve.x is curves[0].x
            assert type(curve.alpha_db_per_km) is float
            assert [type(v) for v in curve.x + curve.capacity_bps] == [float] * 100

    def test_the_grid_is_checked_once_per_sweep(self, monkeypatch):
        grids = []
        monkeypatch.setattr(capacity, "_check_grid", grids.append)
        sweep_capacity(LinkBudgetParams(), self.SPEC)
        assert len(grids) == 1 and len(grids[0]) == 50

    def test_a_grid_that_falls_is_rejected(self):
        class FallingSpec(SweepSpec):
            def grid(self):
                return np.array([0.0, 2.0, 1.0])

        spec = FallingSpec(SweepVariable.SPAN_M, 0.0, 2.0, points=3)
        with pytest.raises(ValueError, match="^sweep grid must be non-decreasing$"):
            sweep_capacity(LinkBudgetParams(), spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_capacities_a_curve_would_reject_are_rejected(self, monkeypatch, bad):
        def outdoor(params, alphas, **grid):
            caps = np.ones((len(params.attenuation_coeffs), self.SPEC.points))
            caps[-1, -1] = bad
            return caps

        monkeypatch.setattr(capacity, "outdoor_link_capacity", outdoor)
        with pytest.raises(ValueError, match="^capacities must be finite and non-negative$"):
            sweep_capacity(LinkBudgetParams(), self.SPEC)


class TestArrayCapacity:
    def test_outdoor_array_rejects_one_negative_element(self):
        p = LinkBudgetParams()
        with pytest.raises(ValueError, match="span"):
            outdoor_link_capacity(p, 5.0, span=np.array([0.0, -1.0, 2.0]))
        with pytest.raises(ValueError, match="attenuation"):
            outdoor_link_capacity(p, np.array([5.0, -2.0]))

    def test_link_capacity_array_rejects_one_negative_snr(self):
        with pytest.raises(ValueError, match="snr"):
            link_capacity(np.array([1.0, -1e-3]), 1e6)

    def test_outdoor_array_rejects_one_non_finite_ratio(self):
        p = LinkBudgetParams()
        for db in (np.array([math.nan, 10.0]), math.inf):
            with pytest.raises(ValueError, match="pr_over_n0_db must be finite"):
                outdoor_link_capacity(p, 5.0, pr_over_n0_db=db)

    def test_array_range_errors_name_the_first_offending_value(self):
        grid = np.linspace(-5.0, 5.0, 200)
        cases = [
            (lambda: link_capacity(grid, 1e6), "snr must be >= 0, got -5.0"),
            (
                lambda: electrical_snr(30.0, 0.8, np.array([0.5, 1.5, 2.0])),
                r"channel gain outside \[0, 1\], got 1.5",
            ),
            (
                lambda: outdoor_link_capacity(LinkBudgetParams(), 5.0, span=grid),
                "span must be >= 0, got -5.0",
            ),
            (
                lambda: outdoor_link_capacity(LinkBudgetParams(), np.array([5.0, -2.0])),
                "attenuation must be >= 0, got -2.0",
            ),
            (
                lambda: outdoor_link_capacity(
                    LinkBudgetParams(), 5.0, span=np.array([160.0, math.nan])
                ),
                r"channel gain outside \[0, 1\], got nan",
            ),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=message + "$"):
                call()

    def test_scalar_calls_return_float(self):
        p = LinkBudgetParams()
        assert type(link_capacity(3.0, 1.0)) is float
        assert type(outdoor_link_capacity(p, 5.0)) is float
        assert type(indoor_link_capacity(p)) is float
        snr = electrical_snr(pr_over_n0_db=30.0, responsivity=0.8, channel_gain=0.5)
        assert type(snr) is float


class TestCsvExport:
    def test_header_and_shape(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 100.0, points=3)
        curves = sweep_capacity(p, spec)
        buf = io.StringIO()
        write_curves_csv(curves, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER == "x,alpha_dBkm,capacity_bps"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 5.0
        assert float(first[2]) > 0.0

    def test_round_trips_through_float(self):
        p = LinkBudgetParams()
        spec = SweepSpec(SweepVariable.SPAN_M, 0.0, 500.0, points=4)
        curves = sweep_capacity(p, spec)
        buf = io.StringIO()
        write_curves_csv(curves, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        flat = [
            (x, c)
            for curve in curves
            for x, c in zip(curve.x, curve.capacity_bps)
        ]
        for (x, c), row in zip(flat, rows):
            assert float(row[0]) == x
            assert float(row[2]) == c


def _reference_csv(curves):
    """The writer's output, one f-string per row."""
    rows = [CSV_HEADER + "\n"]
    for curve in curves:
        for x, c in zip(curve.x, curve.capacity_bps):
            rows.append(f"{x!r},{curve.alpha_db_per_km!r},{c!r}\n")
    return "".join(rows)


def _curve(x, caps, alpha=5.0):
    return CapacityCurve(
        variable=SweepVariable.SPAN_M,
        alpha_db_per_km=alpha,
        x=x,
        capacity_bps=caps,
        fixed_params=LinkBudgetParams(),
    )


class _RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestCsvWriterMatchesReference:
    """The writer against the row-by-row reference, one write per curve."""

    GRID = (0.0, 1e-300, 0.5, 0.5, 2.25)

    def hand_built(self):
        grid = self.GRID
        equal_copy = tuple(list(grid))
        assert equal_copy == grid and equal_copy is not grid
        return [
            _curve(grid, (-0.0, 5e-324, 1e16, 1.0, 0.1), alpha=0.0),
            _curve(grid, (1e16, 1e16, 3.0, 5e-324, -0.0), alpha=12.5),
            _curve(equal_copy, (2.0, 1.0, 0.0, 1e-7, 7.0)),
            _curve((10.0, 20.0), (1.5, 2.5), alpha=117.3),
            _curve((), ()),
            _curve(grid, (0.1, 0.2, 0.3, 0.4, 0.5), alpha=80.0),
        ]

    def sweeps(self):
        p = LinkBudgetParams()
        return sweep_capacity(p, SweepSpec(SweepVariable.SPAN_M, 0.0, 5000.0, 57)) + (
            sweep_capacity(p, SweepSpec(SweepVariable.PR_OVER_N0_DB, -10.0, 60.0, 13), True)
        )

    @pytest.mark.parametrize("source", ["empty", "hand_built", "sweeps"])
    def test_one_write_per_curve_equal_to_reference(self, source):
        curves = [] if source == "empty" else getattr(self, source)()
        stream = _RecordingStream()
        write_curves_csv(curves, stream)
        assert stream.writes[0] == CSV_HEADER + "\n"
        assert stream.writes[1:] == [_reference_csv([c])[len(CSV_HEADER) + 1 :] for c in curves]
        assert "".join(stream.writes) == _reference_csv(curves)

    def test_generator_of_curves(self):
        buf = io.StringIO()
        write_curves_csv((c for c in self.hand_built()), buf)
        assert buf.getvalue() == _reference_csv(self.hand_built())

    def test_extreme_capacities_print_as_repr(self):
        buf = io.StringIO()
        write_curves_csv([_curve((0.0, 1.0, 2.0), (-0.0, 5e-324, 1e16))], buf)
        assert buf.getvalue().splitlines()[1:] == [
            "0.0,5.0,-0.0",
            "1.0,5.0,5e-324",
            "2.0,5.0,1e+16",
        ]


class TestCurveValidation:
    @pytest.mark.parametrize(
        "caps",
        [
            (1.0, math.nan),
            (math.nan, -1.0),
            (math.inf, 1.0),
            (-math.inf,),
            (2.0, -1e-300),
        ],
    )
    def test_rejects_non_finite_or_negative_capacity(self, caps):
        with pytest.raises(ValueError, match="^capacities must be finite and non-negative$"):
            _curve(tuple(float(i) for i in range(len(caps))), caps)

    def test_accepts_equal_neighbours_negative_zero_and_empty(self):
        assert _curve((1.0, 1.0, 2.0), (0.0, -0.0, 3.0)).capacity_bps[1] == 0.0
        assert _curve((), ()).x == ()

    @pytest.mark.parametrize(
        "x", [(0.0, math.nan, 2.0), (0.0, 1.0, math.inf), (-math.inf, 0.0, 1.0), (math.nan,)]
    )
    def test_rejects_non_finite_grid_points(self, x):
        # a NaN that left the order unchanged passed the sort check, and the
        # CSV wrote the row nan,5.0,1.0
        with pytest.raises(ValueError, match="^sweep grid must be finite$"):
            _curve(x, (1.0,) * len(x))

    def test_a_grid_sum_past_the_largest_float_is_no_infinity(self):
        assert _curve((1e308, 1e308), (1.0, 2.0)).x == (1e308, 1e308)

    def test_rejects_non_monotone_x(self):
        with pytest.raises(ValueError, match="^sweep grid must be non-decreasing$"):
            CapacityCurve(
                variable=SweepVariable.SPAN_M,
                alpha_db_per_km=5.0,
                x=(1.0, 0.5),
                capacity_bps=(1.0, 2.0),
                fixed_params=LinkBudgetParams(),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CapacityCurve(
                variable=SweepVariable.SPAN_M,
                alpha_db_per_km=5.0,
                x=(0.0, 1.0),
                capacity_bps=(1.0,),
                fixed_params=LinkBudgetParams(),
            )


class TestCurveStoresFloats:
    """A curve holds Python floats whatever real numbers it was built from,
    so every CSV cell parses as a number."""

    def test_numpy_scalars_ints_and_bools_become_floats(self):
        curve = CapacityCurve(
            SweepVariable.SPAN_M,
            np.float64(5.0),
            (np.float64(0.0), 1, np.int64(2)),
            (np.float32(0.1), 2, True),
            LinkBudgetParams(),
        )
        values = (curve.alpha_db_per_km, *curve.x, *curve.capacity_bps)
        assert [type(v) for v in values] == [float] * 7
        assert type(curve.x) is type(curve.capacity_bps) is tuple
        buf = io.StringIO()
        write_curves_csv([curve], buf)
        assert buf.getvalue().splitlines()[1:] == [
            "0.0,5.0,0.10000000149011612",
            "1.0,5.0,2.0",
            "2.0,5.0,1.0",
        ]

    def test_tuples_of_numpy_floats_become_floats(self):
        # np.float64 subclasses float, yet writes as np.float64(...)
        curve = _curve(tuple(np.linspace(0.0, 1.0, 3)), tuple(np.array([3.0, 2.0, 1.0])))
        assert [type(v) for v in curve.x + curve.capacity_bps] == [float] * 6

    def test_lists_become_tuples(self):
        curve = _curve([0.0, 1.0], [3.0, 2.0])
        assert curve.x == (0.0, 1.0) and curve.capacity_bps == (3.0, 2.0)

    @pytest.mark.parametrize(
        "alpha,x,caps",
        [
            ("5", (0.0,), (1.0,)),
            (5.0, ("0.5", 1.0), (1.0, 2.0)),
            (5.0, (0.0, 1.0), (1.0, None)),
            (5.0, (0.0,), (1j,)),
            (5.0, (0.0,), (np.complex128(1.0),)),
            (5.0, 0.0, 1.0),
            (None, (0.0,), (1.0,)),
        ],
    )
    def test_rejects_values_that_are_no_real_numbers(self, alpha, x, caps):
        with pytest.raises(
            ValueError, match="^alpha_db_per_km, x and capacity_bps must be real numbers$"
        ):
            CapacityCurve(SweepVariable.SPAN_M, alpha, x, caps, LinkBudgetParams())

    def test_a_capacity_sum_past_the_largest_float_is_no_infinity(self):
        assert _curve((0.0, 1.0), (1e308, 1e308)).capacity_bps == (1e308, 1e308)
