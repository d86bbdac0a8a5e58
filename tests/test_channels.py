"""Channel gain models: Lambertian LED link and Gaussian-beam laser link.

Numeric expectations were frozen from a high-precision reference
evaluation of the same closed forms (40-digit arithmetic), so the
library is checked against independent values, not against itself.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from owpan.channels import (
    ChannelGain,
    beers_lambert_transmittance,
    diffuse_gain,
    fso_capture_fraction,
    fso_gain,
    gaussian_beam_radius,
    lambertian_order,
    los_gain,
)
from owpan.params import LinkBudgetParams


def default_fso_gain(**overrides):
    base = dict(
        attenuation_db_per_km=5.0,
        span_m=160.0,
        detector_area=100e-6,
        beam_waist=0.588e-3,
        wavelength=1550e-9,
    )
    base.update(overrides)
    return fso_gain(**base)


class TestChannelGainType:
    def test_accepts_unit_interval(self):
        assert ChannelGain(0.0) == 0.0
        assert ChannelGain(1.0) == 1.0
        assert float(ChannelGain(0.25)) == 0.25

    def test_rejects_outside_unit_interval(self):
        for bad in (-1e-9, 1.0000001, 2.0, -5.0):
            with pytest.raises(ValueError):
                ChannelGain(bad)


class TestLambertianOrder:
    def test_frozen_value_at_default_half_angle(self):
        # frozen reference: -ln 2 / ln cos(0.5236)
        assert lambertian_order(0.5236) == pytest.approx(4.81881799712893, rel=1e-12)

    def test_sixty_degrees_gives_order_one(self):
        assert lambertian_order(math.pi / 3) == pytest.approx(1.0, rel=1e-12)

    def test_wide_beam_order_small(self):
        # frozen reference at 1.57 rad is 0.09714, so anything sane is < 0.1
        assert lambertian_order(1.57) < 0.1

    def test_rejects_out_of_range(self):
        for bad in (0.0, math.pi / 2, -0.1, 2.0):
            with pytest.raises(ValueError):
                lambertian_order(bad)

    @given(st.floats(min_value=0.05, max_value=1.55))
    def test_monotone_decreasing_in_half_angle(self, angle):
        assert lambertian_order(angle) >= lambertian_order(angle + 0.01)


class TestLosGain:
    def test_frozen_on_axis_value_for_order_one(self):
        # m = 1, both angles zero: (m+1) A / (2 pi d^2) = 52e-6 / (2 pi 6.25)
        p = LinkBudgetParams(
            half_intensity_angle=math.pi / 3, irradiance_angle=0.0, incidence_angle=0.0
        )
        assert los_gain(p) == pytest.approx(1.32416912652457e-6, rel=1e-12)

    def test_default_irradiance_angle_clamps_to_zero(self):
        # 1.7453 rad is past 90 degrees, so the direct path contributes nothing
        assert los_gain(LinkBudgetParams()) == 0.0

    def test_incidence_at_right_angle_clamps_to_zero(self):
        p = LinkBudgetParams(irradiance_angle=0.3, incidence_angle=math.pi / 2)
        assert los_gain(p) == 0.0

    def test_inverse_square_distance(self):
        near = LinkBudgetParams(irradiance_angle=0.2, incidence_angle=0.1, led_distance=2.5)
        far = LinkBudgetParams(irradiance_angle=0.2, incidence_angle=0.1, led_distance=5.0)
        assert los_gain(near) / los_gain(far) == pytest.approx(4.0, rel=1e-12)

    def test_even_in_both_angles(self):
        pos = LinkBudgetParams(irradiance_angle=0.5, incidence_angle=0.3)
        neg = LinkBudgetParams(irradiance_angle=-0.5, incidence_angle=-0.3)
        assert los_gain(pos) == los_gain(neg)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_gain_in_unit_interval(self, irr, inc):
        p = LinkBudgetParams(irradiance_angle=irr, incidence_angle=inc)
        assert 0.0 <= los_gain(p) <= 1.0


class TestDiffuseGain:
    def test_frozen_value_default_room(self):
        # (A_pd/A_room) * rho/(1-rho), 26 mm^2 over 25 m^2 at rho = 0.7
        assert diffuse_gain(LinkBudgetParams()) == pytest.approx(
            2.42666666666667e-6, rel=1e-12
        )

    def test_zero_reflectivity_kills_path(self):
        assert diffuse_gain(LinkBudgetParams(wall_reflectivity=0.0)) == 0.0

    def test_monotone_in_reflectivity(self):
        gains = [
            diffuse_gain(LinkBudgetParams(wall_reflectivity=rho))
            for rho in (0.0, 0.2, 0.5, 0.7, 0.9)
        ]
        assert gains == sorted(gains)
        assert gains[0] < gains[-1]


class TestBeersLambert:
    def test_short_span_low_attenuation(self):
        assert beers_lambert_transmittance(5.0, 160.0) == pytest.approx(
            0.831763771102671, rel=1e-12
        )

    def test_short_span_high_attenuation(self):
        assert beers_lambert_transmittance(80.0, 160.0) == pytest.approx(
            0.0524807460249773, rel=1e-12
        )

    def test_zero_span_is_unity(self):
        assert beers_lambert_transmittance(80.0, 0.0) == 1.0

    def test_zero_attenuation_is_unity(self):
        assert beers_lambert_transmittance(0.0, 123456.0) == 1.0

    def test_multiplicative_in_span(self):
        a = beers_lambert_transmittance(20.0, 700.0)
        b = beers_lambert_transmittance(20.0, 300.0)
        c = beers_lambert_transmittance(20.0, 1000.0)
        assert a * b == pytest.approx(c, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    def test_transmittance_in_unit_interval(self, alpha, span):
        t = beers_lambert_transmittance(alpha, span)
        assert 0.0 <= t <= 1.0


class TestGaussianBeam:
    def test_frozen_radius_at_link_span(self):
        w = gaussian_beam_radius(0.588e-3, 1550e-9, 160.0)
        assert w == pytest.approx(0.134254436925566, rel=1e-12)

    def test_waist_at_zero(self):
        assert gaussian_beam_radius(0.588e-3, 1550e-9, 0.0) == 0.588e-3

    def test_far_field_matches_divergence_asymptote(self):
        # the millimetre waist puts the Rayleigh range at 0.7 m, so 160 m
        # is deep far field: w(L) and theta*L agree to within 1e-4
        w0, lam, span = 0.588e-3, 1550e-9, 160.0
        theta = lam / (math.pi * w0)
        w = gaussian_beam_radius(w0, lam, span)
        assert abs(w - theta * span) / w < 1e-4

    def test_hyperbolic_identity(self):
        # w(L)^2 = w0^2 + (theta L)^2 exactly when theta = lambda/(pi w0)
        w0, lam = 0.588e-3, 1550e-9
        theta = lam / (math.pi * w0)
        for span in (0.0, 0.5, 10.0, 160.0, 2000.0):
            w = gaussian_beam_radius(w0, lam, span)
            assert w**2 == pytest.approx(w0**2 + (theta * span) ** 2, rel=1e-12)

    def test_strictly_increasing_in_span(self):
        radii = [
            gaussian_beam_radius(0.588e-3, 1550e-9, span)
            for span in (0.0, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize(
        "w0, lam", [(0.0, 1550e-9), (-0.588e-3, 1550e-9), (0.588e-3, 0.0), (0.588e-3, -1550e-9)]
    )
    def test_non_positive_waist_or_wavelength_is_rejected(self, w0, lam):
        message = "^beam waist and wavelength must be strictly positive$"
        with pytest.raises(ValueError, match=message):
            gaussian_beam_radius(w0, lam, 160.0)


class TestCaptureFraction:
    def test_frozen_value_at_link_span(self):
        w = gaussian_beam_radius(0.588e-3, 1550e-9, 160.0)
        assert fso_capture_fraction(100e-6, w) == pytest.approx(
            3.525787112516802e-3, rel=1e-10
        )

    def test_frozen_value_at_rounded_radius(self):
        # quick sanity point at w = 0.134 m exactly
        assert fso_capture_fraction(100e-6, 0.134) == pytest.approx(
            3.53916548962035e-3, rel=1e-10
        )

    def test_saturates_at_one_for_huge_detector(self):
        assert fso_capture_fraction(1.0, 1e-4) == pytest.approx(1.0)

    def test_monotone_in_area_and_radius(self):
        assert fso_capture_fraction(2e-4, 0.1) > fso_capture_fraction(1e-4, 0.1)
        assert fso_capture_fraction(1e-4, 0.2) < fso_capture_fraction(1e-4, 0.1)

    @given(
        st.floats(min_value=1e-8, max_value=1.0),
        st.floats(min_value=1e-5, max_value=10.0),
    )
    def test_fraction_in_unit_interval(self, area, radius):
        assert 0.0 <= fso_capture_fraction(area, radius) <= 1.0


class TestFsoLinkGain:
    def test_frozen_value_low_attenuation(self):
        assert default_fso_gain() == pytest.approx(
            2.932621984812173e-3, rel=1e-10
        )

    def test_attenuation_only_scales_transmittance(self):
        lo = default_fso_gain(attenuation_db_per_km=5.0)
        hi = default_fso_gain(attenuation_db_per_km=80.0)
        expected = beers_lambert_transmittance(80.0, 160.0) / beers_lambert_transmittance(
            5.0, 160.0
        )
        assert hi / lo == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_attenuation(self):
        gains = [
            default_fso_gain(attenuation_db_per_km=a) for a in (5, 20, 50, 80)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_lossless_limit(self):
        gain = default_fso_gain(attenuation_db_per_km=0.0, detector_area=100.0, span_m=1.0)
        assert gain == pytest.approx(1.0, rel=1e-6)


class TestArrayInputs:
    """The laser-hop functions broadcast over arrays; a sweep is one call."""

    ALPHAS = np.array([[0.0], [5.0], [37.5], [80.0], [150.0]])
    SPANS = np.array([0.0, 0.5, 10.0, 160.0, 777.7, 2000.0, 5000.0])
    W0, LAM = 0.588e-3, 1550e-9

    def scalar_grid(self, f):
        return np.array(
            [[f(a, s) for s in self.SPANS.tolist()] for a in self.ALPHAS.ravel().tolist()]
        )

    def test_transmittance_matches_scalar_calls(self):
        got = beers_lambert_transmittance(self.ALPHAS, self.SPANS)
        assert got.shape == (5, 7)
        np.testing.assert_array_equal(got, self.scalar_grid(beers_lambert_transmittance))

    def test_beam_radius_matches_scalar_calls(self):
        got = gaussian_beam_radius(self.W0, self.LAM, self.SPANS)
        want = [gaussian_beam_radius(self.W0, self.LAM, s) for s in self.SPANS.tolist()]
        np.testing.assert_array_equal(got, np.array(want))

    def test_capture_fraction_matches_scalar_calls(self):
        areas = np.array([[1e-8], [100e-6], [1.0]])
        radii = np.array([1e-5, 0.134, 3.0, 10.0])
        got = fso_capture_fraction(areas, radii)
        want = [[fso_capture_fraction(a, r) for r in radii.tolist()] for a in areas.ravel().tolist()]
        np.testing.assert_array_equal(got, np.array(want))

    def test_link_gain_matches_scalar_calls(self):
        def scalar(alpha, span):
            return fso_gain(alpha, span, 100e-6, self.W0, self.LAM)

        got = fso_gain(self.ALPHAS, self.SPANS, 100e-6, self.W0, self.LAM)
        np.testing.assert_array_equal(got, self.scalar_grid(scalar))

    def test_scalar_calls_keep_scalar_types(self):
        assert type(beers_lambert_transmittance(5.0, 160.0)) is ChannelGain
        assert type(gaussian_beam_radius(self.W0, self.LAM, 160.0)) is float
        assert type(fso_capture_fraction(100e-6, 0.134)) is ChannelGain
        assert type(fso_gain(5.0, 160.0, 100e-6, self.W0, self.LAM)) is ChannelGain
        assert type(default_fso_gain()) is ChannelGain

    def test_one_negative_element_is_rejected(self):
        spans = np.array([0.0, 10.0, -1e-9, 100.0])
        with pytest.raises(ValueError, match="span"):
            beers_lambert_transmittance(5.0, spans)
        with pytest.raises(ValueError, match="span"):
            gaussian_beam_radius(self.W0, self.LAM, spans)
        with pytest.raises(ValueError, match="span"):
            fso_gain(5.0, spans, 100e-6, self.W0, self.LAM)
        with pytest.raises(ValueError, match="attenuation"):
            beers_lambert_transmittance(np.array([5.0, -0.5]), 160.0)
        with pytest.raises(ValueError, match="strictly positive"):
            fso_capture_fraction(100e-6, np.array([0.1, 0.0]))

    def test_nan_gain_is_rejected_in_arrays_as_in_scalars(self):
        with pytest.raises(ValueError, match="outside"):
            beers_lambert_transmittance(5.0, math.nan)
        with pytest.raises(ValueError, match="outside"):
            beers_lambert_transmittance(5.0, np.array([160.0, math.nan]))


class TestBeamPastTheLargestFloat:
    """A beam radius whose square overflows captures nothing.  A Python
    float's square raised OverflowError there, and numpy's warned."""

    @pytest.mark.parametrize("radius", [1.4e154, 1e200, 1.7e308])
    def test_capture_fraction_is_zero(self, radius):
        assert fso_capture_fraction(100e-6, radius) == 0.0
        assert fso_capture_fraction(100e-6, np.array([0.134, radius])).tolist() == [
            fso_capture_fraction(100e-6, 0.134),
            0.0,
        ]

    def test_link_gain_is_zero(self):
        assert fso_gain(0.0, 1e158, 100e-6, 0.588e-3, 1550e-9) == 0.0
        spans = np.array([160.0, 1e158, 1e308])
        gains = fso_gain(np.array([[0.0], [5.0]]), spans, 100e-6, 0.588e-3, 1550e-9)
        assert gains[:, 1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert (gains[:, 0] > 0.0).all()

    def test_radius_past_the_largest_float_is_inf(self):
        # span / Rayleigh range overflows for a Rayleigh range below 1 m
        assert gaussian_beam_radius(1e-6, 1e-6, np.array([1e308])).tolist() == [math.inf]

    def test_zero_times_infinite_loss_is_a_gain_error_not_a_warning(self):
        # 0 dB/km over an infinite span: numpy's 0 * inf warned before the
        # [0, 1] check could name the NaN
        for alpha, span in ((0.0, np.array([math.inf])), (np.array([math.inf]), 0.0)):
            with pytest.raises(ValueError, match=r"^channel gain outside \[0, 1\], got nan$"):
                beers_lambert_transmittance(alpha, span)
            with pytest.raises(ValueError, match=r"^channel gain outside \[0, 1\], got nan$"):
                fso_gain(alpha, span, 100e-6, 0.588e-3, 1550e-9)


class TestExtremeBeamWaists:
    """Every beam waist gives a gain, with no bare arithmetic error and no
    warning.  A 1e-170 m waist's Rayleigh range underflows to 0, so past the
    waist its beam spreads at once, and at the waist, where span / Rayleigh
    range is 0 / 0, the radius is the waist; a 1e155 m waist's square
    overflows."""

    SPANS = [0.0, 160.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "w0, radii, gains",
        [(1e-170, [1e-170, math.inf], [1.0, 0.0]), (1e155, [1e155, 1e155], [0.0, 0.0])],
    )
    def test_radius_and_gain(self, w0, radii, gains):
        transmittance = beers_lambert_transmittance(0.0, np.array(self.SPANS)).tolist()
        assert [gaussian_beam_radius(w0, 1550e-9, s) for s in self.SPANS] == radii
        assert gaussian_beam_radius(w0, 1550e-9, np.array(self.SPANS)).tolist() == radii
        assert [fso_gain(0.0, s, 100e-6, w0, 1550e-9) for s in self.SPANS] == gains
        got = fso_gain(np.array([[0.0], [5.0]]), np.array(self.SPANS), 100e-6, w0, 1550e-9)
        assert got[0].tolist() == [t * g for t, g in zip(transmittance, gains)] == gains

    @pytest.mark.filterwarnings("error")
    def test_a_radius_whose_square_underflows_captures_everything(self):
        assert fso_capture_fraction(100e-6, 1e-170) == 1.0
        assert fso_capture_fraction(100e-6, np.array([1e-170, 0.134])).tolist() == [
            1.0,
            fso_capture_fraction(100e-6, 0.134),
        ]


class TestParamValidation:
    def test_indoor_rejects_reflectivity_of_one(self):
        with pytest.raises(ValueError, match="wall_reflectivity"):
            LinkBudgetParams(wall_reflectivity=1.0)

    def test_indoor_rejects_nonpositive_area(self):
        with pytest.raises(ValueError, match="pd_area"):
            LinkBudgetParams(pd_area=0.0)

    def test_replace_revalidates(self):
        p = LinkBudgetParams()
        with pytest.raises(ValueError):
            replace(p, led_distance=-1.0)
