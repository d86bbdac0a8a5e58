"""Deterministic channel gains for the two optical hops of a W-OWPAN.

The indoor hop is a generalized-Lambertian LED downlink with a line-of-sight
component and a single-bounce diffuse component; the outdoor hop is a narrow
laser beam attenuated by the Beers-Lambert law and truncated by the finite
receiver aperture.  The LED-hop functions read the validated, frozen
:class:`~owpan.params.LinkBudgetParams`, which holds every range rule of
their inputs.  Everything here is a pure function, so concurrent use needs
no locking.

Internally all quantities are SI (m, m^2, rad); attenuation coefficients
are the lone exception and stay in dB/km, matching how they are normally
quoted.  The laser-hop functions also take numpy arrays, which
broadcast against each other, and scalars share their arithmetic: every
power is a numpy ufunc, so a scalar call returns the float64 bits of the
matching element of an array call.  Each is its input checks, then one
unchecked arithmetic core (the ``_``-prefixed functions below), and a check
reads an array's every element as it reads a scalar: a Python float by a
Python comparison, an array by one method reduction.  :func:`fso_gain`
checks each of its inputs once, where it enters: the waist, wavelength and
span before the beam radius, the attenuation before the transmittance, the
detector area before the capture fraction.  A NaN input is rejected where
it surfaces, in the transmittance or the capture fraction, which must lie
in [0, 1].  :mod:`owpan.capacity` builds on the same checks and cores.
"""

from __future__ import annotations

import math

import numpy as np

from .params import LinkBudgetParams, _real

__all__ = [
    "ChannelGain",
    "lambertian_order",
    "los_gain",
    "diffuse_gain",
    "beers_lambert_transmittance",
    "gaussian_beam_radius",
    "fso_capture_fraction",
    "fso_gain",
]


class ChannelGain(float):
    """Dimensionless optical power gain, constrained to [0, 1]."""

    def __new__(cls, value: float) -> "ChannelGain":
        value = _real(value, "channel gain", ValueError)
        _check_gain(value)
        return super().__new__(cls, value)


def lambertian_order(half_intensity_angle: float) -> float:
    """Lambertian mode number m = -ln 2 / ln(cos(phi_half)).

    m = 1 for the ideal 60 degree half-intensity source and grows without
    bound as the beam narrows.
    """
    if not 0.0 < half_intensity_angle < math.pi / 2:
        raise ValueError(
            f"half-intensity angle must lie in (0, pi/2), got {half_intensity_angle!r}"
        )
    return -math.log(2.0) / math.log(math.cos(half_intensity_angle))


def los_gain(p: LinkBudgetParams) -> ChannelGain:
    """Line-of-sight gain of the generalized-Lambertian LED link.

    gain = (m+1) A / (2 pi d^2) * cos^m(irradiance) * cos(incidence),
    clamped to zero once either angle reaches 90 degrees.
    """
    if abs(p.irradiance_angle) >= math.pi / 2 or abs(p.incidence_angle) >= math.pi / 2:
        return ChannelGain(0.0)
    m = lambertian_order(p.half_intensity_angle)
    gain = (
        (m + 1.0)
        * p.pd_area
        / (2.0 * math.pi * p.led_distance**2)
        * math.cos(p.irradiance_angle) ** m
        * math.cos(p.incidence_angle)
    )
    return ChannelGain(gain)


def diffuse_gain(p: LinkBudgetParams) -> ChannelGain:
    """Single-bounce diffuse gain (A_pd / A_room) * rho / (1 - rho)."""
    rho = p.wall_reflectivity
    return ChannelGain(p.pd_area / p.room_area * rho / (1.0 - rho))


def _any(mask) -> bool:
    """Whether a check's mask holds anywhere.  A comparison of scalars gives
    a bool or a numpy bool, read as it is; an array mask is reduced by its
    own method, without the dispatch of ``np.any``."""
    return mask.any() if type(mask) is np.ndarray else mask


def _first_bad(value, ok):
    """None where a check's mask ``ok``, read as :func:`_any` reads a mask,
    holds everywhere; else, for a range error to name, the first element of
    ``value`` where ``ok`` fails (a scalar is its own) as a Python number."""
    if ok.all() if type(ok) is np.ndarray else ok:
        return None
    return np.asarray(value)[np.logical_not(ok)][0].item()


def _check_gain(value) -> None:
    """The [0, 1] rule of every channel gain, a scalar's or an array's."""
    bad = _first_bad(value, (0.0 <= value) & (value <= 1.0))
    if bad is not None:
        raise ValueError(f"channel gain outside [0, 1], got {bad!r}")


def _gain(value) -> ChannelGain | np.ndarray:
    """A core's gain after the [0, 1] check: a scalar as :class:`ChannelGain`,
    an array as it is."""
    if np.ndim(value) == 0:
        return ChannelGain(value)
    _check_gain(value)
    return value


# Input checks.  A NaN passes each of them; in a gain it surfaces as a NaN
# gain, which the [0, 1] check of _check_gain rejects.


def _check_not_negative(value, name: str) -> None:
    # not < 0, so that a NaN passes
    bad = _first_bad(value, np.logical_not(value < 0.0))
    if bad is not None:
        raise ValueError(f"{name} must be >= 0, got {bad!r}")


def _check_beam(beam_waist, wavelength) -> None:
    if _any(beam_waist <= 0.0) or _any(wavelength <= 0.0):
        raise ValueError("beam waist and wavelength must be strictly positive")


def _check_capture(detector_area, beam_radius) -> None:
    if _any(detector_area <= 0.0) or _any(beam_radius <= 0.0):
        raise ValueError("detector area and beam radius must be strictly positive")


# Arithmetic cores, unchecked, in numpy ufuncs alone.  The public functions
# run them after their checks, under np.errstate: an overflow here is a real
# limit (a beam spread past the largest float captures nothing), as is a
# Rayleigh range that underflows to 0 (the beam spreads at once), and a
# 0 * inf makes a NaN gain that _gain rejects.


def _transmittance(attenuation_db_per_km, span_m):
    return np.power(10.0, -attenuation_db_per_km * (span_m / 1000.0) / 10.0)


def _beam_radius(beam_waist, wavelength, span_m):
    rayleigh = math.pi * np.square(beam_waist) / wavelength
    radius = beam_waist * np.hypot(1.0, span_m / rayleigh)
    if _any(rayleigh == 0.0):
        # span / Rayleigh range is 0 / 0 at the waist, where the radius is the waist
        radius = np.where(span_m == 0.0, beam_waist, radius)
    return float(radius) if radius.ndim == 0 else radius


def _capture_fraction(detector_area, beam_radius):
    return -np.expm1(-2.0 * detector_area / (math.pi * np.square(beam_radius)))


def _laser_gain(attenuation_db_per_km, span_m, detector_area, beam_waist, wavelength):
    """Checks and cores of :func:`fso_gain`, each input checked once, where
    it enters, in the order the public steps check them.  The product needs
    no check, as its factors lie in [0, 1].  The caller holds the np.errstate."""
    _check_beam(beam_waist, wavelength)
    _check_not_negative(span_m, "span")
    radius = _beam_radius(beam_waist, wavelength, span_m)
    _check_not_negative(attenuation_db_per_km, "attenuation")
    transmittance = _gain(_transmittance(attenuation_db_per_km, span_m))
    _check_capture(detector_area, radius)
    return transmittance * _gain(_capture_fraction(detector_area, radius))


def beers_lambert_transmittance(attenuation_db_per_km, span_m) -> ChannelGain | np.ndarray:
    """Atmospheric power transmittance 10^(-alpha L / 10) with L in km."""
    _check_not_negative(attenuation_db_per_km, "attenuation")
    _check_not_negative(span_m, "span")
    with np.errstate(over="ignore", invalid="ignore"):
        return _gain(_transmittance(attenuation_db_per_km, span_m))


def gaussian_beam_radius(beam_waist, wavelength, span_m) -> float | np.ndarray:
    """1/e^2 beam radius after propagating span_m from the waist.

    w(L) = w0 sqrt(1 + (L / zR)^2) with Rayleigh range zR = pi w0^2 / lambda,
    asymptotically w(L) -> theta L with theta = lambda / (pi w0).
    """
    _check_beam(beam_waist, wavelength)
    _check_not_negative(span_m, "span")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _beam_radius(beam_waist, wavelength, span_m)


def fso_capture_fraction(detector_area, beam_radius) -> ChannelGain | np.ndarray:
    """Fraction of a centered Gaussian beam collected by the detector.

    1 - exp(-2 A / (pi w^2)): the on-axis encircled power of a Gaussian
    profile over an aperture of area A, assuming no pointing error.  A
    radius whose square overflows captures 0, one whose square underflows
    captures 1.
    """
    _check_capture(detector_area, beam_radius)
    with np.errstate(over="ignore", divide="ignore"):
        return _gain(_capture_fraction(detector_area, beam_radius))


def fso_gain(
    attenuation_db_per_km, span_m, detector_area, beam_waist, wavelength
) -> ChannelGain | np.ndarray:
    """Laser link gain, transmittance times capture fraction: the one
    composition of the laser hop.  It admits a span of zero, the left
    edge of a distance sweep."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = _laser_gain(attenuation_db_per_km, span_m, detector_area, beam_waist, wavelength)
    return ChannelGain(gain) if np.ndim(gain) == 0 else gain
