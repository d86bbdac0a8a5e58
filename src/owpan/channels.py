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
broadcast against each other, and check every element as they check a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .params import LinkBudgetParams

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
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"channel gain {value!r} outside [0, 1]")
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


def _first_bad(value, bad):
    """``value`` if it is a scalar, else its first element where ``bad`` holds,
    so a range error names one number instead of printing the array."""
    if np.ndim(value) == 0:
        return value
    return np.asarray(value)[bad][0].item()


def _gain(value) -> ChannelGain | np.ndarray:
    """A scalar as :class:`ChannelGain`; an array after the same [0, 1] check."""
    if np.ndim(value) == 0:
        return ChannelGain(value)
    in_range = (0.0 <= value) & (value <= 1.0)
    if not in_range.all():
        raise ValueError(f"channel gain outside [0, 1], got {_first_bad(value, ~in_range)!r}")
    return value


def beers_lambert_transmittance(attenuation_db_per_km, span_m) -> ChannelGain | np.ndarray:
    """Atmospheric power transmittance 10^(-alpha L / 10) with L in km."""
    negative = attenuation_db_per_km < 0.0
    if np.any(negative):
        raise ValueError(
            f"attenuation must be >= 0, got {_first_bad(attenuation_db_per_km, negative)!r}"
        )
    negative = span_m < 0.0
    if np.any(negative):
        raise ValueError(f"span must be >= 0, got {_first_bad(span_m, negative)!r}")
    return _gain(10.0 ** (-attenuation_db_per_km * (span_m / 1000.0) / 10.0))


def gaussian_beam_radius(beam_waist, wavelength, span_m) -> float | np.ndarray:
    """1/e^2 beam radius after propagating span_m from the waist.

    w(L) = w0 sqrt(1 + (L / zR)^2) with Rayleigh range zR = pi w0^2 / lambda,
    asymptotically w(L) -> theta L with theta = lambda / (pi w0).
    """
    if np.any(beam_waist <= 0.0) or np.any(wavelength <= 0.0):
        raise ValueError("beam waist and wavelength must be strictly positive")
    negative = span_m < 0.0
    if np.any(negative):
        raise ValueError(f"span must be >= 0, got {_first_bad(span_m, negative)!r}")
    rayleigh = math.pi * beam_waist**2 / wavelength
    radius = beam_waist * np.hypot(1.0, span_m / rayleigh)
    return float(radius) if np.ndim(radius) == 0 else radius


def fso_capture_fraction(detector_area, beam_radius) -> ChannelGain | np.ndarray:
    """Fraction of a centered Gaussian beam collected by the detector.

    1 - exp(-2 A / (pi w^2)): the on-axis encircled power of a Gaussian
    profile over an aperture of area A, assuming no pointing error.
    """
    if np.any(detector_area <= 0.0) or np.any(beam_radius <= 0.0):
        raise ValueError("detector area and beam radius must be strictly positive")
    return _gain(-np.expm1(-2.0 * detector_area / (math.pi * beam_radius**2)))


def fso_gain(
    attenuation_db_per_km, span_m, detector_area, beam_waist, wavelength
) -> ChannelGain | np.ndarray:
    """Laser link gain, transmittance times capture fraction: the one
    composition of the laser hop.  It admits a span of zero, the left
    edge of a distance sweep."""
    radius = gaussian_beam_radius(beam_waist, wavelength, span_m)
    return _gain(
        beers_lambert_transmittance(attenuation_db_per_km, span_m)
        * fso_capture_fraction(detector_area, radius)
    )

