"""Electrical SNR, Shannon capacity, and the attenuation-family sweeps.

The chain is: optical channel gain -> photocurrent (gain times
responsivity) -> electrical SNR (squared, since detection converts optical
power to current) -> Shannon capacity.  Cascaded links are limited by their
worst member.  Sweeps produce one curve per configured attenuation
coefficient, over either the received-power budget or the backbone span.

Each public step is its input checks, then one unchecked arithmetic core
(``_snr``, ``_capacity``, and the laser-hop cores of :mod:`owpan.channels`).
The cores use numpy ufuncs alone, so a scalar call returns the float64
bits of the matching element of an array call, such as its sweep row.
The two link capacities check each input once, where it enters, and run
the same cores under one ``np.errstate``.  Their bandwidth and
responsivities were checked when the :class:`~owpan.params.LinkBudgetParams`
was built, and an SNR out of ``_snr`` is finite and >= 0, so neither is
checked again.  :func:`sweep_capacity` runs the checks of
:class:`CapacityCurve` once per sweep, on the shared grid and on the whole
capacity array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .channels import _check_gain, _first_bad, _laser_gain, diffuse_gain, los_gain
from .params import LinkBudgetParams, _integer, _real, _reals

__all__ = [
    "CSV_HEADER",
    "SweepVariable",
    "SweepSpec",
    "CapacityCurve",
    "electrical_snr",
    "link_capacity",
    "cascade_capacity",
    "indoor_link_capacity",
    "outdoor_link_capacity",
    "sweep_capacity",
    "write_curves_csv",
]

CSV_HEADER = "x,alpha_dBkm,capacity_bps"
_LN2 = math.log(2.0)
# the largest Pr/N0 in dB whose linear form 10 ** (dB / 10) is a float:
# about 1.78e308, against a largest float of about 1.80e308
_MAX_DB = 3082.5


class SweepVariable(enum.Enum):
    """What the x axis of a capacity sweep ranges over."""

    PR_OVER_N0_DB = "pr_over_n0_db"
    SPAN_M = "span_m"


@dataclass(frozen=True)
class SweepSpec:
    """Uniform sweep grid: ``points`` samples from ``start`` to ``stop``."""

    variable: SweepVariable
    start: float
    stop: float
    points: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _integer(self.points, "points", ValueError))
        for end in ("start", "stop"):
            object.__setattr__(self, end, _real(getattr(self, end), end, ValueError))
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(
                f"sweep range must be finite, got [{self.start!r}, {self.stop!r}]"
            )
        if self.stop < self.start:
            raise ValueError(
                f"sweep range must not be reversed, got [{self.start!r}, {self.stop!r}]"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class CapacityCurve:
    """One sweep result: capacity (bit/s) over the grid, at one attenuation."""

    variable: SweepVariable
    alpha_db_per_km: float
    x: tuple[float, ...]
    capacity_bps: tuple[float, ...]
    fixed_params: LinkBudgetParams

    def __post_init__(self) -> None:
        try:
            alpha = _real(self.alpha_db_per_km, "alpha_db_per_km", TypeError)
            x = _reals(self.x, "x", TypeError)
            caps = _reals(self.capacity_bps, "capacity_bps", TypeError)
        except TypeError:
            raise ValueError("alpha_db_per_km, x and capacity_bps must be real numbers") from None
        object.__setattr__(self, "alpha_db_per_km", alpha)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "capacity_bps", caps)
        if len(x) != len(caps):
            raise ValueError("x and capacity_bps must have equal length")
        _check_grid(x)
        # a sum of finite values is finite unless it overflows; finiteness is
        # settled before min(), which a NaN would confuse
        finite = math.isfinite(sum(caps)) or all(map(math.isfinite, caps))
        if not finite or (caps and min(caps) < 0.0):
            raise ValueError(_CAPACITY_RULE)

    @classmethod
    def _unchecked(cls, **fields) -> "CapacityCurve":
        """A curve built without :meth:`__post_init__`, for a caller that has
        run its checks on values of the stored types already."""
        curve = object.__new__(cls)
        vars(curve).update(fields)
        return curve


_CAPACITY_RULE = "capacities must be finite and non-negative"


def _check_grid(x: tuple[float, ...]) -> None:
    # finiteness is settled before sorted(), which a NaN would confuse
    if not (math.isfinite(sum(x)) or all(map(math.isfinite, x))):
        raise ValueError("sweep grid must be finite")
    # a stable sort leaves a non-decreasing grid as it is
    if sorted(x) != list(x):
        raise ValueError("sweep grid must be non-decreasing")


def _check_bandwidth(bandwidth: float) -> None:
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")


def _check_ratio(pr_over_n0_db) -> None:
    # > -inf and <= _MAX_DB is finite and <= _MAX_DB, in comparisons alone
    bad = _first_bad(pr_over_n0_db, (-math.inf < pr_over_n0_db) & (pr_over_n0_db <= _MAX_DB))
    if bad is not None:
        rule = f"<= {_MAX_DB} dB" if math.isfinite(bad) else "finite"
        raise ValueError(f"pr_over_n0_db must be {rule}, got {bad!r}")


def _snr(pr_over_n0_db, responsivity, channel_gain, bandwidth):
    """The SNR arithmetic of :func:`electrical_snr`, run on checked inputs
    under np.errstate; it raises only for an SNR past the largest float."""
    photo = responsivity * channel_gain
    snr = photo * photo * np.power(10.0, pr_over_n0_db / 10.0) / bandwidth
    finite = np.isfinite(snr)
    if not finite.all():
        # photo * photo can overflow where a small ratio or a wide band would
        # scale it back down; there, divide a factor photo * sqrt(ratio) first
        amplitude = photo * np.power(10.0, pr_over_n0_db / 20.0)
        snr = np.where(finite, snr, amplitude * (amplitude / bandwidth))[()]
        finite = np.isfinite(snr)
        if not finite.all():
            db, gain = (
                float(np.broadcast_to(v, finite.shape)[~finite][0])
                for v in (pr_over_n0_db, channel_gain)
            )
            raise ValueError(
                f"snr overflows at pr_over_n0_db {db!r} dB, channel_gain {gain!r}, "
                f"responsivity {responsivity!r} and bandwidth {bandwidth!r}"
            )
    return snr


def _capacity(snr, bandwidth):
    """The Shannon arithmetic of :func:`link_capacity`, on a checked SNR."""
    capacity = bandwidth * np.log1p(snr) / _LN2
    return float(capacity) if capacity.ndim == 0 else capacity


def electrical_snr(
    pr_over_n0_db: float | np.ndarray,
    responsivity: float,
    channel_gain: float | np.ndarray,
    bandwidth: float = 10e6,
) -> float | np.ndarray:
    """Post-detection SNR of an intensity-modulated link.

    SNR = (responsivity * gain)^2 * 10^(pr_over_n0/10) / bandwidth.  The
    square is the optical-to-electrical conversion; dividing by bandwidth
    turns the noise density into in-band noise power.  ``pr_over_n0_db`` is
    the received-power to noise-density ratio in dB (so its linear form has
    units of Hz), ``bandwidth`` in Hz.  The ratio and ``channel_gain`` may
    be arrays, which broadcast against each other; every element of the
    ratio must be finite and at most ``_MAX_DB``, so its linear form does
    not overflow, and an SNR past the largest float raises ValueError.
    """
    _check_bandwidth(bandwidth)
    _check_ratio(pr_over_n0_db)
    _check_gain(channel_gain)
    if not 0.0 <= responsivity < math.inf:
        raise ValueError(f"responsivity must be finite and >= 0, got {responsivity!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        snr = _snr(pr_over_n0_db, responsivity, channel_gain, bandwidth)
    return float(snr) if snr.ndim == 0 else snr


def link_capacity(snr: float | np.ndarray, bandwidth: float) -> float | np.ndarray:
    """Shannon capacity B*log2(1 + SNR) in bit/s, element-wise for an array.

    Computed via log1p so deeply attenuated links keep a positive
    capacity instead of rounding to zero; the sweeps' ordering
    properties rely on that.  Every SNR must be finite and >= 0; a NaN or
    infinite one is rejected.
    """
    bad = _first_bad(snr, (snr >= 0.0) & (snr < math.inf))
    if bad is not None:
        raise ValueError(f"snr must be {'>= 0' if bad < 0.0 else 'finite'}, got {bad!r}")
    _check_bandwidth(bandwidth)
    return _capacity(snr, bandwidth)


def cascade_capacity(capacities: Sequence[float]) -> float:
    """Capacity of links in series: the worst link dictates."""
    if len(capacities) == 0:
        raise ValueError("cascade of zero links has no capacity")
    # written as not >= so that a NaN, which compares False, is refused too
    if not all(c >= 0.0 for c in capacities):
        raise ValueError("capacities must be >= 0")
    return min(capacities)


def indoor_link_capacity(params: LinkBudgetParams) -> float:
    """Capacity of the LED downlink at the DC channel gain."""
    gain = float(los_gain(params)) + float(diffuse_gain(params))
    _check_ratio(params.pr_over_n0)
    _check_gain(gain)
    with np.errstate(over="ignore", invalid="ignore"):
        snr = _snr(params.pr_over_n0, params.pd_responsivity, gain, params.bandwidth)
    return _capacity(snr, params.bandwidth)


def outdoor_link_capacity(
    params: LinkBudgetParams,
    alpha_db_per_km: float | np.ndarray,
    span: float | np.ndarray | None = None,
    pr_over_n0_db: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Capacity of the laser backbone at one attenuation coefficient.

    The last three arguments may be arrays, which broadcast against each
    other.  Built on the checks and cores of :func:`~owpan.channels.fso_gain`,
    so a span of exactly zero, the natural left edge of a distance sweep,
    is representable.  A span so long that the beam radius overflows
    captures nothing and reads capacity 0.0, as any span does past a waist
    so narrow that its Rayleigh range underflows to 0.
    """
    if span is None:
        span = params.span
    if pr_over_n0_db is None:
        pr_over_n0_db = params.pr_over_n0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain = _laser_gain(
            alpha_db_per_km, span, params.detector_area, params.beam_waist, params.wavelength
        )
        _check_ratio(pr_over_n0_db)
        snr = _snr(pr_over_n0_db, params.laser_responsivity, gain, params.bandwidth)
    return _capacity(snr, params.bandwidth)


def sweep_capacity(
    params: LinkBudgetParams,
    spec: SweepSpec,
    end_to_end: bool = False,
) -> list[CapacityCurve]:
    """Sweep the backbone capacity over the grid, one curve per attenuation.

    By default the curves show the laser link alone, which is the part the
    swept variables act on.  With ``end_to_end=True`` each point is instead
    min'ed against the (constant) RF and LED link capacities; note the LED
    link is so much weaker under the default parameters that it flattens
    every curve to the same floor.
    """
    grid = spec.grid()
    # one row per attenuation coefficient, one column per grid point
    alphas = np.asarray(params.attenuation_coeffs)[:, np.newaxis]
    if spec.variable is SweepVariable.PR_OVER_N0_DB:
        caps = outdoor_link_capacity(params, alphas, pr_over_n0_db=grid)
    else:
        caps = outdoor_link_capacity(params, alphas, span=grid)
    if end_to_end:
        floor = cascade_capacity([params.rf_capacity, indoor_link_capacity(params)])
        caps = np.minimum(caps, floor)
    x = tuple(grid.tolist())
    # the checks of CapacityCurve.__post_init__, run once for every curve:
    # the grid is shared and the capacities are one array.  tolist() gives
    # the tuples of Python floats a curve stores, so no conversion is left
    _check_grid(x)
    if not ((0.0 <= caps) & (caps < math.inf)).all():
        raise ValueError(_CAPACITY_RULE)
    return [
        CapacityCurve._unchecked(
            variable=spec.variable,
            alpha_db_per_km=alpha,
            x=x,
            capacity_bps=tuple(row),
            fixed_params=params,
        )
        for alpha, row in zip(params.attenuation_coeffs, caps.tolist())
    ]


def write_curves_csv(curves: Iterable[CapacityCurve], stream: IO[str]) -> None:
    """Write curves as ``x,alpha_dBkm,capacity_bps`` rows, curve by curve.

    Every number is Python's ``repr``, the shortest text that parses back
    to the same float, so a reader recovers each curve exactly; the bytes
    are pinned by digests in ``tests/test_cli.py``.  The texts come from
    the ``float_reprs`` kernel, which takes only a list or tuple of Python
    floats: a :class:`CapacityCurve` stores its numbers as tuples of
    exactly those, so they go to the kernel as they are.  Each curve goes out in one
    ``stream.write``.  The grid's texts are reused while consecutive
    curves share one ``x`` tuple, as a sweep's curves do.
    """
    # imported here, so that importing owpan loads no kernel backend
    from ._kernels import float_reprs

    stream.write(CSV_HEADER + "\n")
    x = x_text = None
    for curve in curves:
        if curve.x is not x:
            x = curve.x
            x_text = float_reprs(x)
        # one kernel call for the capacities and, last, the alpha
        caps = float_reprs((*curve.capacity_bps, curve.alpha_db_per_km))
        alpha = caps.pop()
        # the x, alpha, capacity and newline columns of the rows, joined at once
        cells = [None, f",{alpha},", None, "\n"] * len(x)
        cells[0::4] = x_text
        cells[2::4] = caps
        stream.write("".join(cells))
