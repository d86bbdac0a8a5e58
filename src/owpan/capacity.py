"""Electrical SNR, Shannon capacity, and the attenuation-family sweeps.

The chain is: optical channel gain -> photocurrent (gain times
responsivity) -> electrical SNR (squared, since detection converts optical
power to current) -> Shannon capacity.  Cascaded links are limited by their
worst member.  Sweeps produce one curve per configured attenuation
coefficient, over either the received-power budget or the backbone span.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .channels import _first_bad, diffuse_gain, fso_gain, los_gain
from .params import LinkBudgetParams, _real

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
        # operator.index admits ints and numpy integers, not 2.5 or 3.0
        try:
            object.__setattr__(self, "points", operator.index(self.points))
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        # stored as Python floats, as LinkBudgetParams stores its numbers
        for end in ("start", "stop"):
            try:
                object.__setattr__(self, end, _real(getattr(self, end)))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{end} must be a number, got {getattr(self, end)!r}") from None
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
        # stored as Python floats, as LinkBudgetParams stores its numbers, so
        # the CSV shows a numpy scalar or a bool as the number it stands for;
        # a sweep's own tuples of floats are kept as they are
        alpha, x, caps = self.alpha_db_per_km, self.x, self.capacity_bps
        if type(alpha) is not float or not (_all_floats(x) and _all_floats(caps)):
            try:
                alpha, x, caps = _real(alpha), tuple(map(_real, x)), tuple(map(_real, caps))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    "alpha_db_per_km, x and capacity_bps must be real numbers"
                ) from None
            object.__setattr__(self, "alpha_db_per_km", alpha)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "capacity_bps", caps)
        if len(x) != len(caps):
            raise ValueError("x and capacity_bps must have equal length")
        # a sum of finite values is finite unless it overflows; finiteness is
        # settled before sorted() and min(), which a NaN would confuse
        if not (math.isfinite(sum(x)) or all(map(math.isfinite, x))):
            raise ValueError("sweep grid must be finite")
        # a stable sort leaves a non-decreasing grid as it is
        if sorted(x) != list(x):
            raise ValueError("sweep grid must be non-decreasing")
        finite = math.isfinite(sum(caps)) or all(map(math.isfinite, caps))
        if not finite or (caps and min(caps) < 0.0):
            raise ValueError("capacities must be finite and non-negative")


def _all_floats(values) -> bool:
    """Whether ``values`` is a tuple of Python floats, subclasses excluded."""
    return type(values) is tuple and list(map(type, values)).count(float) == len(values)


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
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    usable = np.isfinite(pr_over_n0_db) & (pr_over_n0_db <= _MAX_DB)
    if not np.all(usable):
        bad = _first_bad(pr_over_n0_db, ~usable)
        rule = f"<= {_MAX_DB} dB" if math.isfinite(bad) else "finite"
        raise ValueError(f"pr_over_n0_db must be {rule}, got {bad!r}")
    in_range = (0.0 <= channel_gain) & (channel_gain <= 1.0)
    if not np.all(in_range):
        raise ValueError(
            f"channel_gain must lie in [0, 1], got {_first_bad(channel_gain, ~in_range)!r}"
        )
    if not 0.0 <= responsivity < math.inf:
        raise ValueError(f"responsivity must be finite and >= 0, got {responsivity!r}")
    photo = responsivity * channel_gain
    with np.errstate(over="ignore", invalid="ignore"):
        snr = photo * photo * 10.0 ** (pr_over_n0_db / 10.0) / bandwidth
        finite = np.isfinite(snr)
        if not finite.all():
            # photo * photo can overflow where a small ratio would scale it
            # back down; there, square photo * sqrt(ratio) instead
            amplitude = photo * 10.0 ** (pr_over_n0_db / 20.0)
            snr = np.where(finite, snr, np.square(amplitude) / bandwidth)[()]
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


def link_capacity(snr: float | np.ndarray, bandwidth: float) -> float | np.ndarray:
    """Shannon capacity B*log2(1 + SNR) in bit/s, element-wise for an array.

    Computed via log1p so deeply attenuated links keep a positive
    capacity instead of rounding to zero; the sweeps' ordering
    properties rely on that.  Every SNR must be finite and >= 0; a NaN or
    infinite one is rejected.
    """
    in_range = (snr >= 0.0) & np.isfinite(snr)
    if not np.all(in_range):
        bad = _first_bad(snr, ~in_range)
        raise ValueError(f"snr must be {'>= 0' if bad < 0.0 else 'finite'}, got {bad!r}")
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    capacity = bandwidth * np.log1p(snr) / _LN2
    return float(capacity) if np.ndim(capacity) == 0 else capacity


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
    snr = electrical_snr(params.pr_over_n0, params.pd_responsivity, gain, params.bandwidth)
    return link_capacity(snr, params.bandwidth)


def outdoor_link_capacity(
    params: LinkBudgetParams,
    alpha_db_per_km: float | np.ndarray,
    span: float | np.ndarray | None = None,
    pr_over_n0_db: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Capacity of the laser backbone at one attenuation coefficient.

    The last three arguments may be arrays, which broadcast against each
    other.  Built on :func:`fso_gain`, so a span of exactly zero, the
    natural left edge of a distance sweep, is representable.
    """
    gain = fso_gain(
        alpha_db_per_km,
        params.span if span is None else span,
        params.detector_area,
        params.beam_waist,
        params.wavelength,
    )
    snr = electrical_snr(
        params.pr_over_n0 if pr_over_n0_db is None else pr_over_n0_db,
        params.laser_responsivity,
        gain,
        params.bandwidth,
    )
    return link_capacity(snr, params.bandwidth)


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
    return [
        CapacityCurve(
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
