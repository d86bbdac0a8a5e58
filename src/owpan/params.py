"""Link-budget parameter set and its plain-text configuration format.

A parameter file is flat ``key = value [unit]`` text: one assignment per
line, ``#`` comments, blank lines ignored.  Every key has an explicit unit
table and everything is converted to SI here, at the boundary, so the rest
of the package never sees a millimeter.  An empty file (or no file) yields
the built-in defaults.

Example::

    # outdoor backbone
    attenuation_coeff = 5, 20, 50, 80 dB/km
    span              = 160 m
    beam_waist        = 0.588 mm
    pd_area           = 26 mm^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable

__all__ = ["LinkBudgetParams", "ParamsError", "load_params", "parse_params"]


class ParamsError(ValueError):
    """Raised for unparseable or invalid parameter input."""


@dataclass(frozen=True)
class LinkBudgetParams:
    """Every physical parameter of the cascaded RF / laser / LED link.

    All values SI except ``attenuation_coeffs`` (dB/km, the unit the
    coefficient is universally quoted in) and ``pr_over_n0`` (dB).
    ``rf_capacity`` is the fixed capacity assigned to the RF uplink,
    which is configured rather than modeled; it defaults to infinity so
    the optical links dominate any cascade unless the user says otherwise.
    The LED-hop functions of :mod:`owpan.channels` read this type directly:
    ``los_delay``/``nlos_delay`` are the arrival times of the direct and the
    wall-reflected path, ``cutoff_frequency`` the 3 dB corner of the diffuse
    path's low-pass response.
    """

    attenuation_coeffs: tuple[float, ...] = (5.0, 20.0, 50.0, 80.0)  # dB/km
    span: float = 160.0  # m
    detector_area: float = 100e-6  # m^2
    room_area: float = 25.0  # m^2
    pd_area: float = 26e-6  # m^2
    wall_reflectivity: float = 0.7
    incidence_angle: float = 1.2217  # rad
    half_intensity_angle: float = 0.5236  # rad
    led_distance: float = 2.5  # m
    irradiance_angle: float = 1.7453  # rad
    bandwidth: float = 10e6  # Hz
    cutoff_frequency: float = 1.7111e6  # Hz
    los_delay: float = 0.01e-9  # s
    nlos_delay: float = 0.03e-9  # s
    laser_responsivity: float = 0.8  # A/W
    pd_responsivity: float = 0.8  # A/W
    pr_over_n0: float = 30.0  # dB
    beam_waist: float = 0.588e-3  # m
    wavelength: float = 1550e-9  # m
    rf_capacity: float = math.inf  # bit/s
    sweep_points: int = 200

    def __post_init__(self) -> None:
        if not self.attenuation_coeffs:
            raise ParamsError("attenuation_coeffs: need at least one value")
        for f in fields(self):
            if f.name == "rf_capacity":
                continue  # an unbounded RF uplink is the one meaningful infinity
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not math.isfinite(v):
                    raise ParamsError(f"{f.name}: must be finite, got {v!r}")
        for a in self.attenuation_coeffs:
            if a < 0.0:
                raise ParamsError(f"attenuation_coeffs: {a!r} is negative")
        positive = (
            "span",
            "detector_area",
            "room_area",
            "pd_area",
            "led_distance",
            "bandwidth",
            "cutoff_frequency",
            "los_delay",
            "nlos_delay",
            "laser_responsivity",
            "pd_responsivity",
            "beam_waist",
            "wavelength",
            "rf_capacity",
        )
        for name in positive:
            value = getattr(self, name)
            if not value > 0.0:
                raise ParamsError(f"{name}: must be strictly positive, got {value!r}")
        if not 0.0 <= self.wall_reflectivity < 1.0:
            # the diffuse gain diverges at reflectivity 1
            raise ParamsError(
                f"wall_reflectivity: must lie in [0, 1), got {self.wall_reflectivity!r}"
            )
        if not 0.0 < self.half_intensity_angle < math.pi / 2:
            raise ParamsError(
                f"half_intensity_angle: must lie in (0, pi/2), "
                f"got {self.half_intensity_angle!r}"
            )
        if self.sweep_points < 2:
            raise ParamsError(
                f"sweep_points: need at least 2, got {self.sweep_points!r}"
            )


# unit name -> multiplier into the SI (or quoted) target unit
_LENGTH = {"m": 1.0, "mm": 1e-3, "cm": 1e-2, "km": 1e3, "um": 1e-6, "nm": 1e-9}
_AREA = {
    "m^2": 1.0,
    "m2": 1.0,
    "cm^2": 1e-4,
    "cm2": 1e-4,
    "mm^2": 1e-6,
    "mm2": 1e-6,
}
_ANGLE = {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "deg": math.pi / 180.0}
_FREQ = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_ATTEN = {"dB/km": 1.0, "dB/m": 1e3}
_DB = {"dB": 1.0}
_RESP = {"A/W": 1.0, "": 1.0}
_RATE = {"bit/s": 1.0, "bps": 1.0, "kbps": 1e3, "Mbps": 1e6, "Gbps": 1e9, "": 1.0}
_BARE = {"": 1.0}

# key -> (unit table, list-valued?)
_KEY_UNITS: dict[str, tuple[dict[str, float], bool]] = {
    "attenuation_coeffs": (_ATTEN, True),
    "span": (_LENGTH, False),
    "detector_area": (_AREA, False),
    "room_area": (_AREA, False),
    "pd_area": (_AREA, False),
    "wall_reflectivity": (_BARE, False),
    "incidence_angle": (_ANGLE, False),
    "half_intensity_angle": (_ANGLE, False),
    "led_distance": (_LENGTH, False),
    "irradiance_angle": (_ANGLE, False),
    "bandwidth": (_FREQ, False),
    "cutoff_frequency": (_FREQ, False),
    "los_delay": (_TIME, False),
    "nlos_delay": (_TIME, False),
    "laser_responsivity": (_RESP, False),
    "pd_responsivity": (_RESP, False),
    "pr_over_n0": (_DB, False),
    "beam_waist": (_LENGTH, False),
    "wavelength": (_LENGTH, False),
    "rf_capacity": (_RATE, False),
    "sweep_points": (_BARE, False),
}

# singular spelling for the one list-valued key, purely for convenience
_ALIASES = {"attenuation_coeff": "attenuation_coeffs"}


def _split_unit(body: str, units: dict[str, float]) -> tuple[str, float]:
    """Split a trailing unit token off ``body``; returns (numbers, factor)."""
    body = body.strip()
    # longest-first so 'dB/km' wins over a hypothetical bare 'dB'
    for unit in sorted(units, key=len, reverse=True):
        if unit and body.endswith(unit):
            head = body[: -len(unit)]
            if head == "" or head[-1] in " \t,0123456789.":
                return head.rstrip(), units[unit]
    if "" in units:
        return body, units[""]
    raise ValueError(f"missing unit (expected one of {', '.join(sorted(units))})")


def _parse_value(key: str, body: str) -> object:
    units, is_list = _KEY_UNITS[key]
    numbers, factor = _split_unit(body, units)
    parts = [p.strip() for p in numbers.split(",")] if is_list else [numbers.strip()]
    if any(p == "" for p in parts) or not parts:
        raise ValueError("empty value")
    values = []
    for p in parts:
        try:
            v = float(p) * factor
        except ValueError:
            raise ValueError(f"{p!r} is not a number") from None
        # an unbounded RF uplink is the one meaningful infinity
        if math.isnan(v) or (math.isinf(v) and key != "rf_capacity"):
            raise ValueError(f"{p!r} does not convert to a finite value")
        values.append(v)
    if key == "sweep_points":
        v = values[0]
        if v != int(v):
            raise ValueError(f"{v!r} is not an integer")
        return int(v)
    return tuple(values) if is_list else values[0]


def parse_params(
    lines: Iterable[str], base: LinkBudgetParams | None = None
) -> LinkBudgetParams:
    """Parse configuration lines on top of ``base`` (default: built-ins).

    Raises :class:`ParamsError` starting with ``line N: `` and naming the
    key for any syntax, unit or range problem in that line.  Each line is
    applied as it is read, so :class:`LinkBudgetParams` is the one range
    check.
    """
    params = base or LinkBudgetParams()
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, body = line.partition("=")
        key = key.strip()
        key = _ALIASES.get(key, key)
        try:
            if not eq:
                raise ParamsError(f"expected 'key = value', got {raw!r}")
            if key not in _KEY_UNITS:
                raise ParamsError(f"unknown key {key!r}")
            if key in seen:
                raise ParamsError(f"duplicate key {key!r}")
            seen.add(key)
            params = replace(params, **{key: _parse_value(key, body)})
        except ParamsError as exc:  # the constructor's errors start with the key
            raise ParamsError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise ParamsError(f"line {lineno}: {key}: {exc}") from exc
    return params


def load_params(path: str | Path | None) -> LinkBudgetParams:
    """Load a parameter file; ``None`` yields the built-in defaults."""
    if path is None:
        return LinkBudgetParams()
    text = Path(path).read_text(encoding="utf-8")
    return parse_params(text.splitlines())


_FIELD_NAMES = {f.name for f in fields(LinkBudgetParams)}
assert set(_KEY_UNITS) == _FIELD_NAMES, "unit table out of sync with the dataclass"
