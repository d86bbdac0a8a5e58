"""Link-budget parameter set and its plain-text configuration format.

A parameter file is flat ``key = value [unit]`` text: one assignment per
line, ``#`` comments, blank lines ignored.  Every key has an explicit unit
table and everything is converted to SI here, at the boundary, so the rest
of the package never sees a millimeter.  An empty file (or no file) yields
the built-in defaults.  The network config (:mod:`owpan.netsim.config`)
reads its rates and times with the same unit tables and reader.

Example::

    # outdoor backbone
    attenuation_coeff = 5, 20, 50, 80 dB/km
    span              = 160 m
    beam_waist        = 0.588 mm
    pd_area           = 26 mm^2
"""

from __future__ import annotations

import math
import operator
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable

__all__ = ["LinkBudgetParams", "ParamsError", "load_params", "parse_params"]


class ParamsError(ValueError):
    """Raised for unparseable or invalid parameter input."""


def _longest_first(units: dict[str, float]) -> dict[str, float]:
    # a unit is matched as a suffix, so 'mm' must be tried before 'm'
    return dict(sorted(units.items(), key=lambda item: -len(item[0])))


# unit name -> multiplier into the SI (or quoted) target unit; "" admits a
# bare number
_LENGTH = _longest_first({"m": 1.0, "mm": 1e-3, "cm": 1e-2, "km": 1e3, "um": 1e-6, "nm": 1e-9})
_AREA = _longest_first(
    {"m^2": 1.0, "m2": 1.0, "cm^2": 1e-4, "cm2": 1e-4, "mm^2": 1e-6, "mm2": 1e-6}
)
_ANGLE = _longest_first({"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "deg": math.pi / 180.0})
_FREQ = _longest_first({"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9})
_TIME = _longest_first({"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "": 1.0})
_ATTEN = _longest_first({"dB/km": 1.0, "dB/m": 1e3})
_DB = {"dB": 1.0}
_RESP = {"A/W": 1.0, "": 1.0}
_RATE = _longest_first(
    {"bit/s": 1.0, "bps": 1.0, "kbps": 1e3, "Mbps": 1e6, "Gbps": 1e9, "": 1.0}
)
_BARE = {"": 1.0}

# allowed ranges: (low, high, the interval as errors print it).  A square
# bracket admits its bound, so only rf_capacity admits an infinity: an
# unbounded RF uplink
_ANY = (-math.inf, math.inf, "(-inf, inf)")
_POSITIVE = (0.0, math.inf, "(0, inf)")


def _param(default, units: dict[str, float], bounds: tuple = _ANY):
    """A field with its unit table and allowed range; a tuple default
    makes a comma list, an int default an integer."""
    return field(default=default, metadata={"units": units, "range": bounds})


@dataclass(frozen=True)
class LinkBudgetParams:
    """Every physical parameter of the cascaded RF / laser / LED link.

    All values SI except ``attenuation_coeffs`` (dB/km, the unit the
    coefficient is universally quoted in) and ``pr_over_n0`` (dB).
    ``rf_capacity`` is the fixed capacity assigned to the RF uplink,
    which is configured rather than modeled; it defaults to infinity so
    the optical links dominate any cascade unless the user says otherwise.
    The LED-hop functions of :mod:`owpan.channels` read this type directly.
    Each field declares its unit table and its range; :meth:`__post_init__`
    stores every value as a Python number and checks it against its range.
    """

    attenuation_coeffs: tuple[float, ...] = _param(
        (5.0, 20.0, 50.0, 80.0), _ATTEN, (0.0, math.inf, "[0, inf)")
    )  # dB/km
    span: float = _param(160.0, _LENGTH, _POSITIVE)  # m
    detector_area: float = _param(100e-6, _AREA, _POSITIVE)  # m^2
    room_area: float = _param(25.0, _AREA, _POSITIVE)  # m^2
    pd_area: float = _param(26e-6, _AREA, _POSITIVE)  # m^2
    # the diffuse gain diverges at reflectivity 1
    wall_reflectivity: float = _param(0.7, _BARE, (0.0, 1.0, "[0, 1)"))
    incidence_angle: float = _param(1.2217, _ANGLE)  # rad
    half_intensity_angle: float = _param(0.5236, _ANGLE, (0.0, math.pi / 2, "(0, pi/2)"))  # rad
    led_distance: float = _param(2.5, _LENGTH, _POSITIVE)  # m
    irradiance_angle: float = _param(1.7453, _ANGLE)  # rad
    bandwidth: float = _param(10e6, _FREQ, _POSITIVE)  # Hz
    laser_responsivity: float = _param(0.8, _RESP, _POSITIVE)  # A/W
    pd_responsivity: float = _param(0.8, _RESP, _POSITIVE)  # A/W
    pr_over_n0: float = _param(30.0, _DB)  # dB
    beam_waist: float = _param(0.588e-3, _LENGTH, _POSITIVE)  # m
    wavelength: float = _param(1550e-9, _LENGTH, _POSITIVE)  # m
    rf_capacity: float = _param(math.inf, _RATE, (0.0, math.inf, "(0, inf]"))  # bit/s
    sweep_points: int = _param(200, _BARE, (2, math.inf, "[2, inf)"))

    def __post_init__(self) -> None:
        for f in fields(self):
            many, value = isinstance(f.default, tuple), getattr(self, f.name)
            value = (_reals if many else _real)(value, f"{f.name}:", ParamsError)
            if value == ():
                raise ParamsError(f"{f.name}: need at least one value")
            low, high, interval = f.metadata["range"]
            for v in value if many else (value,):
                if (low <= v if interval[0] == "[" else low < v) and (
                    v <= high if interval[-1] == "]" else v < high
                ):
                    continue
                if not math.isfinite(v):
                    raise ParamsError(f"{f.name}: must be finite, got {v!r}")
                if interval.startswith("(0, inf"):
                    raise ParamsError(f"{f.name}: must be strictly positive, got {v!r}")
                raise ParamsError(f"{f.name}: must lie in {interval}, got {v!r}")
            if isinstance(f.default, int) and not value.is_integer():
                raise ParamsError(f"{f.name}: must be an integer, got {value!r}")
            # stored as the default's type: a tuple of floats, an int or a float
            object.__setattr__(self, f.name, type(f.default)(value))


# The one number reader of every numeric input, by the rule that "Numbers"
# in docs/file-formats.md states.  It stores a Python float or int: a numpy
# scalar would reach a CSV as np.float64(...), a bool as True.  Text is no
# number, though float() parses it.
_TEXT = (str, bytes, bytearray, memoryview)


def _real(value, what: str, error: type) -> float:
    """``value`` as a Python float, or ``error`` naming ``what``.  ``.item()``
    reads a numpy scalar or a 0-d or one-element array, where float() warns."""
    if type(value) is float:
        return value
    try:
        number = value.item() if hasattr(value, "item") else value
        if not isinstance(number, _TEXT):
            return float(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be a number, got {value!r}")


def _reals(values, what: str, error: type) -> tuple[float, ...]:
    """A sequence of numbers as a tuple of Python floats, or ``error``: text,
    which iterates by characters or byte values, is no such sequence."""
    if not isinstance(values, _TEXT):
        try:
            return tuple([_real(v, what, TypeError) for v in values])
        except TypeError:
            pass
    raise error(f"{what} must be a sequence of numbers, got {values!r}")


def _integer(value, what: str, error: type) -> int:
    """``value`` as a Python int, or ``error`` naming ``what``: an int, a bool
    or a numpy integer, but no float such as 2.0 and no text."""
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


# what the text before a unit may end in: a separator or the end of a number
_NUMBER_END = " \t,.0123456789"
_NUMBER_WORDS = ("inf", "infinity", "nan")


def _split_unit(text: str, units: dict[str, float]) -> tuple[str, float]:
    """Split a trailing unit of ``units`` off ``text``; returns (numbers, factor).

    A unit counts only where a number can end before it: the 'm' of
    '5 dB/km' is no length unit, the 'Gbps' of 'infGbps' is a rate.
    """
    text = text.strip()
    for unit, factor in units.items():
        if unit and text.endswith(unit):
            head = text[: -len(unit)]
            # head[-1:] of an empty head is "", which is in every string
            if head[-1:] in _NUMBER_END or head.lower().endswith(_NUMBER_WORDS):
                return head.rstrip(), factor
    if "" in units:
        return text, units[""]
    raise ValueError(f"missing unit (expected one of {', '.join(sorted(units))})")


def _number(text: str, factor: float) -> float:
    try:
        return float(text) * factor
    except ValueError:
        raise ValueError(f"{text.strip()!r} is not a number") from None


# key -> field, with the singular spelling of the one list-valued key
_KEYS: dict[str, Field] = {f.name: f for f in fields(LinkBudgetParams)}
_KEYS["attenuation_coeff"] = _KEYS["attenuation_coeffs"]


def _parse_value(f: Field, body: str) -> object:
    numbers, factor = _split_unit(body, f.metadata["units"])
    if isinstance(f.default, tuple):
        return tuple(_number(p, factor) for p in numbers.split(","))
    return _number(numbers, factor)


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
        f = _KEYS.get(key)
        if f is not None:
            key = f.name
        try:
            if not eq:
                raise ParamsError(f"expected 'key = value', got {raw!r}")
            if f is None:
                raise ParamsError(f"unknown key {key!r}")
            if key in seen:
                raise ParamsError(f"duplicate key {key!r}")
            seen.add(key)
            params = replace(params, **{key: _parse_value(f, body)})
        except ParamsError as exc:  # the constructor's errors start with the key
            raise ParamsError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise ParamsError(f"line {lineno}: {key}: {exc}") from exc
    return params


def load_params(path: str | Path | None) -> LinkBudgetParams:
    """Load a parameter file; ``None`` yields the built-in defaults."""
    lines = [] if path is None else Path(path).read_text(encoding="utf-8").splitlines()
    return parse_params(lines)
