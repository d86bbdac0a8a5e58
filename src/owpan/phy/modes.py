"""The PHY operating-mode catalog and its data-rate arithmetic.

PHY I and II carry a full codec binding (line code, RS/CC parameters,
modulation) and every such mode satisfies

    nominal_rate = clock_rate * line_ratio * rs_ratio * cc_ratio

to within 0.5%.  PHY III-VI are catalog-only: the standard's scheme names
and nominal rates are listed so rate queries are total, but no waveform
codec is bound to them.

The RS parameter choices for the bound modes are a reconstruction: the
published tables name only the code family, so this catalog picks GF(16)
codes whose ratios land the rate arithmetic exactly on the published
numbers (see docs/phy-modes.md for the full table and the reasoning).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .fec import ConvCode, RsCode

__all__ = [
    "PhyClass",
    "Modulation",
    "LineCode",
    "PhyMode",
    "RateMismatchError",
    "data_rate",
    "phy_mode_catalog",
    "mode_by_name",
    "write_catalog_tsv",
    "CATALOG_COLUMNS",
    "RATE_TOLERANCE",
]


class PhyClass(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


class Modulation(enum.Enum):
    OOK = "OOK"
    VPPM = "VPPM"
    CSK = "CSK"
    UFSOOK = "UFSOOK"
    TWINKLE_VPPM = "Twinkle-VPPM"
    S2_PSK = "S2-PSK"
    HS_PSK = "HS-PSK"
    OFFSET_VPPM = "Offset-VPPM"
    RS_FSK = "RS-FSK"
    C_OOK = "C-OOK"
    CM_FSK = "CM-FSK"
    MPM = "MPM"
    A_QL = "A-QL"
    HA_QL = "HA-QL"
    VTASC = "VTASC"
    SS2DC = "SS2DC"
    IDE_MPSK_BLEND = "IDE-MPSK-BLEND"
    IDE_WM = "IDE-WM"


class LineCode(enum.Enum):
    MANCHESTER = "Manchester"
    FOUR_B_SIX_B = "4B6B"
    EIGHT_B_TEN_B = "8B10B"
    HALF_RATE = "half-rate"
    NONE = "none"

    @property
    def ratio(self) -> Fraction:
        return _LINE_RATIOS[self]


_LINE_RATIOS = {
    LineCode.MANCHESTER: Fraction(1, 2),
    LineCode.FOUR_B_SIX_B: Fraction(2, 3),
    LineCode.EIGHT_B_TEN_B: Fraction(4, 5),
    LineCode.HALF_RATE: Fraction(1, 2),
    LineCode.NONE: Fraction(1),
}

RATE_TOLERANCE = 0.005


class RateMismatchError(ValueError):
    """A bound mode's computed rate disagrees with its nominal rate."""


@dataclass(frozen=True)
class PhyMode:
    """One catalog row.

    ``clock_rate`` is None for the camera/display modes whose published
    clock is non-numeric ("multiframe rate", "4x bit rate").  A mode with
    ``bound`` True has a working codec chain behind it; only PHY I/II
    modes are bound.  ``nominal_rate_max`` is set on catalog-only rows
    that publish a rate range rather than a single number.
    """

    name: str
    phy_class: PhyClass
    modulation: Modulation
    line_code: LineCode
    clock_rate: float | None
    outer_code: RsCode | None
    inner_code: ConvCode | None
    nominal_rate: float
    nominal_rate_max: float | None = None
    fec_note: str = ""

    def __post_init__(self) -> None:
        if self.nominal_rate <= 0.0:
            raise ValueError(f"{self.name}: nominal_rate must be > 0")
        if self.clock_rate is not None and self.clock_rate <= 0.0:
            raise ValueError(f"{self.name}: clock_rate must be > 0")

    def __hash__(self) -> int:
        # equal modes share a name; hashing all ten fields takes 1.7 us
        return hash(self.name)

    @property
    def bound(self) -> bool:
        return self.phy_class in (PhyClass.I, PhyClass.II)

    @property
    def outer_ratio(self) -> Fraction:
        return self.outer_code.ratio if self.outer_code else Fraction(1)

    @property
    def inner_ratio(self) -> Fraction:
        return self.inner_code.rate if self.inner_code else Fraction(1)


def data_rate(mode: PhyMode) -> float:
    """Payload bit rate of a mode in bit/s.

    For bound modes the rate is computed from the clock and the coding
    ratios and checked against the catalog's nominal value; catalog-only
    modes return their nominal rate as published.
    """
    if not mode.bound:
        return mode.nominal_rate
    assert mode.clock_rate is not None
    rate = (
        mode.clock_rate
        * float(mode.line_code.ratio)
        * float(mode.outer_ratio)
        * float(mode.inner_ratio)
    )
    if abs(rate - mode.nominal_rate) > RATE_TOLERANCE * mode.nominal_rate:
        raise RateMismatchError(
            f"{mode.name}: computed {rate:.6g} bit/s vs nominal "
            f"{mode.nominal_rate:.6g} bit/s"
        )
    return rate


def _bound(
    name: str,
    phy: PhyClass,
    mod: Modulation,
    lc: LineCode,
    clock: float,
    rs: tuple[int, int] | None,
    cc: Fraction | None,
    nominal: float,
) -> PhyMode:
    return PhyMode(
        name=name,
        phy_class=phy,
        modulation=mod,
        line_code=lc,
        clock_rate=clock,
        outer_code=RsCode(*rs) if rs else None,
        inner_code=ConvCode(cc) if cc else None,
        nominal_rate=nominal,
    )


def _listed(
    name: str,
    phy: PhyClass,
    mod: Modulation,
    lc: LineCode,
    clock: float | None,
    fec: str,
    nominal: float,
    nominal_max: float | None = None,
) -> PhyMode:
    return PhyMode(
        name=name,
        phy_class=phy,
        modulation=mod,
        line_code=lc,
        clock_rate=clock,
        outer_code=None,
        inner_code=None,
        nominal_rate=nominal,
        nominal_rate_max=nominal_max,
        fec_note=fec,
    )


_I, _II, _III = PhyClass.I, PhyClass.II, PhyClass.III
_IV, _V, _VI = PhyClass.IV, PhyClass.V, PhyClass.VI
_MAN, _4B6B = LineCode.MANCHESTER, LineCode.FOUR_B_SIX_B
_8B10B, _NONE, _HALF = LineCode.EIGHT_B_TEN_B, LineCode.NONE, LineCode.HALF_RATE

_CATALOG: tuple[PhyMode, ...] = (
    # PHY I, OOK + Manchester at a 200 kHz optical clock
    _bound("phy1-ook-11k", _I, Modulation.OOK, _MAN, 200e3, (15, 7), Fraction(1, 4), 11_666.67),
    _bound("phy1-ook-24k", _I, Modulation.OOK, _MAN, 200e3, (15, 11), Fraction(1, 3), 24_444.4),
    _bound("phy1-ook-48k", _I, Modulation.OOK, _MAN, 200e3, (15, 11), Fraction(2, 3), 48_888.9),
    _bound("phy1-ook-73k", _I, Modulation.OOK, _MAN, 200e3, (15, 11), None, 73_333.3),
    _bound("phy1-ook-100k", _I, Modulation.OOK, _MAN, 200e3, None, None, 100e3),
    # PHY I, VPPM + 4B6B at 400 kHz
    _bound("phy1-vppm-35k", _I, Modulation.VPPM, _4B6B, 400e3, (15, 2), None, 35_555.6),
    _bound("phy1-vppm-71k", _I, Modulation.VPPM, _4B6B, 400e3, (15, 4), None, 71_111.1),
    _bound("phy1-vppm-124k", _I, Modulation.VPPM, _4B6B, 400e3, (15, 7), None, 124_444.4),
    _bound("phy1-vppm-266k", _I, Modulation.VPPM, _4B6B, 400e3, None, None, 266_666.7),
    # PHY II, VPPM + 4B6B at 3.75 / 7.5 MHz
    _bound("phy2-vppm-1m25", _II, Modulation.VPPM, _4B6B, 3.75e6, (14, 7), None, 1.25e6),
    _bound("phy2-vppm-2m", _II, Modulation.VPPM, _4B6B, 3.75e6, (15, 12), None, 2e6),
    _bound("phy2-vppm-2m5", _II, Modulation.VPPM, _4B6B, 7.5e6, (14, 7), None, 2.5e6),
    _bound("phy2-vppm-4m", _II, Modulation.VPPM, _4B6B, 7.5e6, (15, 12), None, 4e6),
    _bound("phy2-vppm-5m", _II, Modulation.VPPM, _4B6B, 7.5e6, None, None, 5e6),
    # PHY II, OOK + 8B10B at 15 / 30 / 60 / 120 MHz
    _bound("phy2-ook-6m", _II, Modulation.OOK, _8B10B, 15e6, (14, 7), None, 6e6),
    _bound("phy2-ook-9m6", _II, Modulation.OOK, _8B10B, 15e6, (15, 12), None, 9.6e6),
    _bound("phy2-ook-12m", _II, Modulation.OOK, _8B10B, 30e6, (14, 7), None, 12e6),
    _bound("phy2-ook-19m2", _II, Modulation.OOK, _8B10B, 30e6, (15, 12), None, 19.2e6),
    _bound("phy2-ook-24m", _II, Modulation.OOK, _8B10B, 60e6, (14, 7), None, 24e6),
    _bound("phy2-ook-38m4", _II, Modulation.OOK, _8B10B, 60e6, (15, 12), None, 38.4e6),
    _bound("phy2-ook-48m", _II, Modulation.OOK, _8B10B, 120e6, (14, 7), None, 48e6),
    _bound("phy2-ook-76m8", _II, Modulation.OOK, _8B10B, 120e6, (15, 12), None, 76.8e6),
    _bound("phy2-ook-96m", _II, Modulation.OOK, _8B10B, 120e6, None, None, 96e6),
    # PHY III-VI, published rates only
    _listed("phy3-csk", _III, Modulation.CSK, _NONE, 12e6, "RS", 1.25e6, 5e6),
    _listed("phy3-ook", _III, Modulation.OOK, _8B10B, 15e6, "RS", 12e6, 96e6),
    _listed("phy4-ufsook", _IV, Modulation.UFSOOK, _NONE, None, "MIMO path dependent", 10.0),
    _listed("phy4-twinkle-vppm", _IV, Modulation.TWINKLE_VPPM, _NONE, None, "RS", 4e3),
    _listed("phy4-s2-psk", _IV, Modulation.S2_PSK, _HALF, 10.0, "temporal error correction", 5e3),
    _listed("phy4-hs-psk", _IV, Modulation.HS_PSK, _HALF, 10e3, "RS", 22e3),
    _listed("phy4-offset-vppm", _IV, Modulation.OFFSET_VPPM, _NONE, 25.0, "RS", 18.0),
    _listed("phy5-rs-fsk", _V, Modulation.RS_FSK, _NONE, 30.0, "XOR FEC", 120.0),
    _listed("phy5-c-ook", _V, Modulation.C_OOK, _MAN, 2.2e3, "Hamming + optional RS", 400.0),
    _listed("phy5-cm-fsk", _V, Modulation.CM_FSK, _NONE, 10.0, "optional", 60.0),
    _listed("phy5-mpm", _V, Modulation.MPM, _NONE, 12.5e3, "temporal error correction", 7.51),
    _listed("phy6-a-ql", _VI, Modulation.A_QL, _NONE, 10.0, "RS + CC", 5.54e3),
    _listed("phy6-ha-ql", _VI, Modulation.HA_QL, _HALF, 10.0, "RS + CC", 140.0),
    _listed("phy6-vtasc", _VI, Modulation.VTASC, _NONE, 30.0, "RS", 512e3),
    _listed("phy6-ss2dc", _VI, Modulation.SS2DC, _NONE, 30.0, "RS", 368e3),
    _listed("phy6-ide-mpsk-blend", _VI, Modulation.IDE_MPSK_BLEND, _NONE, 30.0, "RS", 32e3),
    _listed("phy6-ide-wm", _VI, Modulation.IDE_WM, _NONE, 30.0, "RS", 256e3),
)

_BY_NAME = {m.name: m for m in _CATALOG}


def phy_mode_catalog(phy_class: PhyClass | str | None = None) -> list[PhyMode]:
    """All catalog rows, optionally restricted to one PHY class.

    The class may be given as the enum member or its numeral ("I".."VI").
    """
    if phy_class is None:
        return list(_CATALOG)
    if isinstance(phy_class, str):
        try:
            phy_class = PhyClass(phy_class.upper())
        except ValueError:
            known = ", ".join(c.value for c in PhyClass)
            raise ValueError(f"unknown PHY class {phy_class!r}; expected one of: {known}") from None
    return [m for m in _CATALOG if m.phy_class is phy_class]


def mode_by_name(name: str) -> PhyMode:
    """Look up a mode by its catalog name (e.g. ``phy1-ook-11k``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown PHY mode {name!r}; known modes: {known}") from None


def _fmt_rate(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.10g}"


def _or_dash(value) -> str:
    return str(value) if value else "-"


# (column, cell of a mode) for each column of the catalog TSV, in order
_CATALOG_TABLE = (
    ("name", lambda m: m.name),
    ("phy", lambda m: m.phy_class.value),
    ("modulation", lambda m: m.modulation.value),
    ("line_code", lambda m: m.line_code.value),
    ("clock_rate_hz", lambda m: _fmt_rate(m.clock_rate)),
    ("outer_code", lambda m: _or_dash(m.outer_code)),
    ("inner_code", lambda m: _or_dash(m.inner_code)),
    ("nominal_rate_bps", lambda m: _fmt_rate(m.nominal_rate)),
    ("nominal_rate_max_bps", lambda m: _fmt_rate(m.nominal_rate_max)),
    ("fec_note", lambda m: _or_dash(m.fec_note)),
)
CATALOG_COLUMNS = tuple(column for column, _ in _CATALOG_TABLE)


def write_catalog_tsv(stream: IO[str], phy_class: PhyClass | str | None = None) -> None:
    """Dump the catalog as tab-separated rows with a header line."""
    stream.write("\t".join(CATALOG_COLUMNS) + "\n")
    for m in phy_mode_catalog(phy_class):
        stream.write("\t".join(cell(m) for _, cell in _CATALOG_TABLE) + "\n")
