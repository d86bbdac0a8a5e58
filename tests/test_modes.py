"""PHY mode catalog: rate arithmetic, lookups, and the TSV dump."""

import dataclasses
import io
import math
from fractions import Fraction
from pathlib import Path

import pytest

from owpan.phy.fec import ConvCode, RsCode
from owpan.phy.modes import (
    CATALOG_COLUMNS,
    LineCode,
    Modulation,
    PhyClass,
    PhyMode,
    RateMismatchError,
    data_rate,
    mode_by_name,
    phy_mode_catalog,
    write_catalog_tsv,
)

GOLDEN = Path(__file__).parent / "golden" / "phy_modes.tsv"

# payload rates as published, indexed by catalog name
NOMINAL_RATES = {
    "phy1-ook-11k": 11.67e3,
    "phy1-ook-24k": 24.44e3,
    "phy1-ook-48k": 48.89e3,
    "phy1-ook-73k": 73.3e3,
    "phy1-ook-100k": 100e3,
    "phy1-vppm-35k": 35.56e3,
    "phy1-vppm-71k": 71.11e3,
    "phy1-vppm-124k": 124.4e3,
    "phy1-vppm-266k": 266.6e3,
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


def test_catalog_counts():
    catalog = phy_mode_catalog()
    assert len(catalog) == 40
    assert len({m.name for m in catalog}) == 40
    assert sum(m.bound for m in catalog) == 23
    assert len(phy_mode_catalog(PhyClass.I)) == 9
    assert len(phy_mode_catalog(PhyClass.II)) == 14


def test_bound_rates_match_published_values():
    for name, rate in NOMINAL_RATES.items():
        mode = mode_by_name(name)
        computed = data_rate(mode)
        assert abs(computed - rate) <= 0.005 * rate, (name, computed, rate)


def test_rate_arithmetic_is_the_product_of_ratios():
    for mode in phy_mode_catalog():
        if not mode.bound:
            continue
        exact = (
            Fraction(mode.clock_rate).limit_denominator()
            * mode.line_code.ratio
            * mode.outer_ratio
            * mode.inner_ratio
        )
        assert data_rate(mode) == pytest.approx(float(exact), rel=1e-12)


def test_unbound_modes_return_nominal_rate():
    mode = mode_by_name("phy6-vtasc")
    assert not mode.bound
    assert data_rate(mode) == mode.nominal_rate


def test_rate_range_rows():
    mode = mode_by_name("phy3-ook")
    assert mode.nominal_rate == 12e6
    assert mode.nominal_rate_max == 96e6
    assert mode_by_name("phy1-ook-11k").nominal_rate_max is None


def test_rate_mismatch_detected():
    bad = PhyMode(
        name="bogus",
        phy_class=PhyClass.I,
        modulation=Modulation.OOK,
        line_code=LineCode.MANCHESTER,
        clock_rate=200e3,
        outer_code=RsCode(15, 7),
        inner_code=ConvCode(Fraction(1, 4)),
        nominal_rate=50e3,  # truth is ~11.67k
    )
    with pytest.raises(RateMismatchError):
        data_rate(bad)


def test_mode_validation():
    with pytest.raises(ValueError):
        PhyMode(
            name="x",
            phy_class=PhyClass.I,
            modulation=Modulation.OOK,
            line_code=LineCode.NONE,
            clock_rate=1.0,
            outer_code=None,
            inner_code=None,
            nominal_rate=0.0,
        )
    with pytest.raises(ValueError):
        PhyMode(
            name="x",
            phy_class=PhyClass.I,
            modulation=Modulation.OOK,
            line_code=LineCode.NONE,
            clock_rate=-5.0,
            outer_code=None,
            inner_code=None,
            nominal_rate=1.0,
        )


@pytest.mark.parametrize("field", ["clock_rate", "nominal_rate", "nominal_rate_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_mode_rates_are_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"^phy3-csk: {field} must be finite and > 0, got "):
        dataclasses.replace(mode_by_name("phy3-csk"), **{field: value})


def test_a_bound_mode_without_a_clock_fails_at_construction():
    with pytest.raises(ValueError, match="^phy1-ook-11k: a PHY I/II mode needs a clock_rate$"):
        dataclasses.replace(mode_by_name("phy1-ook-11k"), clock_rate=None)
    # a catalog-only mode may publish no numeric clock
    assert mode_by_name("phy4-ufsook").clock_rate is None


def test_only_phy1_and_2_are_bound():
    for mode in phy_mode_catalog():
        assert mode.bound == (mode.phy_class in (PhyClass.I, PhyClass.II))
        if mode.bound:
            assert mode.clock_rate is not None


def test_class_filter_accepts_strings():
    assert phy_mode_catalog("ii") == phy_mode_catalog(PhyClass.II)
    assert phy_mode_catalog("I") == phy_mode_catalog(PhyClass.I)
    with pytest.raises(ValueError) as exc:
        phy_mode_catalog("VII")
    assert "VI" in str(exc.value)


def test_mode_by_name_unknown():
    with pytest.raises(KeyError) as exc:
        mode_by_name("phy9-nope")
    assert "phy1-ook-11k" in str(exc.value)


def test_line_code_ratios():
    assert LineCode.MANCHESTER.ratio == Fraction(1, 2)
    assert LineCode.FOUR_B_SIX_B.ratio == Fraction(2, 3)
    assert LineCode.EIGHT_B_TEN_B.ratio == Fraction(4, 5)
    assert LineCode.NONE.ratio == Fraction(1)


def test_catalog_tsv_matches_golden():
    buf = io.StringIO()
    write_catalog_tsv(buf)
    assert buf.getvalue() == GOLDEN.read_text()


def test_catalog_tsv_header_and_filter():
    buf = io.StringIO()
    write_catalog_tsv(buf, PhyClass.III)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "\t".join(CATALOG_COLUMNS)
    assert len(lines) == 3
    assert all(line.startswith("phy3-") for line in lines[1:])
