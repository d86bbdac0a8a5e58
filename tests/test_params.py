"""Parameter file parsing, unit conversion, and validation."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpan.params import (
    _TIME,
    LinkBudgetParams,
    ParamsError,
    _number,
    _split_unit,
    load_params,
    parse_params,
)

FILE_FORMATS = Path(__file__).resolve().parents[1] / "docs" / "file-formats.md"


class TestDefaults:
    def test_empty_input_gives_full_defaults(self):
        p = parse_params([])
        assert p == LinkBudgetParams()
        assert p.attenuation_coeffs == (5.0, 20.0, 50.0, 80.0)
        assert p.span == 160.0
        assert p.detector_area == 100e-6
        assert p.pd_area == 26e-6
        assert p.room_area == 25.0
        assert p.wall_reflectivity == 0.7
        assert p.incidence_angle == 1.2217
        assert p.half_intensity_angle == 0.5236
        assert p.led_distance == 2.5
        assert p.irradiance_angle == 1.7453
        assert p.bandwidth == 10e6
        assert p.laser_responsivity == 0.8
        assert p.pd_responsivity == 0.8
        assert p.pr_over_n0 == 30.0
        assert p.beam_waist == 0.588e-3
        assert p.wavelength == 1550e-9
        assert math.isinf(p.rf_capacity)
        assert p.sweep_points == 200

    def test_comments_and_blank_lines_ignored(self):
        p = parse_params(["# a comment", "", "   ", "span = 200 m  # trailing"])
        assert p.span == 200.0

    def test_load_none_gives_defaults(self):
        assert load_params(None) == LinkBudgetParams()

    def test_load_file(self, tmp_path):
        f = tmp_path / "link.params"
        f.write_text("span = 1.2 km\npr_over_n0 = 25 dB\n")
        p = load_params(f)
        assert p.span == 1200.0
        assert p.pr_over_n0 == 25.0


class TestUnits:
    def test_attenuation_db_per_km_and_db_per_m_agree(self):
        a = parse_params(["attenuation_coeff = 5 dB/km"])
        b = parse_params(["attenuation_coeff = 0.005 dB/m"])
        assert a.attenuation_coeffs == b.attenuation_coeffs == (5.0,)

    def test_length_units(self):
        assert parse_params(["span = 0.16 km"]).span == pytest.approx(160.0)
        assert parse_params(["beam_waist = 0.588 mm"]).beam_waist == pytest.approx(0.588e-3)
        assert parse_params(["wavelength = 1550 nm"]).wavelength == pytest.approx(1550e-9)

    def test_area_units(self):
        assert parse_params(["pd_area = 26 mm^2"]).pd_area == pytest.approx(26e-6)
        assert parse_params(["detector_area = 1 cm^2"]).detector_area == pytest.approx(1e-4)
        assert parse_params(["room_area = 25 m^2"]).room_area == 25.0

    def test_angle_units(self):
        assert parse_params(["incidence_angle = 70 deg"]).incidence_angle == pytest.approx(
            math.radians(70)
        )
        assert parse_params(["half_intensity_angle = 523600 urad"]).half_intensity_angle == (
            pytest.approx(0.5236)
        )

    def test_frequency_and_time_units(self):
        assert parse_params(["bandwidth = 10 MHz"]).bandwidth == 10e6
        # no link-budget key is a time; the network config reads this table
        assert _number(*_split_unit("0.01 ns", _TIME)) == pytest.approx(1e-11)

    def test_rate_units_and_infinity(self):
        assert parse_params(["rf_capacity = 54 Mbps"]).rf_capacity == 54e6
        assert math.isinf(parse_params(["rf_capacity = inf"]).rf_capacity)
        assert math.isinf(parse_params(["rf_capacity = Infinity Mbps"]).rf_capacity)

    def test_attenuation_list(self):
        p = parse_params(["attenuation_coeffs = 5, 20, 50, 80 dB/km"])
        assert p.attenuation_coeffs == (5.0, 20.0, 50.0, 80.0)

    def test_bare_keys_need_no_unit(self):
        p = parse_params(["wall_reflectivity = 0.5", "sweep_points = 64"])
        assert p.wall_reflectivity == 0.5
        assert p.sweep_points == 64


class TestErrors:
    def test_unknown_key_names_line(self):
        with pytest.raises(ParamsError, match="line 2.*frobnicator"):
            parse_params(["span = 1 m", "frobnicator = 3"])

    def test_divergence_is_not_a_key(self):
        # the laser hop takes its spread from the beam waist and wavelength
        with pytest.raises(ParamsError, match="unknown key 'divergence'"):
            parse_params(["divergence = 0.838 urad"])

    @pytest.mark.parametrize("key", ["cutoff_frequency", "los_delay", "nlos_delay"])
    def test_frequency_response_keys_are_gone(self, key):
        # their only reader, a two-path LED frequency response, fed no command
        with pytest.raises(ParamsError, match=f"^line 2: unknown key '{key}'$"):
            parse_params(["span = 160 m", f"{key} = 1"])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParamsError, match="duplicate"):
            parse_params(["span = 1 m", "span = 2 m"])

    def test_bad_number_names_key_and_line(self):
        with pytest.raises(ParamsError, match="line 1.*span"):
            parse_params(["span = twelve m"])

    def test_missing_equals_sign(self):
        with pytest.raises(ParamsError, match="line 1"):
            parse_params(["span 12 m"])

    def test_wrong_unit_family(self):
        with pytest.raises(ParamsError, match="span"):
            parse_params(["span = 12 Hz"])

    def test_validation_names_reflectivity(self):
        with pytest.raises(ParamsError, match="wall_reflectivity"):
            parse_params(["wall_reflectivity = 1.2"])

    def test_validation_names_negative_span(self):
        with pytest.raises(ParamsError, match="span"):
            parse_params(["span = -5 m"])

    @pytest.mark.parametrize(
        "lines, prefix",
        [
            (["span = -5 m"], "line 1: span: must be strictly positive"),
            (["span = 5 m", "wall_reflectivity = 1.5"], "line 2: wall_reflectivity: must lie in"),
        ],
    )
    def test_range_errors_name_their_line(self, lines, prefix):
        with pytest.raises(ParamsError) as exc:
            parse_params(lines)
        assert str(exc.value).startswith(prefix), str(exc.value)

    def test_sweep_points_must_be_integer(self):
        with pytest.raises(ParamsError, match="sweep_points"):
            parse_params(["sweep_points = 10.5"])

    def test_sweep_points_minimum(self):
        with pytest.raises(ParamsError, match="sweep_points"):
            parse_params(["sweep_points = 1"])

    def test_empty_attenuation_list(self):
        with pytest.raises(ParamsError):
            parse_params(["attenuation_coeffs = dB/km"])

    @pytest.mark.parametrize(
        "line",
        [
            "sweep_points = inf",
            "attenuation_coeffs = 5, nan dB/km",
            "pr_over_n0 = nan dB",
            "pr_over_n0 = inf dB",
            "span = 1e400 m",
            "span = 1e308 km",
            "rf_capacity = nan",
        ],
    )
    def test_non_finite_values_name_line_and_key(self, line):
        key = line.split()[0]
        with pytest.raises(ParamsError, match=f"line 2: {key}: .* finite"):
            parse_params(["# non-finite", line])


    @pytest.mark.parametrize(
        "field, value",
        [
            ("attenuation_coeffs", (5.0, math.nan)),
            ("attenuation_coeffs", (math.inf,)),
            ("pr_over_n0", math.nan),
            ("pr_over_n0", -math.inf),
            ("span", math.inf),
            ("incidence_angle", math.nan),
            ("irradiance_angle", math.inf),
            ("sweep_points", math.inf),
        ],
    )
    def test_constructor_rejects_non_finite_values(self, field, value):
        with pytest.raises(ParamsError, match=f"{field}: must be finite"):
            LinkBudgetParams(**{field: value})

    def test_constructor_keeps_infinite_rf_capacity(self):
        assert LinkBudgetParams(rf_capacity=math.inf).rf_capacity == math.inf
        with pytest.raises(ParamsError, match="rf_capacity"):
            LinkBudgetParams(rf_capacity=math.nan)


class TestDeclarations:
    def test_every_field_declares_a_unit_table_and_a_range(self):
        for f in fields(LinkBudgetParams):
            units, (low, high, interval) = f.metadata["units"], f.metadata["range"]
            assert units and all(isinstance(v, float) for v in units.values()), f.name
            assert low < high and interval[0] in "[(" and interval[-1] in "])", f.name

    def test_docs_key_table_lists_every_field_and_the_alias(self):
        text = FILE_FORMATS.read_text(encoding="utf-8")
        section = text.split("## Link-budget parameter file", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        documented = {name for cell in rows for name in re.findall(r"`(\w+)`", cell)}
        expected = {f.name for f in fields(LinkBudgetParams)} | {"attenuation_coeff"}
        assert documented == expected

    @pytest.mark.parametrize(
        "field, value", [("sweep_points", 10.5), ("wall_reflectivity", 1.0)]
    )
    def test_constructor_applies_declared_ranges(self, field, value):
        with pytest.raises(ParamsError, match=f"^{field}: must "):
            LinkBudgetParams(**{field: value})

    def test_constructor_stores_python_numbers(self):
        # a numpy float would reach the sweep CSV as np.float64(...)
        for coeffs in ((np.float64(5.0), 20), [5.0, 20.0], np.array([5.0, 20.0])):
            p = LinkBudgetParams(
                attenuation_coeffs=coeffs, span=np.float32(160.0), sweep_points=np.int64(8)
            )
            assert p.attenuation_coeffs == (5.0, 20.0)
            assert all(type(v) is float for v in p.attenuation_coeffs)
            assert (type(p.span), type(p.sweep_points)) == (float, int)
        assert type(LinkBudgetParams(span=np.array([160.0])).span) is float
        assert type(LinkBudgetParams(sweep_points=64.0).sweep_points) is int

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("attenuation_coeffs", 5.0, "must be a sequence of numbers, got 5.0"),
            ("attenuation_coeffs", ["5"], r"must be a sequence of numbers, got \['5'\]"),
            ("span", "160", "must be a number, got '160'"),
            ("span", None, "must be a number, got None"),
            ("span", np.array([1.0, 2.0]), r"must be a number, got array\(\[1\., 2\.\]\)"),
            ("bandwidth", 1j, "must be a number, got 1j"),
        ],
    )
    def test_constructor_names_a_value_that_is_no_number(self, field, value, message):
        with pytest.raises(ParamsError, match=f"^{field}: {message}$"):
            LinkBudgetParams(**{field: value})

    def test_bare_time_is_seconds_and_rate_units_include_infinity(self):
        assert _split_unit("2e-11", _TIME) == ("2e-11", 1.0)
        assert parse_params(["rf_capacity = infGbps"]).rf_capacity == math.inf


class TestAccessors:
    def test_base_layering(self):
        base = parse_params(["span = 500 m"])
        layered = parse_params(["pr_over_n0 = 10 dB"], base=base)
        assert layered.span == 500.0
        assert layered.pr_over_n0 == 10.0


# a parameter line is drawn as a key, a number at or past the edges of the
# ranges, and a unit of any family
_PARAM_KEYS = [
    "span", "attenuation_coeffs", "attenuation_coeff", "wall_reflectivity",
    "half_intensity_angle", "rf_capacity", "sweep_points", "pr_over_n0", "bandwidth", "colour",
]
_NUMBERS = [
    "0", "-1", "1", "1.5", "inf", "nan", "1e400", str(2**64), "-5", "1e308", "5, nan", "5,", "",
]
_UNITS = ["", "m", "km", "dB", "dB/km", "deg", "Hz", "ns", "Mbps", "mm^2", "us"]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 3),
    st.one_of(
        st.builds(
            "{} = {} {}".format,
            st.sampled_from(_PARAM_KEYS),
            st.sampled_from(_NUMBERS),
            st.sampled_from(_UNITS),
        ),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    ),
)
def test_parser_is_total_and_names_the_line(blank_lines, line):
    try:
        assert isinstance(parse_params([""] * blank_lines + [line]), LinkBudgetParams)
    except ParamsError as exc:
        assert str(exc).startswith(f"line {blank_lines + 1}: "), str(exc)
