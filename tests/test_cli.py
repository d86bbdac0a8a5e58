"""Command-line interface: subcommands, outputs, and exit codes."""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import pytest

import owpan
from owpan import capacity as cap
from owpan.cli import PARAMS_ENV_VAR, main
from owpan.params import LinkBudgetParams

TOPOLOGY = """
node ud kind=UserDevice
node r1 kind=Relay
node ap kind=VlcAccessPoint
link ud r1 tech=RF capacity=54Mbps delay=10ns
link r1 ap tech=VLC-LED capacity=30Mbps delay=3ns
flow sat ud ap
sim duration=20ms seed=7
"""

DUPLEX_TOPOLOGY = """
node ap kind=VlcAccessPoint
node ud kind=UserDevice
link ap ud tech=VLC-LED direction=half
link ud ap tech=RF direction=half
"""


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(TOPOLOGY)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- rate-table

def test_rate_table_phy1_prints_two_rows(capsys):
    code, out, err = run_cli(["rate-table", "--phy", "I"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phy\tmodulation\tline_code\tmin_rate_bps\tmax_rate_bps"
    assert len(lines) == 3
    ook = next(l for l in lines if "\tOOK\t" in l).split("\t")
    vppm = next(l for l in lines if "\tVPPM\t" in l).split("\t")
    assert ook[2] == "Manchester"
    assert float(ook[3]) == pytest.approx(11.67e3, rel=0.005)
    assert float(ook[4]) == pytest.approx(100e3, rel=0.005)
    assert vppm[2] == "4B6B"
    assert float(vppm[3]) == pytest.approx(35.56e3, rel=0.005)
    assert float(vppm[4]) == pytest.approx(266.67e3, rel=0.005)


def test_rate_table_phy2_ranges(capsys):
    code, out, _ = run_cli(["rate-table", "--phy", "II"], capsys)
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    by_mod = {r[1]: r for r in rows}
    assert float(by_mod["VPPM"][3]) == pytest.approx(1.25e6)
    assert float(by_mod["VPPM"][4]) == pytest.approx(5e6)
    assert float(by_mod["OOK"][3]) == pytest.approx(6e6)
    assert float(by_mod["OOK"][4]) == pytest.approx(96e6)


def test_rate_table_per_mode(capsys):
    code, out, _ = run_cli(["rate-table", "--phy", "I", "--per-mode"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("name\tphy\t")
    assert len(lines) == 10  # header + nine PHY I modes
    assert all(l.split("\t")[1] == "I" for l in lines[1:])


def test_rate_table_all_classes(capsys):
    code, out, _ = run_cli(["rate-table"], capsys)
    assert code == 0
    assert len(out.splitlines()) > 10


def test_rate_table_bad_phy_is_domain_error(capsys):
    code, out, err = run_cli(["rate-table", "--phy", "VII"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "VI" in err


def test_rate_table_to_file(tmp_path, capsys):
    dest = tmp_path / "rates.tsv"
    code, out, _ = run_cli(["rate-table", "--phy", "I", "--output", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("phy\tmodulation")


# ----------------------------------------------------------- capacity-sweep

def test_capacity_sweep_stdout(capsys):
    code, out, _ = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--points", "5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,alpha_dBkm,capacity_bps"
    assert len(lines) == 1 + 4 * 5  # four attenuation curves
    alphas = {float(l.split(",")[1]) for l in lines[1:]}
    assert alphas == {5.0, 20.0, 50.0, 80.0}


def test_capacity_sweep_span_with_bounds(capsys):
    code, out, _ = run_cli(
        ["capacity-sweep", "--var", "L", "--min", "100", "--max", "200", "--points", "3"],
        capsys,
    )
    assert code == 0
    xs = sorted({float(l.split(",")[0]) for l in out.splitlines()[1:]})
    assert xs == [100.0, 150.0, 200.0]


def test_capacity_sweep_default_points_from_params(tmp_path, capsys):
    params = tmp_path / "p.txt"
    params.write_text("sweep_points = 4\n")
    code, out, _ = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--params", str(params)], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 4 * 4


def test_capacity_sweep_empty_params_file_uses_defaults(tmp_path, capsys):
    params = tmp_path / "empty.txt"
    params.write_text("# nothing here\n")
    code, out, _ = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--points", "3", "--params", str(params)],
        capsys,
    )
    code2, out2, _ = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--points", "3"], capsys
    )
    assert code == code2 == 0
    assert out == out2


def test_capacity_sweep_rejects_bad_reflectivity(tmp_path, capsys):
    params = tmp_path / "bad.txt"
    params.write_text("wall_reflectivity = 1.2\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--params", str(params)], capsys
    )
    assert code == 1
    assert "wall_reflectivity" in err


@pytest.mark.parametrize("line", ["sweep_points = inf", "pr_over_n0 = nan dB"])
def test_capacity_sweep_rejects_non_finite_params(tmp_path, capsys, line):
    params = tmp_path / "bad.txt"
    params.write_text(line + "\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--params", str(params)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 1: " + line.split()[0])


@pytest.mark.parametrize(
    "bound, prefix",
    [
        (["--min", "nan"], "error: sweep range must be finite"),
        (["--max", "inf"], "error: sweep range must be finite"),
        (["--min", "-5"], "error: span must be >= 0, got -5.0"),
    ],
)
def test_capacity_sweep_bad_range_is_one_short_line(capsys, recwarn, bound, prefix):
    code, out, err = run_cli(["capacity-sweep", "--var", "L", *bound], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert len(recwarn) == 0


@pytest.mark.filterwarnings("error")
def test_capacity_sweep_ratio_past_float_range_is_one_error_line(capsys):
    # 4000 dB is 1e400 in linear form, past the largest float
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--max", "4000", "--points", "3"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: pr_over_n0_db must be <= 3082.5 dB, got 4000.0"]


@pytest.mark.filterwarnings("error")
def test_capacity_sweep_snr_past_float_range_is_one_error_line(tmp_path, capsys):
    # each ratio is in range, but a 1e3 A/W responsivity over a 1 mm span
    # squares to an SNR past the largest float
    params = tmp_path / "p.txt"
    params.write_text("laser_responsivity = 1e3 A/W\nbandwidth = 1 Hz\nspan = 1 mm\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--min", "3080", "--max", "3082",
         "--points", "3", "--params", str(params)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: snr overflows at pr_over_n0_db 3080.0 dB")


@pytest.mark.filterwarnings("error")
def test_capacity_sweep_huge_responsivity_at_tiny_ratio_is_finite(tmp_path, capsys):
    # the photocurrent's square overflows, but the ratio scales it back down
    params = tmp_path / "p.txt"
    params.write_text("laser_responsivity = 1e200 A/W\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--min", "-4000", "--max", "-3990",
         "--points", "3", "--params", str(params)],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 12
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)


@pytest.mark.filterwarnings("error")
def test_capacity_sweep_span_whose_beam_radius_overflows_reads_zero(capsys):
    # at 5e307 and 1e308 m the beam radius squares past the largest float;
    # the sweep printed "overflow encountered in square" there
    code, out, err = run_cli(
        ["capacity-sweep", "--var", "L", "--max", "1e308", "--points", "3"], capsys
    )
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) == 12
    assert [x for x, _, cap in rows if cap == "0.0"] == ["5e+307", "1e+308"] * 4


@pytest.mark.parametrize("var", ["L", "pr_n0"])
@pytest.mark.parametrize("waist", ["1e-170", "1e155"])
def test_capacity_sweep_reads_a_capacity_at_any_beam_waist(tmp_path, capsys, waist, var):
    # a 1e-170 m waist, whose Rayleigh range underflows to 0, captures all
    # at span 0, where the beam is the waist, and nothing past it; a 1e155 m
    # waist squares past the largest float and captures nothing
    params = tmp_path / "waist.txt"
    params.write_text(f"beam_waist = {waist} m\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--var", var, "--points", "3", "--params", str(params)], capsys
    )
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) == 12
    full = waist == "1e-170" and var == "L"
    assert [x for x, _, cap in rows if cap != "0.0"] == (["0.0"] * 4 if full else [])


def test_capacity_sweep_gnuplot_needs_an_output_file(tmp_path, capsys, monkeypatch):
    # the script would plot '-', which gnuplot reads as inline data
    script = tmp_path / "s.gp"
    monkeypatch.setattr(cap, "sweep_capacity", None)  # fails if the sweep runs
    with pytest.raises(SystemExit) as exc:
        main(["capacity-sweep", "--var", "L", "--gnuplot", str(script)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--gnuplot needs --output <file>" in err
    assert not script.exists()


def test_attenuation_unit_equivalence(tmp_path, capsys):
    a = tmp_path / "km.txt"
    a.write_text("attenuation_coeffs = 5 dB/km\n")
    b = tmp_path / "m.txt"
    b.write_text("attenuation_coeffs = 0.005 dB/m\n")
    out = {}
    for tag, path in (("km", a), ("m", b)):
        code, text, _ = run_cli(
            ["capacity-sweep", "--var", "L", "--points", "50", "--params", str(path)],
            capsys,
        )
        assert code == 0
        out[tag] = text
    assert out["km"] == out["m"]


def test_capacity_sweep_env_var_params(tmp_path, capsys, monkeypatch):
    params = tmp_path / "env.txt"
    params.write_text("sweep_points = 2\n")
    monkeypatch.setenv(PARAMS_ENV_VAR, str(params))
    code, out, _ = run_cli(["capacity-sweep", "--var", "pr_n0"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 4 * 2
    # explicit --params still wins
    other = tmp_path / "cli.txt"
    other.write_text("sweep_points = 3\n")
    code, out, _ = run_cli(
        ["capacity-sweep", "--var", "pr_n0", "--params", str(other)], capsys
    )
    assert len(out.splitlines()) == 1 + 4 * 3


def test_capacity_sweep_end_to_end_flag(capsys):
    code, base, _ = run_cli(
        ["capacity-sweep", "--var", "L", "--points", "4"], capsys
    )
    code2, e2e, _ = run_cli(
        ["capacity-sweep", "--var", "L", "--points", "4", "--end-to-end"], capsys
    )
    assert code == code2 == 0
    assert base != e2e
    for line_b, line_e in zip(base.splitlines()[1:], e2e.splitlines()[1:]):
        assert float(line_e.split(",")[2]) <= float(line_b.split(",")[2]) * (1 + 1e-12)


# One run per swept variable, with and without --end-to-end, one custom grid,
# and one params file that moves the LED hop (the end-to-end floor).
_SWEEP_ARGV = {
    "L": ["--var", "L"],
    "L_end_to_end": ["--var", "L", "--end-to-end"],
    "pr_n0": ["--var", "pr_n0"],
    "pr_n0_end_to_end": ["--var", "pr_n0", "--end-to-end"],
    "L_57_points": ["--var", "L", "--points", "57", "--min", "3", "--max", "9000"],
    "led_params": ["--var", "L", "--end-to-end", "--params", "{led}"],
}

# The last bits of a sweep follow numpy's float64 power, expm1 and log1p
# loops, which numpy picks for the CPU when it loads: its AVX-512 loops
# (X86_V4) where the CPU has them, its baseline loops elsewhere or under
# NPY_DISABLE_CPU_FEATURES.  The two round a few results apart, so the CSV
# digests are pinned per loop target.
_PINNED_SWEEPS = {
    "X86_V4": {
        "L": "56672be26eceb81fe204cc31e3acef40240bc65af1a8d67423d0082bd896bc13",
        "L_end_to_end": "0d2f468446ee52c579dfc9db9a747c0ab85f620ec24a5b046368cb369ebc2813",
        "pr_n0": "fb30d4072a388f8cf5afc74c992ede3e034f6ae0ee84065067c37e0187692133",
        "pr_n0_end_to_end": "18a3cd0750df2f1d59e3245c905cd0dac5ce0fc17a818bb3f7e07d7557346fd5",
        "L_57_points": "f360b863a479110bc9ab4f60dfb332456f62bb7a47dd278a9f246ff0067da1f3",
        "led_params": "aa8efdee786506b60f84a18dff139ddaf7defd62f700eeaf3d56111666cfaeba",
    },
    "baseline(X86_V2)": {
        "L": "3610cccbc49a110e82acd180ce92531a042b9f96e05c7dfeaa1b9d50338833d2",
        "L_end_to_end": "6cc3328157a6ffdef4b0250428ee33d16b454a6c2a768df2532329e0577b2079",
        "pr_n0": "eeafd508198aaa90066ecc303839f627d33f9b95df654d99459816ce52b1a83e",
        "pr_n0_end_to_end": "18a3cd0750df2f1d59e3245c905cd0dac5ce0fc17a818bb3f7e07d7557346fd5",
        "L_57_points": "18be9c0eef2dc831d293e8ffb1374461e39c21481c54f72514057f4a57b299c1",
        "led_params": "91c834380c23d4d33e7d265541d0801169539d4cd006ccc1e1ec23b2caeedf48",
    },
}


def _loop_target() -> str:
    """The target of the float64 power, expm1 and log1p loops numpy runs
    here, as numpy reports it ("X86_V4", "baseline(X86_V2)"); on numpy <
    2.0, which has no such report, read from its CPU-feature table."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__

        return "AVX512_SKX" if __cpu_features__.get("AVX512_SKX") else "baseline"
    loops = opt_func_info(func_name="^(power|expm1|log1p)$", signature="float64")
    return " ".join(sorted({sig["current"] for f in loops.values() for sig in f.values()}))


def _sweep_digest(name: str, led) -> str:
    """SHA-256 of the CSV that the pinned run ``name`` prints."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["capacity-sweep", *(a.format(led=led) for a in _SWEEP_ARGV[name])]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture
def led(tmp_path):
    path = tmp_path / "led.txt"
    path.write_text("led_distance = 1 m\nirradiance_angle = 60 deg\n")
    return path


@pytest.mark.parametrize("name", sorted(_SWEEP_ARGV))
def test_capacity_sweep_csv_matches_pinned_digest(name, led):
    """The sweep CSV is pinned byte for byte, every float as its repr."""
    target = _loop_target()
    if target not in _PINNED_SWEEPS:
        pytest.fail(f"no sweep digests pinned for numpy's {target!r} float64 loops")
    assert _sweep_digest(name, led) == _PINNED_SWEEPS[target][name]


@pytest.mark.skipif(_loop_target() != "X86_V4", reason="numpy runs no X86_V4 loops here")
def test_capacity_sweep_csv_matches_baseline_digests_in_a_child(led):
    """Where numpy runs its AVX-512 loops, the baseline digests are checked
    in one child process that switches those loops off."""
    tests = Path(__file__).parent
    package_parent = Path(owpan.__file__).parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    env["PYTHONPATH"] = os.pathsep.join([str(package_parent), env.get("PYTHONPATH", "")])
    env.pop("PYTHONSAFEPATH", None)  # it would keep cwd, and so this module, off sys.path
    script = (
        "import json, sys, test_cli as t\n"
        "print(json.dumps([t._loop_target(), {n: t._sweep_digest(n, sys.argv[1]) "
        "for n in t._SWEEP_ARGV}]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(led)],
        capture_output=True, text=True, cwd=tests, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    target, digests = json.loads(done.stdout)
    assert target.startswith("baseline(")
    assert digests == _PINNED_SWEEPS[target]


@pytest.mark.parametrize("key", ["cutoff_frequency", "los_delay", "nlos_delay"])
def test_capacity_sweep_rejects_a_frequency_response_key(tmp_path, capsys, key):
    params = tmp_path / "old.txt"
    params.write_text(f"span = 160 m\n{key} = 1\n")
    code, out, err = run_cli(["capacity-sweep", "--var", "L", "--params", str(params)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: line 2: unknown key '{key}'\n"


def _params_text(params):
    """``params`` as a parameter file, each value in its field's SI unit."""
    lines = []
    for f in fields(params):
        unit = next(u for u, factor in f.metadata["units"].items() if factor == 1.0)
        value = getattr(params, f.name)
        text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"{f.name} = {text} {unit}\n")
    return "".join(lines)


def _scaled(value, factor):
    if isinstance(value, tuple):
        return tuple(v * factor for v in value)
    return round(value * factor) if isinstance(value, int) else value * factor


def test_every_link_budget_field_reaches_the_sweep_output(tmp_path, capsys):
    """Each field, moved 10% down or up, changes what capacity-sweep prints
    over both variables, laser-only and end-to-end.  At this base both LED
    paths carry light, and the RF capacity sits just below the LED floor,
    so a change to any hop shows in the end-to-end curves."""
    base = LinkBudgetParams(irradiance_angle=0.2, incidence_angle=0.3, sweep_points=20)
    base = replace(base, rf_capacity=cap.indoor_link_capacity(base) * (1 - 1e-6))
    path = tmp_path / "p.txt"

    def outputs(params):
        path.write_text(_params_text(params))
        texts = []
        for var, flags in itertools.product(("L", "pr_n0"), ([], ["--end-to-end"])):
            code, out, err = run_cli(
                ["capacity-sweep", "--var", var, "--params", str(path), *flags], capsys
            )
            assert (code, err) == (0, "")
            texts.append(out)
        return texts

    want = outputs(base)
    silent = [
        f.name
        for f in fields(LinkBudgetParams)
        if all(
            outputs(replace(base, **{f.name: _scaled(getattr(base, f.name), k)})) == want
            for k in (0.9, 1.1)
        )
    ]
    assert silent == []


def test_capacity_sweep_gnuplot_script(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    script = tmp_path / "plot.gp"
    code, _, _ = run_cli(
        [
            "capacity-sweep", "--var", "L", "--points", "3",
            "--output", str(csv), "--gnuplot", str(script),
        ],
        capsys,
    )
    assert code == 0
    text = script.read_text()
    assert str(csv) in text
    assert "set logscale y" in text
    assert text.count("with lines") == 4


def test_capacity_sweep_gnuplot_script_escapes_an_apostrophe(tmp_path, capsys):
    csv = tmp_path / "it's.csv"
    script = tmp_path / "plot.gp"
    code, _, _ = run_cli(
        [
            "capacity-sweep", "--var", "L", "--points", "3",
            "--output", str(csv), "--gnuplot", str(script),
        ],
        capsys,
    )
    assert code == 0
    # a single-quoted gnuplot string holds any character but ', written ''
    names = re.findall(r"'((?:[^']|'')*)' using", script.read_text())
    assert [name.replace("''", "'") for name in names] == [str(csv)] * 4


# ---------------------------------------------------------- codec-roundtrip

def test_codec_roundtrip_single_mode(capsys):
    code, out, _ = run_cli(
        ["codec-roundtrip", "--mode", "phy1-ook-11k", "--bytes", "32"], capsys
    )
    assert code == 0
    assert out.startswith("PASS mode=phy1-ook-11k bytes=32")


def test_codec_roundtrip_all_modes(capsys):
    code, out, _ = run_cli(
        ["codec-roundtrip", "--mode", "all", "--bytes", "16", "--seed", "5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 23
    assert all(l.startswith("PASS mode=") for l in lines)


def test_codec_roundtrip_deterministic(capsys):
    args = ["codec-roundtrip", "--mode", "phy2-ook-96m", "--seed", "3"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_codec_roundtrip_rejects_a_negative_seed(capsys):
    # Random seeds from an int's absolute value, so seed -7 would replay seed 7
    code, out, err = run_cli(["codec-roundtrip", "--mode", "all", "--seed", "-7"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --seed must be a non-negative integer, got -7\n"


def test_codec_roundtrip_catalog_only_mode_fails(capsys):
    code, out, err = run_cli(["codec-roundtrip", "--mode", "phy3-csk"], capsys)
    assert code == 1
    assert "catalog-only" in err


def test_codec_roundtrip_unknown_mode(capsys):
    code, _, err = run_cli(["codec-roundtrip", "--mode", "nope"], capsys)
    assert code == 1
    assert "error:" in err


def test_codec_roundtrip_dimming(capsys):
    code, out, _ = run_cli(
        ["codec-roundtrip", "--mode", "phy1-vppm-35k", "--dimming", "0.3"], capsys
    )
    assert code == 0
    assert out.startswith("PASS")



@pytest.mark.parametrize(
    "mode, dimming", [("phy2-ook-96m", "-3"), ("all", "7")], ids=["ook", "all"]
)
def test_codec_roundtrip_rejects_dimming_outside_unit_interval_in_every_mode(
    mode, dimming, capsys
):
    code, out, err = run_cli(["codec-roundtrip", "--mode", mode, "--dimming", dimming], capsys)
    assert code == 1
    assert out == ""
    assert f"dimming must lie in (0, 1), got {float(dimming)!r}" in err


@pytest.mark.parametrize("size", ["-1", "65536", "4000000000"])
def test_codec_roundtrip_rejects_payload_sizes_outside_the_frame_limit(size, capsys):
    # checked before any payload is drawn: 4000000000 would overflow
    # randbytes, and a size just past the limit would draw it in vain
    code, out, err = run_cli(["codec-roundtrip", "--mode", "all", "--bytes", size], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --bytes must lie in 0..65535, got {size}\n"


def test_codec_roundtrip_accepts_the_frame_limits(capsys):
    for size in ("0", "65535"):
        code, out, _ = run_cli(
            ["codec-roundtrip", "--mode", "phy2-ook-96m", "--bytes", size], capsys
        )
        assert code == 0
        assert out.startswith(f"PASS mode=phy2-ook-96m bytes={size} ")


# ------------------------------------------------------------------ simulate

def test_simulate_csv_to_stdout_summary_to_stderr(topo_file, capsys):
    code, out, err = run_cli(["simulate", "--topology", topo_file], capsys)
    assert code == 0
    assert out.startswith("kind,name,src,dst,")
    assert "packets delivered" in err
    assert "flow sat:" in err


def test_simulate_byte_identical_runs(topo_file, capsys):
    _, out1, _ = run_cli(["simulate", "--topology", topo_file], capsys)
    _, out2, _ = run_cli(["simulate", "--topology", topo_file], capsys)
    assert out1 == out2


def test_simulate_seed_changes_poisson_runs(tmp_path, capsys):
    cfg = tmp_path / "poisson.cfg"
    cfg.write_text(
        TOPOLOGY.replace("flow sat ud ap", "flow p ud ap rate=10Mbps")
    )
    _, out1, _ = run_cli(["simulate", "--topology", str(cfg), "--seed", "1"], capsys)
    _, out2, _ = run_cli(["simulate", "--topology", str(cfg), "--seed", "2"], capsys)
    assert out1 != out2


def test_simulate_output_file_gets_csv_stdout_gets_summary(topo_file, tmp_path, capsys):
    dest = tmp_path / "metrics.csv"
    code, out, err = run_cli(
        ["simulate", "--topology", topo_file, "--output", str(dest)], capsys
    )
    assert code == 0
    assert dest.read_text().startswith("kind,name,")
    assert "packets delivered" in out
    assert err == ""


def test_simulate_duration_flag_overrides_config(topo_file, capsys):
    _, short, _ = run_cli(
        ["simulate", "--topology", topo_file, "--duration", "0.001"], capsys
    )
    _, long, _ = run_cli(["simulate", "--topology", topo_file], capsys)
    assert short != long


def test_simulate_requires_some_duration(tmp_path, capsys):
    cfg = tmp_path / "nodur.cfg"
    cfg.write_text(TOPOLOGY.replace("sim duration=20ms seed=7", ""))
    code, _, err = run_cli(["simulate", "--topology", str(cfg)], capsys)
    assert code == 1
    assert "duration" in err


def test_simulate_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(["simulate", "--topology", "/no/such/file.cfg"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "old, new, argv, message",
    [
        ("sim duration=20ms", "sim duration=inf", [], "duration must be positive and finite"),
        ("sim duration=20ms", "sim duration=nan", [], "duration must be positive and finite"),
        ("", "", ["--duration", "inf"], "duration must be positive and finite"),
        ("capacity=54Mbps", "capacity=infGbps", [], "capacity must be positive and finite"),
        ("delay=10ns", "delay=nan", [], "delay must be non-negative and finite"),
        ("flow sat ud ap", "flow sat ud ap start=nan", [], "start time must be >= 0"),
    ],
)
def test_simulate_rejects_non_finite_inputs(tmp_path, capsys, old, new, argv, message):
    # each of these used to hang or to report a silently wrong run
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(TOPOLOGY.replace(old, new, 1))
    code, _, err = run_cli(["simulate", "--topology", str(cfg), *argv], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert message in err


@pytest.mark.parametrize("old, new, argv", [("seed=7", "seed=-1", []), ("", "", ["--seed", "-1"])])
def test_simulate_rejects_a_negative_seed(tmp_path, capsys, old, new, argv):
    # Random seeds from an int's absolute value, so seed -1 would repeat seed 1
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(TOPOLOGY.replace(old, new, 1))
    code, out, err = run_cli(["simulate", "--topology", str(cfg), *argv], capsys)
    assert (code, out) == (1, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_simulate_a_rate_whose_packet_rate_underflows(tmp_path, capsys):
    # 1e-320 bit/s over 1250 B packets used to end in a ZeroDivisionError
    # traceback from random.expovariate(0.0); the flow now injects nothing
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TOPOLOGY.replace("flow sat ud ap", "flow f ud ap rate=1e-320bps", 1))
    code, out, err = run_cli(["simulate", "--topology", str(cfg)], capsys)
    assert code == 0
    assert "flow,f,1,3,0,0,0," in out
    assert "flow f: 0/0 delivered" in err


def test_simulate_rejects_a_packet_past_a_float(tmp_path, capsys):
    # a 401-digit packet size used to end in an OverflowError traceback
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TOPOLOGY.replace("flow sat ud ap", f"flow sat ud ap packet=1{'0' * 400}", 1))
    code, out, err = run_cli(["simulate", "--topology", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 7: flow sat: packet_bytes is too large")


def test_simulate_value_error_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(TOPOLOGY.replace("capacity=54Mbps", "capacity=infGbps", 1))
    code, _, err = run_cli(["simulate", "--topology", str(cfg)], capsys)
    assert code == 1
    assert err.startswith("error: line 5: link capacity must be positive and finite")


def test_simulate_rejects_step_below_clock_resolution(tmp_path):
    # in a child process with a timeout, so that a clock which cannot
    # advance fails this test instead of hanging the suite
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(
        "node a kind=Relay\nnode b kind=Relay\nlink a b tech=RF capacity=1e20\n"
        "flow s a b start=1\nsim duration=2\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(owpan.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "owpan.cli", "simulate", "--topology", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: flow s: packet time step")


def test_simulate_config_error_reported(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("node a kind=Spaceship\n")
    code, _, err = run_cli(["simulate", "--topology", str(cfg)], capsys)
    assert code == 1
    assert "line 1" in err


# ------------------------------------------------------------------ classify

def test_classify_reports_axes(tmp_path, capsys):
    cfg = tmp_path / "duplex.cfg"
    cfg.write_text(DUPLEX_TOPOLOGY)
    code, out, _ = run_cli(["classify", "--topology", str(cfg)], capsys)
    assert code == 0
    assert out == (
        "relaying=non-relayed\n"
        "directionality=duplex\n"
        "duplex_kind=aggregate\n"
        "homogeneity=homogeneous\n"
        "channels=single-channel\n"
        "parallel_connections=no\n"
    )


def test_classify_relayed_chain(topo_file, capsys):
    code, out, _ = run_cli(["classify", "--topology", topo_file], capsys)
    assert code == 0
    assert "relaying=relayed" in out
    assert "directionality=simplex" in out
    assert "duplex_kind=n/a" in out


# ---------------------------------------------------------------- exit codes

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["capacity-sweep", "--var", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_entry_point(capsys):
    # Run the module as a script from the directory holding the package under
    # test, so that `-m` finds that copy through sys.path[0] with PYTHONPATH
    # cleared: src/ on a checkout, site-packages for an installed package.
    package_parent = os.path.dirname(os.path.dirname(owpan.__file__))
    env = dict(os.environ, PYTHONPATH="")
    env.pop("PYTHONSAFEPATH", None)  # it would keep cwd off sys.path

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "owpan.cli", *argv],
            capture_output=True,
            cwd=package_parent,
            env=env,
        )

    proc = run_module("rate-table", "--phy", "I")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith(b"phy\t")
    # Same bytes as in-process main: the child ran the code under test.
    _, expected, _ = run_cli(["rate-table", "--phy", "I"], capsys)
    assert proc.stdout == expected.encode()

    # A domain error's status comes out through `sys.exit(main())`.
    proc = run_module("rate-table", "--phy", "VII")
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"error:" in proc.stderr


def test_a_reader_that_closes_the_pipe_early_is_no_error(tmp_path):
    """`owpan capacity-sweep --var L --points 20000 | head -1`: the sweep
    exits 0 with nothing on stderr when its reader closes the pipe after
    one line, long before the sweep's megabytes of CSV are written."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(owpan.__file__)))
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "owpan.cli", "capacity-sweep", "--var", "L",
             "--points", "20000"],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err.seek(0)
        assert err.read() == b""
    assert first == b"x,alpha_dBkm,capacity_bps\n"
    assert code == 0


def test_installed_owpan_script_if_present():
    from shutil import which

    exe = which("owpan")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "capacity-sweep" in proc.stdout
