"""Command-line front end.

Subcommands: capacity-sweep, rate-table, codec-roundtrip, simulate,
classify.  Every subcommand accepts ``--output -`` (standard output,
the default) or ``--output <path>``.  Exit codes: 0 success, 1 domain
error (bad parameters, undecodable input, no route), 2 usage error.  A
reader that closes the output pipe early, as ``| head -1`` does, is no
error: the command stops writing and exits 0.

The ``OWPAN_PARAMS`` environment variable names a default link-budget
parameter file used when ``--params`` is not given.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from random import Random

from . import capacity as cap
from .netsim import (
    classify_topology,
    load_network_config,
    metrics_summary,
    run_simulation,
    write_metrics_csv,
)
from .params import load_params
from .phy import frames
from .phy.modes import data_rate, mode_by_name, phy_mode_catalog, write_catalog_tsv

PARAMS_ENV_VAR = "OWPAN_PARAMS"

_SWEEP_VARS = {
    "pr_n0": (cap.SweepVariable.PR_OVER_N0_DB, 0.0, 30.0),
    "L": (cap.SweepVariable.SPAN_M, 0.0, 2000.0),
}


@contextlib.contextmanager
def _open_output(spec: str):
    if spec == "-":
        yield sys.stdout
    else:
        with open(spec, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _cmd_capacity_sweep(args) -> int:
    params = load_params(
        args.params if args.params is not None else os.environ.get(PARAMS_ENV_VAR) or None
    )
    variable, lo, hi = _SWEEP_VARS[args.var]
    spec = cap.SweepSpec(
        variable=variable,
        start=lo if args.min is None else args.min,
        stop=hi if args.max is None else args.max,
        points=params.sweep_points if args.points is None else args.points,
    )
    curves = cap.sweep_capacity(params, spec, end_to_end=args.end_to_end)
    with _open_output(args.output) as out:
        cap.write_curves_csv(curves, out)
    if args.gnuplot:
        _write_gnuplot_script(args.gnuplot, args.output, args.var, curves)
    return 0


def _write_gnuplot_script(script_path: str, csv_path: str, var: str, curves) -> None:
    xlabel = "P_r/N_0 (dB)" if var == "pr_n0" else "L (m)"
    lines = [
        "set datafile separator \",\"",
        f"set xlabel {xlabel!r}",
        "set ylabel \"capacity (bit/s)\"",
        "set logscale y",
        "set key top right",
    ]
    # gnuplot escapes a ' inside a single-quoted string by doubling it
    quoted = csv_path.replace("'", "''")
    plots = []
    for curve in curves:
        alpha = curve.alpha_db_per_km
        plots.append(
            f"'{quoted}' using 1:($2 == {alpha!r} ? $3 : NaN) skip 1 "
            f"with lines title 'alpha = {alpha:g} dB/km'"
        )
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_rate_table(args) -> int:
    modes = phy_mode_catalog(args.phy)
    with _open_output(args.output) as out:
        if args.per_mode:
            write_catalog_tsv(out, args.phy)
            return 0
        # one row per (phy, modulation) group, as rate ranges
        groups: dict = {}
        for mode in modes:
            key = (mode.phy_class, mode.modulation)
            groups.setdefault(key, []).append(mode)
        out.write("phy\tmodulation\tline_code\tmin_rate_bps\tmax_rate_bps\n")
        for (phy, modulation), members in groups.items():
            rates = []
            for m in members:
                rates.append(data_rate(m))
                if m.nominal_rate_max is not None:
                    rates.append(m.nominal_rate_max)
            out.write(
                f"{phy.value}\t{modulation.value}\t{members[0].line_code.value}\t"
                f"{min(rates):.10g}\t{max(rates):.10g}\n"
            )
    return 0


def _cmd_codec_roundtrip(args) -> int:
    if not 0 <= args.bytes <= frames.MAX_PAYLOAD:
        print(
            f"error: --bytes must lie in 0..{frames.MAX_PAYLOAD}, got {args.bytes}",
            file=sys.stderr,
        )
        return 1
    if args.seed < 0:
        # Random seeds from an int's absolute value: -7 would replay seed 7
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 1
    if args.mode == "all":
        modes = [m for m in phy_mode_catalog() if m.bound]
    else:
        try:
            modes = [mode_by_name(args.mode)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        if not modes[0].bound:
            print(f"error: {args.mode} is catalog-only, no codec bound", file=sys.stderr)
            return 1
    rng = Random(args.seed)
    failures = 0
    with _open_output(args.output) as out:
        for mode in modes:
            payload = rng.randbytes(args.bytes)
            frame = frames.encode_frame(payload, mode, dimming=args.dimming)
            back = frames.decode_frame(frame.waveform, mode)
            ok = back == payload
            failures += not ok
            out.write(
                f"{'PASS' if ok else 'FAIL'} mode={mode.name} bytes={args.bytes} "
                f"chips={frame.chips.size} seed={args.seed}\n"
            )
    return 1 if failures else 0


def _cmd_simulate(args) -> int:
    config = load_network_config(args.topology)
    duration = args.duration if args.duration is not None else config.duration
    if duration is None:
        print(
            "error: no duration: give --duration or a 'sim duration=' line",
            file=sys.stderr,
        )
        return 1
    seed = args.seed if args.seed is not None else (config.seed or 0)
    metrics = run_simulation(config.topology, config.flows, duration, seed=seed)
    with _open_output(args.output) as out:
        write_metrics_csv(metrics, out)
    # keep stdout byte-stable when the CSV goes there: summary moves to stderr
    summary_stream = sys.stderr if args.output == "-" else sys.stdout
    summary_stream.write(metrics_summary(metrics))
    return 0


def _cmd_classify(args) -> int:
    config = load_network_config(args.topology)
    label = classify_topology(config.topology)
    with _open_output(args.output) as out:
        out.write(f"relaying={label.relaying}\n")
        out.write(f"directionality={label.directionality}\n")
        out.write(f"duplex_kind={label.duplex_kind}\n")
        out.write(f"homogeneity={label.homogeneity}\n")
        out.write(f"channels={label.channels}\n")
        out.write(f"parallel_connections={'yes' if label.parallel_connections else 'no'}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owpan",
        description="Optical wireless PAN link analysis and simulation.",
        epilog=f"Environment: {PARAMS_ENV_VAR} names a default parameter file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity-sweep", help="sweep Shannon capacity over P_r/N_0 or span")
    p.add_argument("--var", choices=sorted(_SWEEP_VARS), required=True,
                   help="sweep variable: pr_n0 (dB) or L (m)")
    p.add_argument("--min", type=float, default=None, help="sweep start (default per variable)")
    p.add_argument("--max", type=float, default=None, help="sweep stop (default per variable)")
    p.add_argument("--points", type=int, default=None, help="grid size (default from params)")
    p.add_argument("--params", default=None, help="link-budget parameter file")
    p.add_argument("--end-to-end", action="store_true",
                   help="cascade RF, laser, and LED hops instead of the laser hop alone")
    p.add_argument("--gnuplot", default=None, metavar="SCRIPT",
                   help="also write a gnuplot script plotting the CSV")
    p.add_argument("--output", default="-", help="CSV destination ('-' for stdout)")
    p.set_defaults(func=_cmd_capacity_sweep)

    p = sub.add_parser("rate-table", help="print PHY mode data rates")
    p.add_argument("--phy", default=None, help="restrict to one PHY class (I..VI)")
    p.add_argument("--per-mode", action="store_true",
                   help="one row per operating mode instead of per-class ranges")
    p.add_argument("--output", default="-", help="TSV destination ('-' for stdout)")
    p.set_defaults(func=_cmd_rate_table)

    p = sub.add_parser("codec-roundtrip", help="encode and decode random payloads")
    p.add_argument("--mode", required=True, help="mode name, or 'all' for every bound mode")
    p.add_argument("--bytes", type=int, default=256, help="payload length, 0..65535 (default 256)")
    p.add_argument("--seed", type=int, default=0,
                   help="payload RNG seed, a non-negative integer (default 0)")
    p.add_argument(
        "--dimming", type=float, default=0.5,
        help="VPPM duty cycle in (0, 1), checked in every mode (default 0.5)",
    )
    p.add_argument("--output", default="-", help="report destination ('-' for stdout)")
    p.set_defaults(func=_cmd_codec_roundtrip)

    p = sub.add_parser("simulate", help="run the discrete-event network simulator")
    p.add_argument("--topology", required=True, help="network configuration file")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (overrides the config's sim line)")
    p.add_argument("--seed", type=int, default=None,
                   help="event RNG seed (overrides the config's sim line)")
    p.add_argument("--output", default="-", help="metrics CSV destination ('-' for stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="report the five-axis topology class")
    p.add_argument("--topology", required=True, help="network configuration file")
    p.add_argument("--output", default="-", help="label destination ('-' for stdout)")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gnuplot", None) and args.output == "-":
        # the script plots the CSV by file name, and '-' is gnuplot's inline data
        parser.error("capacity-sweep: --gnuplot needs --output <file>")
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed its pipe, as `| head -1` does: it has read all it
        # wants.  If that pipe is standard output, it now points at devnull,
        # so that the interpreter's flush at exit cannot fail on it again
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
