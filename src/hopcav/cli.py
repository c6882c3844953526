"""Command-line interface.

Commands: ``point`` (full matrices and measures at one working point),
``sweep`` (grid to CSV), ``fig`` (named figure presets), ``stability``
(stability-map CSV), and ``validate`` (configuration check only).

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a stable
point missed the residual gate), 3 unknown preset.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import load_config, validate_config
from .engine import CSV_COLUMNS, csv_text, run_point, run_sweep
from .errors import ConfigError, HopcavError, UnknownPresetError
from .lyapunov import RESIDUAL_GATE
from .presets import PRESET_NAMES, fig_preset
from .stability import stability_map

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# ``point`` takes its matrices from the run_point result instead
from .dynamics import build_diffusion, figure_drift  # noqa: F401
from .lyapunov import solve_lyapunov  # noqa: F401
from .steady_state import solve_fixed_detuning, solve_self_consistent  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_UNKNOWN_PRESET = 3


def _header(config) -> list[str]:
    lines = [f"hopcav {__version__}", f"label: {config.label}"]
    for axis in config.axes:
        lines.append(
            f"axis {axis.name}: {len(axis.values)} values in "
            f"[{min(axis.values):.6g}, {max(axis.values):.6g}]"
        )
    lines.extend(config.header_notes)
    return lines


def _cmd_point(args) -> int:
    config = load_config(args.config)
    result = run_point(config, {})
    rec = result.records[0]
    if rec.error:
        print(f"point failed: {rec.error}", file=sys.stderr)
        return EXIT_NUMERICAL

    steady = result.steady_states[0]
    drift = result.drifts[0]
    diffusion = result.diffusion
    if isinstance(diffusion, HopcavError):
        # an unstable point needs no diffusion, but the document has one
        raise diffusion
    nbar = rec.nbar

    payload = {
        "quadrature_order": ["q1", "p1", "x1", "y1", "q2", "p2", "x2", "y2"],
        "steady_state": {
            "amp_re": [steady.amp[0].real, steady.amp[1].real],
            "amp_im": [steady.amp[0].imag, steady.amp[1].imag],
            "displacement": list(steady.displacement),
            "eff_detuning_rad_s": list(steady.eff_detuning),
            "eff_coupling_rad_s": list(steady.eff_coupling),
            "residual": steady.residual,
            "branch": steady.branch,
        },
        "drift": drift.flatten().tolist(),
        "diffusion": diffusion.flatten().tolist(),
        "record": {col: getattr(rec, col) for col in CSV_COLUMNS},
    }
    if rec.stable:
        payload["covariance"] = result.covariances[0].flatten().tolist()
        payload["lyap_residual"] = rec.lyap_residual

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"delta = {rec.delta:.6g} omega_m, xi = {rec.xi:.6g} omega_m, "
              f"P = {rec.power * 1e3:.6g} mW, nbar = {nbar:.6g}, "
              f"N = {rec.photon_number:.6g}, M = {rec.correlation:.6g}")
        print(f"|amp| = ({rec.amp1:.6g}, {rec.amp2:.6g}), G/omega_m = {rec.coupling_ratio:.6g}")
        print(f"stable = {rec.stable}, s1 = {rec.s1:.6g}, s2 = {rec.s2:.6g}")
        if rec.stable:
            print(f"E_N: f1m1 = {rec.en_f1m1:.6g}, f2m2 = {rec.en_f2m2:.6g}, "
                  f"m1m2 = {rec.en_m1m2:.6g}, f1f2 = {rec.en_f1f2:.6g}")
            print(f"fidelity = {rec.fidelity:.6g}, bound = {rec.fidelity_bound:.6g}, "
                  f"lyapunov residual = {rec.lyap_residual:.3e}")
        else:
            print("no steady state: measures not emitted")
    if rec.stable and (rec.lyap_residual is None or rec.lyap_residual >= RESIDUAL_GATE):
        return EXIT_NUMERICAL
    return EXIT_OK


def _write_sweep(config, out_path: Path, workers: int) -> int:
    result = run_sweep(config, workers=workers)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(result.records, _header(config)))
    print(f"wrote {len(result.records)} records to {out_path}")
    return EXIT_NUMERICAL if result.residual_failure else EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    return _write_sweep(config, Path(args.out), args.workers)


GNUPLOT_TEMPLATE = """\
# gnuplot script for {name}.csv
set datafile separator ','
set key autotitle columnhead
set xlabel 'delta / omega_m'
set ylabel 'E_N'
plot '{name}.csv' using 1:13 with lines
"""


def _cmd_fig(args) -> int:
    try:
        config = fig_preset(args.preset)
    except UnknownPresetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN_PRESET
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = _write_sweep(config, out_dir / f"{args.preset}.csv", args.workers)
    if args.gnuplot:
        (out_dir / f"{args.preset}.gp").write_text(
            GNUPLOT_TEMPLATE.format(name=args.preset), encoding="utf-8"
        )
    return code


def _cmd_stability(args) -> int:
    config = load_config(args.config)
    axes = {a.name: a.values for a in config.axes}
    if set(axes) != {"delta", "xi"}:
        raise ConfigError("the stability command needs exactly the axes 'delta' and 'xi'")
    reports = stability_map(
        config.params, axes["delta"], axes["xi"], detuning_sign=config.detuning_sign
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    both = sum(1 for r in reports if r.s1 > 0 and r.s2 > 0)
    disagreements = sum(1 for r in reports if not r.agree)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for line in _header(config):
            fh.write(f"# {line}\n")
        fh.write("# axes quote the detuning positive on the cooling side; the "
                 "collective conditions use the modified detuning delta + xi\n")
        fh.write(f"# both-conditions region: {both} of {len(reports)} points; "
                 f"sign/eigenvalue disagreements: {disagreements}\n")
        fh.write("delta,xi,s1,s2,hurwitz_reduced,hurwitz_full,agree\n")
        for r in reports:
            fh.write(
                f"{r.delta:.12g},{r.xi:.12g},{r.s1:.12g},{r.s2:.12g},"
                f"{'true' if r.hurwitz_reduced else 'false'},"
                f"{'true' if r.hurwitz_full else 'false'},"
                f"{'true' if r.agree else 'false'}\n"
            )
    print(f"wrote {len(reports)} stability reports to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    problems = validate_config(args.config)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_CONFIG
    print("configuration ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopcav",
        description="Stationary entanglement and stability of two photon-hopping-"
                    "coupled optomechanical cavities driven by squeezed light.",
    )
    parser.add_argument("--version", action="version", version=f"hopcav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="evaluate one working point (matrices and measures)")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("sweep", help="run a configured parameter sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig", help="run a named figure preset")
    p.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("stability", help="emit a stability-map CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("validate", help="schema and invariant check only")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnknownPresetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN_PRESET
    except HopcavError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
