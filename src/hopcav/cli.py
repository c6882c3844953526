"""Command-line interface.

Commands: ``point`` (full matrices and measures at one working point),
``sweep`` (grid to CSV), ``fig`` (named figure presets), ``stability``
(stability-map CSV), and ``validate`` (configuration check only).

Exit codes: 0 success, 1 configuration error (an input that cannot be read
or is invalid, or an output path that cannot be written), 2 numerical failure
(a stable point missed the residual gate), 3 unknown preset.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import operator
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .config import load_config, validate_config
from .dynamics import QUADRATURE_LABELS
from .engine import (CSV_COLUMNS, csv_points, map_chunks, misses_residual_gate, run_point,
                     stability_csv, write_table)
from .errors import ConfigError, HopcavError, UnknownPresetError
from .presets import PRESET_NAMES, fig_preset
from .stability import StabilityReport, map_columns

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# ``point`` takes its matrices from the run_point result instead,
# ``stability`` writes its CSV from the map's columns, and ``sweep`` and
# ``fig`` write the CSV texts of their chunks' tasks
from .dynamics import build_diffusion, figure_drift  # noqa: F401
from .engine import csv_text, run_sweep  # noqa: F401
from .lyapunov import solve_lyapunov  # noqa: F401
from .stability import stability_map  # noqa: F401
from .steady_state import solve_fixed_detuning, solve_self_consistent  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_UNKNOWN_PRESET = 3

_FLOATS = frozenset({float})
_STRINGS = frozenset({str})


def json_text(doc, indent: str = "") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a document nested
    ``indent`` deep.

    Strings, ints, bools, None and finite floats are written directly, and a
    list of finite floats (exact ``float``, not a subclass) in one join; a
    list or a dict with str keys is written item by item.  Everything else
    (non-finite floats, float subclasses such as NumPy scalars, non-str keys,
    empty containers) goes to ``json.dumps``.
    """
    kind = type(doc)
    if kind is float:
        text = float.__repr__(doc)
        if "n" not in text:  # 'nan' and 'inf' are the only reprs with an n
            return text
    elif kind is str:
        return encode_basestring_ascii(doc)
    elif kind is int:
        return int.__repr__(doc)
    elif kind is bool:
        return "true" if doc else "false"
    elif doc is None:
        return "null"
    elif (kind is list or kind is tuple) and doc:
        inner = indent + "  "
        separator = ",\n" + inner
        text = None
        if set(map(type, doc)) == _FLOATS:
            text = separator.join(map(float.__repr__, doc))
        if text is None or "n" in text:
            text = separator.join([json_text(item, inner) for item in doc])
        return "[\n" + inner + text + "\n" + indent + "]"
    elif kind is dict and doc and set(map(type, doc)) == _STRINGS:
        inner = indent + "  "
        return "{\n" + inner + (",\n" + inner).join(
            [encode_basestring_ascii(key) + ": " + json_text(value, inner)
             for key, value in doc.items()]) + "\n" + indent + "}"
    # json.dumps writes no raw newline inside a string
    return json.dumps(doc, indent=2).replace("\n", "\n" + indent)


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
    # the base parameters alone: checked as a configuration without its axes
    config = load_config(args.config)
    if config.axes:
        config = replace(config, axes=())
    result = run_point(config)
    rec = result.records[0]
    if rec.error:
        print(f"point failed: {rec.error}", file=sys.stderr)
        return EXIT_NUMERICAL

    steady = result.steady_states[0]

    payload = {
        "quadrature_order": list(QUADRATURE_LABELS),
        "steady_state": {
            "amp_re": [steady.amp[0].real, steady.amp[1].real],
            "amp_im": [steady.amp[0].imag, steady.amp[1].imag],
            "displacement": list(steady.displacement),
            "eff_detuning_rad_s": list(steady.eff_detuning),
            "eff_coupling_rad_s": list(steady.eff_coupling),
            "residual": steady.residual,
            "branch": steady.branch,
        },
        "drift": result.drifts[0].flatten().tolist(),
        "diffusion": result.diffusion.flatten().tolist(),
        "record": rec._asdict(),
    }
    if rec.stable:
        payload["covariance"] = result.covariances[0].flatten().tolist()
        payload["lyap_residual"] = rec.lyap_residual

    if args.json:
        print(json_text(payload))
    else:
        print(f"delta = {rec.delta:.6g} omega_m, xi = {rec.xi:.6g} omega_m, "
              f"P = {rec.power * 1e3:.6g} mW, nbar = {rec.nbar:.6g}, "
              f"N = {rec.photon_number:.6g}, M = {rec.correlation:.6g}")
        print(f"|amp| = ({rec.amp1:.6g}, {rec.amp2:.6g}), G/omega_m = {rec.coupling_ratio:.6g}")
        # the stability scalars exist only where the drift has a collective
        # model (see stability.gate_branches)
        s1, s2 = ("n/a" if s is None else f"{s:.6g}" for s in (rec.s1, rec.s2))
        print(f"stable = {rec.stable}, s1 = {s1}, s2 = {s2}")
        if rec.stable:
            print(f"E_N: f1m1 = {rec.en_f1m1:.6g}, f2m2 = {rec.en_f2m2:.6g}, "
                  f"m1m2 = {rec.en_m1m2:.6g}, f1f2 = {rec.en_f1f2:.6g}")
            print(f"fidelity = {rec.fidelity:.6g}, bound = {rec.fidelity_bound:.6g}, "
                  f"lyapunov residual = {rec.lyap_residual:.3e}")
        else:
            print("no steady state: measures not emitted")
    return EXIT_NUMERICAL if misses_residual_gate(rec) else EXIT_OK


@contextlib.contextmanager
def _writing(path: Path):
    """An ``OSError`` raised while ``path`` is made ready or written is a
    configuration error that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _ready(*paths: Path) -> None:
    """Make each output's parent directory, and reject an output that is a
    directory as ``open`` would, before any point is evaluated; no file is
    opened, so an earlier one stays as it is until its output is written."""
    for path in paths:
        with _writing(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


@contextlib.contextmanager
def _output(path: Path):
    """``path`` open for writing (UTF-8, LF line ends), its parent directory
    made by :func:`_ready`."""
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as stream:
        yield stream


def _write_sweep(config, out_path: Path, workers: int) -> int:
    # each chunk's CSV text, formatted where it was evaluated; zip reads every
    # chunk first, so the file is opened only once every chunk has returned
    texts, counts, misses = zip(*map_chunks(csv_points, config, workers))
    with _output(out_path) as stream:
        # one write, not one per chunk: the joined text's large block raises
        # glibc's mmap threshold, so later sweeps fault in fewer fresh pages
        write_table(stream, _header(config), CSV_COLUMNS, "".join(texts))
    print(f"wrote {sum(counts)} records to {out_path}")
    return EXIT_NUMERICAL if any(misses) else EXIT_OK


def _worker_count(text: str) -> int:
    """A ``--workers`` value: at least one process."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    _ready(out)
    return _write_sweep(config, out, args.workers)


GNUPLOT_TEMPLATE = """\
# gnuplot script for {name}.csv
set datafile separator ','
set key autotitle columnhead
set xlabel 'delta / omega_m'
set ylabel 'E_N'
plot '{name}.csv' using 1:13 with lines
"""


def _cmd_fig(args) -> int:
    config = fig_preset(args.preset)
    out_dir = Path(args.out)
    out, script = out_dir / f"{args.preset}.csv", out_dir / f"{args.preset}.gp"
    _ready(out, *([script] if args.gnuplot else []))
    code = _write_sweep(config, out, args.workers)
    if args.gnuplot:
        with _output(script) as stream:
            stream.write(GNUPLOT_TEMPLATE.format(name=args.preset))
    return code


def _cmd_stability(args) -> int:
    config = load_config(args.config)
    axes = {a.name: a.values for a in config.axes}
    if set(axes) != {"delta", "xi"}:
        raise ConfigError("the stability command needs exactly the axes 'delta' and 'xi'")
    out = Path(args.out)
    _ready(out)
    columns = map_columns(
        config.params, axes["delta"], axes["xi"], detuning_sign=config.detuning_sign
    )
    count = len(columns.agree)
    # agree is (s1 > 0 and s2 > 0) == hurwitz_reduced: equal where both hold
    both = sum(map(operator.eq, columns.agree, columns.hurwitz_reduced))
    disagreements = columns.agree.count(False)
    # s1/s2 are taken at s (delta + xi), s = -1 under the negative sign
    modified = "delta + xi" if config.detuning_sign == "positive" else "-(delta + xi)"
    header = [*_header(config),
              "axes quote the detuning positive on the cooling side; the collective "
              f"conditions use the modified detuning {modified}",
              f"both-conditions region: {both} of {count} points; "
              f"sign/eigenvalue disagreements: {disagreements}"]
    with _output(out) as stream:
        write_table(stream, header, StabilityReport._fields, stability_csv(columns))
    print(f"wrote {count} stability reports to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    problems = validate_config(args.config)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_CONFIG
    print("configuration ok")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
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
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig", help="run a named figure preset")
    p.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_worker_count, default=1)
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
