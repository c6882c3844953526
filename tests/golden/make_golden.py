"""Write the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/make_golden.py

The files record what the hopcav on the import path computes, so run this only
on purpose: at a commit whose outputs are the accepted ones.  It writes

* ``<preset>.csv.gz`` for every figure preset: the rows of a decimated grid
  (every ``stride``-th value of each axis, see :func:`strides`) and the rows
  of every pair of neighbouring grid points where the stable flags or the
  number of branch rows change along an axis.  The first column, ``point``,
  is the row-major grid index of the row's point.
* ``fig5-stability.csv.gz``: the fig5 stability map on every fifth value of
  each axis, in the ``hopcav stability`` row format.
* ``point.json``: the output of ``hopcav point --json`` for
  ``configs/point.json``.
* ``axis-kinds.json.gz``: the full sweep CSV (no header lines) of every
  document of :func:`axis_kind_docs`, by name: small grids on every axis kind,
  with bad axis values, in effective mode and in bare mode with every branch.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO = GOLDEN_DIR.parent.parent
POINT_CONFIG = REPO / "configs" / "point.json"
STABILITY_PRESET = "fig5"
STABILITY_STRIDE = 5
AXIS_KINDS = "axis-kinds.json.gz"

DELTAS = {"name": "delta", "values": [0.2, 0.6, 1.0, 1.4, 1.8]}
# name -> (axes, top-level overrides of configs/point.json); negative xi,
# power, temperature, nbar and photon_number values are bad, and pairs of bad
# axes come in both orders, so the first bad axis decides a row's error
AXIS_CASES = {
    "delta-xi": ([DELTAS, {"name": "xi", "values": [-0.5, 0.0, 0.5, 1.0]}], {}),
    "power": ([{"name": "power", "values": [-10.0, 20.0, 50.0, 75.0], "unit": "mW"}, DELTAS], {}),
    "temperature": ([{"name": "temperature", "values": [-1.0, 0.0, 0.4, 4.0]}, DELTAS], {}),
    "temperature-nbar-fixed": ([{"name": "temperature", "values": [-1.0, 0.4]}, DELTAS],
                               {"nbar": 836.0}),
    "nbar": ([{"name": "nbar", "values": [-1.0, 0.0, 836.0]}, DELTAS], {}),
    "photon_number-ideal": ([{"name": "photon_number", "values": [-0.05, 0.0, 0.05, 0.1]},
                             DELTAS], {}),
    "photon_number-fixed": ([{"name": "photon_number", "values": [-0.05, 0.0, 0.05, 0.1, 0.5]},
                             {"name": "xi", "values": [0.0, 0.5]}],
                            {"bath": {"photon_number": 0.0, "correlation": 0.3}}),
    "xi-power": ([{"name": "xi", "values": [-0.5, 0.5]},
                  {"name": "power", "values": [-0.01, 0.05]}], {}),
    "power-xi": ([{"name": "power", "values": [-0.01, 0.05]},
                  {"name": "xi", "values": [-0.5, 0.5]}], {}),
    "temperature-photon_number": ([{"name": "temperature", "values": [-1.0, 0.4]},
                                   {"name": "photon_number", "values": [-0.05, 0.05]}], {}),
    "photon_number-temperature": ([{"name": "photon_number", "values": [-0.05, 0.05]},
                                   {"name": "temperature", "values": [-1.0, 0.4]}], {}),
    "nbar-xi": ([{"name": "nbar", "values": [-1.0, 836.0]},
                 {"name": "xi", "values": [-0.5, 0.5]}], {}),
    "xi-nbar": ([{"name": "xi", "values": [-0.5, 0.5]},
                 {"name": "nbar", "values": [-1.0, 836.0]}], {}),
    "bistable": ([{"name": "delta", "values": [-4.3, -3.9, -3.5]},
                  {"name": "power", "values": [20.0, 100.0], "unit": "mW"}], {}),
}


def strides(config) -> tuple[int, ...]:
    """Decimation step per axis: about ten steps across each axis."""
    return tuple(max(1, (len(a.values) - 1) // 10) for a in config.axes)


def decimated_indices(config) -> list[int]:
    """Row-major grid indices of the decimated grid's points."""
    shape = [len(a.values) for a in config.axes]
    steps = strides(config)
    out = []
    for flat, idx in enumerate(itertools.product(*(range(n) for n in shape))):
        if all(i % s == 0 for i, s in zip(idx, steps)):
            out.append(flat)
    return out


def edge_indices(config, per_point) -> list[int]:
    """Grid indices on either side of every change of the stable flags or of
    the branch-row count between neighbouring points along one axis."""
    shape = [len(a.values) for a in config.axes]
    signature = [(tuple(r.stable for r in recs), len(recs)) for recs in per_point]
    out = set()
    for flat, idx in enumerate(itertools.product(*(range(n) for n in shape))):
        stride = 1
        for axis in reversed(range(len(shape))):
            if idx[axis] + 1 < shape[axis] and signature[flat] != signature[flat + stride]:
                out.update((flat, flat + stride))
            stride *= shape[axis]
    return sorted(out)


def axis_kind_docs() -> dict[str, dict]:
    """Every case of ``AXIS_CASES`` on ``configs/point.json``, once in
    effective mode and once (name suffix ``-bare``) in bare mode with
    ``branch_policy`` ``all``."""
    base = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    docs = {}
    for name, (axes, extra) in AXIS_CASES.items():
        doc = dict(base, label=name, axes=axes, **extra)
        docs[name] = doc
        docs[f"{name}-bare"] = dict(doc, detuning=dict(base["detuning"], mode="bare"),
                                    branch_policy="all")
    return docs


def axis_kind_csvs(workers: int = 1) -> dict[str, str]:
    """Sweep CSV text of every document of :func:`axis_kind_docs`."""
    from hopcav.config import parse_config
    from hopcav.engine import csv_text, run_sweep

    return {name: csv_text(run_sweep(parse_config(doc), workers=workers).records)
            for name, doc in axis_kind_docs().items()}


def _gz(path: Path, text: str) -> None:
    # mtime 0: the same text always gives the same bytes
    path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


def preset_table(config, indexed_records) -> str:
    """CSV text with a leading ``point`` column, in the sweep's cell format."""
    from hopcav.engine import csv_text

    records = [rec for _, rec in indexed_records]
    lines = csv_text(records).splitlines(keepends=True)
    body = [f"{i},{line}" for (i, _), line in zip(indexed_records, lines[1:])]
    return "point," + lines[0] + "".join(body)


def stability_columns():
    """The columns of the ``STABILITY_PRESET`` stability map on every
    ``STABILITY_STRIDE``-th value of each axis."""
    from hopcav.presets import fig_preset
    from hopcav.stability import map_columns

    config = fig_preset(STABILITY_PRESET)
    axes = {a.name: a.values for a in config.axes}
    return map_columns(config.params, axes["delta"][::STABILITY_STRIDE],
                       axes["xi"][::STABILITY_STRIDE], config.detuning_sign)


def stability_table(columns) -> str:
    """CSV text of a stability map's columns: the column row and the lines
    that ``hopcav stability`` writes after its header lines."""
    from hopcav.engine import stability_csv, write_table
    from hopcav.stability import StabilityReport

    buf = io.StringIO()
    write_table(buf, (), StabilityReport._fields, stability_csv(columns))
    return buf.getvalue()


def main() -> None:
    from hopcav.cli import main as cli_main
    from hopcav.engine import grid_points, run_point
    from hopcav.presets import PRESET_NAMES, fig_preset

    for name in PRESET_NAMES:
        config = fig_preset(name)
        per_point = [run_point(config, p).records for p in grid_points(config)]
        keep = sorted(set(decimated_indices(config)) | set(edge_indices(config, per_point)))
        rows = [(i, rec) for i in keep for rec in per_point[i]]
        _gz(GOLDEN_DIR / f"{name}.csv.gz", preset_table(config, rows))
        print(f"{name}: {len(keep)} points, {len(rows)} rows")

    _gz(GOLDEN_DIR / f"{STABILITY_PRESET}-stability.csv.gz", stability_table(stability_columns()))

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["point", "--config", str(POINT_CONFIG), "--json"])
    if code != 0:
        raise SystemExit(f"hopcav point exited {code}")
    (GOLDEN_DIR / "point.json").write_text(buf.getvalue(), encoding="utf-8")

    _gz(GOLDEN_DIR / AXIS_KINDS, json.dumps(axis_kind_csvs(), indent=0, sort_keys=True))


if __name__ == "__main__":
    main()
