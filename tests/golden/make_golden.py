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
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO = GOLDEN_DIR.parent.parent
POINT_CONFIG = REPO / "configs" / "point.json"
STABILITY_PRESET = "fig5"
STABILITY_STRIDE = 5
STABILITY_COLUMNS = ("delta", "xi", "s1", "s2", "hurwitz_reduced", "hurwitz_full", "agree")


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


def stability_table(reports) -> str:
    def cell(v):
        return ("true" if v else "false") if isinstance(v, bool) else format(v, ".12g")

    rows = [",".join(cell(getattr(r, c)) for c in STABILITY_COLUMNS) for r in reports]
    return "\n".join((",".join(STABILITY_COLUMNS), *rows)) + "\n"


def main() -> None:
    from hopcav.cli import main as cli_main
    from hopcav.engine import grid_points, run_point
    from hopcav.presets import PRESET_NAMES, fig_preset
    from hopcav.stability import stability_map

    for name in PRESET_NAMES:
        config = fig_preset(name)
        per_point = [run_point(config, p).records for p in grid_points(config)]
        keep = sorted(set(decimated_indices(config)) | set(edge_indices(config, per_point)))
        rows = [(i, rec) for i in keep for rec in per_point[i]]
        _gz(GOLDEN_DIR / f"{name}.csv.gz", preset_table(config, rows))
        print(f"{name}: {len(keep)} points, {len(rows)} rows")

    config = fig_preset(STABILITY_PRESET)
    axes = {a.name: a.values for a in config.axes}
    reports = stability_map(config.params, axes["delta"][::STABILITY_STRIDE],
                            axes["xi"][::STABILITY_STRIDE], config.detuning_sign)
    _gz(GOLDEN_DIR / f"{STABILITY_PRESET}-stability.csv.gz", stability_table(reports))

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["point", "--config", str(POINT_CONFIG), "--json"])
    if code != 0:
        raise SystemExit(f"hopcav point exited {code}")
    (GOLDEN_DIR / "point.json").write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    main()
