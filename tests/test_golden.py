"""Outputs against the golden files in ``tests/golden/`` (see
``tests/golden/make_golden.py``): categorical cells exactly, floats to
``rtol=1e-9``, and the Lyapunov residual only against its gate."""

import contextlib
import dataclasses
import gzip
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from hopcav.cli import main
from hopcav.engine import AxisSpec, csv_text, grid_points, run_point, run_sweep
from hopcav.lyapunov import RESIDUAL_GATE
from hopcav.presets import PRESET_NAMES, fig_preset
from hopcav.stability import stability_map

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
EXACT = ("stable", "branch", "error", "hurwitz_reduced", "hurwitz_full", "agree", "point")
GATED = ("lyap_residual",)

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def _cell(column, text):
    if column == "error":
        return text
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if column in ("branch", "point"):
        return int(text)
    return float(text)


def read_rows(text):
    lines = text.splitlines()
    columns = lines[0].split(",")
    return columns, [
        {c: _cell(c, v) for c, v in zip(columns, line.split(",", len(columns) - 1))}
        for line in lines[1:]
    ]


def differences(got, ref, where="") -> list[str]:
    """Every difference between two parsed outputs (rows, lists or dicts)."""
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return [f"{where}: keys differ: {sorted(set(got) ^ set(ref))}"]
        out = []
        for key, value in ref.items():
            if key in GATED:
                if value is not None and not (got[key] is not None and got[key] < RESIDUAL_GATE):
                    out.append(f"{where}.{key} = {got[key]!r} misses the gate")
                elif value is None and got[key] is not None:
                    out.append(f"{where}.{key} = {got[key]!r}, golden empty")
            elif key in EXACT:
                if got[key] != value:
                    out.append(f"{where}.{key} = {got[key]!r}, golden {value!r}")
            else:
                out.extend(differences(got[key], value, f"{where}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length {len(got)} against golden {len(ref)}"]
        return [d for i, (g, r) in enumerate(zip(got, ref)) for d in differences(g, r, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float) and not isinstance(got, bool):
        if ref == got or abs(got - ref) <= RTOL * max(abs(got), abs(ref)):
            return []
        return [f"{where} = {got!r}, golden {ref!r} (rtol {RTOL:g})"]
    if got != ref or type(got) is not type(ref):
        return [f"{where} = {got!r}, golden {ref!r}"]
    return []


def golden_text(name):
    return gzip.decompress((GOLDEN / name).read_bytes()).decode("utf-8")


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_rows_match_golden(preset):
    config = fig_preset(preset)
    columns, golden = read_rows(golden_text(f"{preset}.csv.gz"))
    points = grid_points(config)
    by_point = {}
    for row in golden:
        by_point.setdefault(row["point"], []).append(row)

    # the decimated grid is a product grid: evaluate it as one sweep
    decimated = make_golden.decimated_indices(config)
    axes = tuple(AxisSpec(a.name, a.values[::s])
                 for a, s in zip(config.axes, make_golden.strides(config)))
    swept = run_sweep(dataclasses.replace(config, axes=axes)).records
    expected = [dict(row, point=i) for i in decimated for row in by_point[i]]
    got_cols, got = read_rows(csv_text(swept))
    assert ["point"] + got_cols == columns
    assert len(got) == len(expected)
    got = [dict(row, point=ref["point"]) for row, ref in zip(got, expected)]
    problems = differences(got, expected, preset)

    # the rows around stability and branch-count changes, point by point
    for i in sorted(set(by_point) - set(decimated)):
        _, rows = read_rows(csv_text(run_point(config, points[i]).records))
        problems += differences([dict(r, point=i) for r in rows], by_point[i], f"{preset}[{i}]")
    assert problems == [], problems[:5]


def test_stability_map_matches_golden():
    config = fig_preset(make_golden.STABILITY_PRESET)
    axes = {a.name: a.values for a in config.axes}
    step = make_golden.STABILITY_STRIDE
    reports = stability_map(config.params, axes["delta"][::step], axes["xi"][::step],
                            config.detuning_sign)
    _, got = read_rows(make_golden.stability_table(reports))
    _, golden = read_rows(golden_text(f"{make_golden.STABILITY_PRESET}-stability.csv.gz"))
    assert len(golden) == len(reports)
    problems = differences(got, golden, "fig5-stability")
    assert problems == [], problems[:5]


def test_point_json_matches_golden():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["point", "--config", str(make_golden.POINT_CONFIG), "--json"])
    assert code == 0
    got = json.loads(buf.getvalue())
    golden = json.loads((GOLDEN / "point.json").read_text(encoding="utf-8"))
    problems = differences(got, golden, "point")
    assert problems == [], problems[:5]
    assert all(math.isfinite(v) for v in got["covariance"])
