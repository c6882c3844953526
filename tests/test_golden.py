"""Outputs against the golden files in ``tests/golden/`` (see
``tests/golden/make_golden.py``), parsed and bounded by the benchmark's
comparator (``perfbench/check.py``): categorical cells exactly, floats to its
``RTOL``, and the Lyapunov residual only against its gate."""

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
from hopcav import stability
from hopcav.stability import stability_map

# the benchmark's modules, from perfbench/ on the test path (pyproject.toml)
import check
import inputs
import workloads

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden preset rows also carry their grid point's row-major index
EXACT = (*check.EXACT_COLUMNS, "point")

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def differences(got, ref, where="") -> list[str]:
    """Every difference between two parsed outputs (rows, lists or dicts)."""
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return [f"{where}: keys differ: {sorted(set(got) ^ set(ref))}"]
        out = []
        for key, value in ref.items():
            if key in check.GATED_COLUMNS:
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
        if ref == got or abs(got - ref) <= check.RTOL * max(abs(got), abs(ref)):
            return []
        return [f"{where} = {got!r}, golden {ref!r} (rtol {check.RTOL:g})"]
    if got != ref or type(got) is not type(ref):
        return [f"{where} = {got!r}, golden {ref!r}"]
    return []


def golden_text(name):
    return gzip.decompress((GOLDEN / name).read_bytes()).decode("utf-8")


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_rows_match_golden(preset):
    config = fig_preset(preset)
    golden = [dict(row, point=int(row["point"]))
              for row in check.read_table(golden_text(f"{preset}.csv.gz"))]
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
    got = check.read_table(csv_text(swept))
    assert ["point", *got[0]] == list(golden[0])
    assert len(got) == len(expected)
    got = [dict(row, point=ref["point"]) for row, ref in zip(got, expected)]
    problems = differences(got, expected, preset)

    # the rows around stability and branch-count changes, point by point
    for i in sorted(set(by_point) - set(decimated)):
        rows = check.read_table(csv_text(run_point(config, points[i]).records))
        problems += differences([dict(r, point=i) for r in rows], by_point[i], f"{preset}[{i}]")
    assert problems == [], problems[:5]


def test_stability_map_matches_golden():
    config = fig_preset(make_golden.STABILITY_PRESET)
    axes = {a.name: a.values for a in config.axes}
    step = make_golden.STABILITY_STRIDE
    reports = stability_map(config.params, axes["delta"][::step], axes["xi"][::step],
                            config.detuning_sign)
    got = check.read_table(make_golden.stability_table(reports))
    golden = check.read_table(golden_text(f"{make_golden.STABILITY_PRESET}-stability.csv.gz"))
    assert len(golden) == len(reports)
    problems = differences(got, golden, "fig5-stability")
    assert problems == [], problems[:5]


def test_stability_cli_matches_the_benchmark_reference_bytes(tmp_path, monkeypatch):
    # the benchmark's fig5 map, written by ``hopcav stability`` from the map's
    # columns: its rows are the benchmark's reference table byte for byte,
    # and no per-point report is built on the way
    def no_reports(self):
        raise AssertionError("the CLI built the map's reports")

    monkeypatch.setattr(stability.MapColumns, "reports", no_reports)
    paths = inputs.write_configs(inputs.grid_configs("stability", 0), tmp_path)
    out = tmp_path / "fig5.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stability", "--config", str(paths["fig5"]), "--out", str(out)]) == 0
    reference = gzip.decompress((workloads.REFERENCE_DIR / "fig5.csv.gz").read_bytes())
    assert workloads.data_text(out.read_text(encoding="utf-8")) == reference.decode("utf-8")


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


def test_axis_kinds_match_golden_bytes():
    # every axis kind with bad values: the CSV bytes, error texts included
    golden = json.loads(golden_text(make_golden.AXIS_KINDS))
    got = make_golden.axis_kind_csvs()
    assert sorted(got) == sorted(golden)
    assert [name for name in golden if got[name] != golden[name]] == []


def test_axis_kinds_cross_the_pool():
    # with 2 workers the axis tables, error entries included, are pickled to
    # the pool's processes; the bytes stay the same
    golden = json.loads(golden_text(make_golden.AXIS_KINDS))
    got = make_golden.axis_kind_csvs(workers=2)
    assert sorted(got) == sorted(golden)
    assert [name for name in golden if got[name] != golden[name]] == []
