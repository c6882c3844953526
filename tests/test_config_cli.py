import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopcav
from hopcav import cli
from hopcav.cli import main
from hopcav.config import parse_config, validate_config
from hopcav.errors import ConfigError
from hopcav.presets import PRESET_NAMES
from hopcav.stability import MapColumns

TWO_PI = 2.0 * math.pi

BASE_DOC = {
    "label": "test",
    "cavity": {
        "cavity_length": {"value": 1.0, "unit": "mm"},
        "mirror_mass": {"value": 5.0, "unit": "ng"},
        "mech_freq": {"value": 10.0, "unit": "MHz"},
        "mech_damping": {"value": 100.0, "unit": "Hz"},
        "cavity_decay": {"value": 14.0, "unit": "MHz"},
        "laser_wavelength": {"value": 810.0, "unit": "nm"},
        "drive_power": {"value": 50.0, "unit": "mW"},
        "bath_temperature": {"value": 0.4, "unit": "K"},
        "hop_strength": {"value": 0.5, "unit": "omega_m"},
    },
    "bath": {"photon_number": 0.05, "correlation": "ideal"},
    "detuning": {"mode": "effective", "value": {"value": 1.0, "unit": "omega_m"}},
}


def write_doc(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def doc_with(**updates):
    doc = json.loads(json.dumps(BASE_DOC))
    for key, value in updates.items():
        doc[key] = value
    return doc


class TestUnitConversion:
    def test_si_conversions(self):
        cfg = parse_config(BASE_DOC)
        p = cfg.params
        assert p.cavity_length[0] == pytest.approx(1e-3)
        assert p.mirror_mass[0] == pytest.approx(5e-12)
        assert p.mech_freq[0] == pytest.approx(TWO_PI * 1e7)
        assert p.mech_damping[0] == pytest.approx(TWO_PI * 100.0)
        assert p.cavity_decay[0] == pytest.approx(TWO_PI * 14e6)
        assert p.laser_wavelength == pytest.approx(810e-9)
        assert p.drive_power[0] == pytest.approx(0.05)
        assert p.hop_strength == pytest.approx(0.5 * TWO_PI * 1e7)
        assert p.detuning.value[0] == pytest.approx(TWO_PI * 1e7)

    def test_rad_s_literal(self):
        doc = doc_with()
        doc["cavity"]["hop_strength"] = {"value": 1.5e7, "unit": "rad/s"}
        assert parse_config(doc).params.hop_strength == pytest.approx(1.5e7)

    def test_per_cavity_lists(self):
        doc = doc_with()
        doc["cavity"]["drive_power"] = [
            {"value": 50.0, "unit": "mW"},
            {"value": 0.02, "unit": "W"},
        ]
        assert parse_config(doc).params.drive_power == pytest.approx((0.05, 0.02))

    def test_wrong_unit_kind(self):
        doc = doc_with()
        doc["cavity"]["mirror_mass"] = {"value": 5.0, "unit": "mm"}
        with pytest.raises(ConfigError, match="mass"):
            parse_config(doc)

    def test_unknown_unit(self):
        doc = doc_with()
        doc["cavity"]["cavity_decay"] = {"value": 14.0, "unit": "GHz"}
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_config(doc)

    def test_missing_field(self):
        doc = doc_with()
        del doc["cavity"]["mirror_mass"]
        with pytest.raises(ConfigError, match="mirror_mass"):
            parse_config(doc)

    def test_axes_parsing(self):
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 2.0, "count": 5},
            {"name": "power", "values": [25.0, 50.0], "unit": "mW"},
        ])
        cfg = parse_config(doc)
        assert cfg.axes[0].values == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert cfg.axes[1].values == (0.025, 0.05)
        doc["axes"][0]["count"] = 5.0
        doc["axes"][1] = {"name": "power", "values": [0.025, 0.05], "unit": "W"}
        assert parse_config(doc).axes == cfg.axes

    def test_dpo_bath(self):
        doc = doc_with(bath={"dpo": {
            "decay": {"value": 1.0, "unit": "rad/s"},
            "amplification": {"value": 0.25, "unit": "rad/s"},
        }})
        bath = parse_config(doc).bath.resolve()
        assert bath.photon_number == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_validate_reports_problems(self, tmp_path):
        good = write_doc(tmp_path, BASE_DOC, "good.json")
        assert validate_config(good) == []
        bad = doc_with(bath={"photon_number": 0.05, "correlation": 0.9})
        path = write_doc(tmp_path, bad, "bad.json")
        assert validate_config(path)


MALFORMED = [
    pytest.param("bath", {"dpo": {"amplification": {"value": 0.25, "unit": "rad/s"}}},
                 "bath.dpo.decay", id="dpo-without-decay"),
    pytest.param("bath", {"photon_number": "abc"}, "bath.photon_number", id="photon-number"),
    pytest.param("bath", {"dpo": 1.0}, "bath.dpo", id="dpo-not-an-object"),
    pytest.param("nbar", "x", "nbar", id="nbar"),
    pytest.param("detuning", 1.0, "detuning", id="detuning-not-an-object"),
    pytest.param("detuning", {"mode": "effective", "value": {"value": 1.0, "unit": ["omega_m"]}},
                 "detuning.value", id="unit-not-a-string"),
    pytest.param("axes", [{"name": "delta", "values": [0.5, "one"]}], "axes[0].values",
                 id="axis-value"),
    pytest.param("axes", [{"name": "delta", "values": 1.0}], "axes[0].values",
                 id="axis-values-not-a-list"),
    pytest.param("axes", [{"name": "delta", "min": 0.0, "max": 1.0, "count": "many"}],
                 "axes[0].count", id="axis-count"),
    pytest.param("axes", [{"name": "delta", "min": 0.0, "max": 1.0, "count": 2.9}],
                 "axes[0].count", id="axis-count-fractional"),
    pytest.param("axes", [{"name": "delta", "values": [0.5, 1.0], "unit": "mW"}],
                 "axes[0].unit", id="axis-unit-off-power"),
    pytest.param("axes", [{"name": "power", "values": [20.0, 50.0], "unit": "kW"}],
                 "axes[0].unit", id="axis-unit-unknown"),
    pytest.param("detuning_sign", "sideways", "detuning_sign", id="detuning-sign"),
    pytest.param("bath", {"photon_number": 0.05, "correlation": "maximal"}, "correlation",
                 id="bath-marker"),
    pytest.param("nbar", -1.0, "nbar", id="nbar-negative"),
    pytest.param("nbar", math.nan, "nbar", id="nbar-nan"),
    pytest.param("nbar", math.inf, "nbar", id="nbar-infinite"),
    pytest.param("bath", {"photon_number": math.nan}, "bath.photon_number",
                 id="photon-number-nan"),
    pytest.param("bath", {"photon_number": math.inf, "correlation": "ideal"},
                 "bath.photon_number", id="photon-number-infinite"),
    pytest.param("bath", {"photon_number": 0.05, "correlation": math.nan}, "bath.correlation",
                 id="correlation-nan"),
    # the base bath serves every point when no photon_number axis overrides it
    pytest.param("bath", {"photon_number": 0.0, "correlation": 0.3},
                 "bath: correlation 0.3 exceeds the quantum bound",
                 id="bath-above-quantum-bound"),
    # a dotted key sets a field of a section
    pytest.param("cavity.bath_temperature.value", math.inf, "bath_temperature",
                 id="temperature-infinite"),
    pytest.param("cavity.bath_temperature.value", math.nan, "bath_temperature",
                 id="temperature-nan"),
    pytest.param("cavity.laser_wavelength.value", math.inf, "laser_wavelength",
                 id="wavelength-infinite"),
    pytest.param("cavity.hop_strength.value", math.inf, "hop_strength", id="hopping-infinite"),
    pytest.param("cavity.drive_power.value", math.nan, "drive_power", id="power-nan"),
    pytest.param("detuning.value.value", math.nan, "detuning", id="detuning-nan"),
    pytest.param("bath", {"dpo": {"decay": {"value": math.inf, "unit": "MHz"},
                                  "amplification": {"value": 1.0, "unit": "MHz"}}},
                 "dpo_decay", id="dpo-decay-infinite"),
    pytest.param("bath", {"dpo": {"decay": {"value": 4.0, "unit": "MHz"},
                                  "amplification": {"value": 1.0, "unit": "MHz"},
                                  "center_freq": {"value": math.inf, "unit": "MHz"}}},
                 "center_freq", id="dpo-center-infinite"),
]


@pytest.mark.parametrize("key, value, field", MALFORMED)
def test_malformed_value_is_a_configuration_error(tmp_path, capsys, key, value, field):
    doc = doc_with(axes=[{"name": "delta", "values": [0.5, 1.0]}])
    *sections, name = key.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[name] = value
    path = write_doc(tmp_path, doc)
    problems = validate_config(path)
    assert len(problems) == 1 and field in problems[0]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("label", ["two\nlines", "trailing\r\n", "page\x0cbreak",
                                   ["not", "a", "string"], 5, None])
def test_label_is_one_line_of_text(tmp_path, capsys, label):
    # the label is a '#' line of the CSV header: a line break in it would
    # start a line that is neither a header nor the column row
    path = write_doc(tmp_path, doc_with(label=label,
                                        axes=[{"name": "delta", "values": [0.5, 1.0]}]))
    assert main(["validate", "--config", str(path)]) == 1
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert f"configuration error: label must be text on one line, got {label!r}" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("note", ["two\nlines", "\u2028", 5])
def test_header_notes_are_lines_of_text(note):
    config = parse_config(BASE_DOC)
    with pytest.raises(ConfigError, match="header_notes must be text on one line"):
        dataclasses.replace(config, header_notes=("a good note", note))
    assert dataclasses.replace(config, header_notes=("a good note",)).header_notes == (
        "a good note",)


def test_photon_number_axis_overrides_the_base_bath(tmp_path, capsys):
    # the base bath is above the quantum bound, but no point uses it
    doc = doc_with(bath={"photon_number": 0.0, "correlation": 0.3},
                   axes=[{"name": "photon_number", "values": [0.5, 1.0]}])
    path = write_doc(tmp_path, doc)
    assert validate_config(path) == []
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [row[-1] for row in rows[1:]] == ["", ""]
    assert [float(row[rows[0].index("correlation")]) for row in rows[1:]] == [0.3, 0.3]


def test_point_rejects_the_base_bath_the_axes_replace(tmp_path, capsys):
    # point evaluates the base parameters, whose bath is above the bound: a
    # configuration error, not a numerical failure
    doc = doc_with(bath={"photon_number": 0.0, "correlation": 0.3},
                   axes=[{"name": "photon_number", "values": [0.5, 1.0]}])
    path = write_doc(tmp_path, doc)
    assert main(["point", "--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("configuration error: bath: correlation 0.3 exceeds the quantum bound")


class TestCli:
    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        # each call, after an argparse error too, behaves as in a fresh process
        monkeypatch.setenv("COLUMNS", "80")
        path = str(write_doc(tmp_path, BASE_DOC))
        env = dict(os.environ, PYTHONPATH=str(Path(hopcav.__file__).resolve().parent.parent))
        for argv in (["point"], ["validate", "--config", path], ["point", "--config", path, "--json"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-c", "import sys; from hopcav.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv], capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("command", [["sweep", "--config", "cfg.json", "--out", "out.csv"],
                                         ["fig", "fig3a", "--out", "out"]])
    def test_workers_below_one_are_a_usage_error(self, capsys, command):
        # rejected by the parser, before any configuration is read
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--workers", workers])
            assert exc.value.code == 2
            assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err
        assert cli.build_parser().parse_args([*command, "--workers", "5000"]).workers == 5000

    def test_point_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        assert main(["point", "--config", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["drift"]) == 64
        assert len(payload["covariance"]) == 64
        assert payload["record"]["stable"] is True
        assert payload["quadrature_order"][0] == "q1"

    @pytest.mark.parametrize("case", ["stable", "unstable", "unequal-drives", "nan-residual"])
    def test_point_json_is_the_json_module_layout(self, tmp_path, capsys, monkeypatch, case):
        # the document reads as json.dumps(..., indent=2) writes it: the
        # stable layout of README "CLI", with null and NaN cells
        from hopcav import engine

        doc = doc_with()
        if case == "unstable":
            doc["detuning"]["value"] = {"value": -0.5, "unit": "omega_m"}
        elif case == "unequal-drives":
            doc["cavity"]["drive_power"] = [{"value": 50.0, "unit": "mW"},
                                            {"value": 40.0, "unit": "mW"}]
        elif case == "nan-residual":
            def nan_residuals(*args, _fn=engine.lyapunov_stack):
                w, residuals = _fn(*args)
                return w, np.full_like(residuals, np.nan)

            monkeypatch.setattr(engine, "lyapunov_stack", nan_residuals)
        code = main(["point", "--config", str(write_doc(tmp_path, doc)), "--json"])
        out = capsys.readouterr().out
        assert code == (2 if case == "nan-residual" else 0)
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        record = payload["record"]
        assert ("covariance" in payload) == record["stable"] == (case != "unstable")
        assert (record["s1"] is None) == (case == "unequal-drives")
        residual = record["lyap_residual"]
        if case == "unstable":
            assert residual is None
        else:
            assert math.isnan(residual) == (case == "nan-residual")

    def test_point_text_without_stability_scalars(self, tmp_path, capsys):
        # unequal drives: the collective scalars s1, s2 do not exist
        doc = doc_with()
        doc["cavity"]["drive_power"] = [{"value": 50.0, "unit": "mW"},
                                        {"value": 40.0, "unit": "mW"}]
        path = write_doc(tmp_path, doc)
        assert main(["point", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "s1 = n/a, s2 = n/a" in out
        assert main(["point", "--config", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)["record"]
        assert record["s1"] is None and record["s2"] is None

    @pytest.mark.parametrize("detunings", [(1.0, 1.3), (1.0, 1.0)])
    def test_point_text_scalars_need_equal_detunings(self, tmp_path, capsys, detunings):
        # identical cavities: only equal detunings give a collective model
        doc = doc_with()
        doc["detuning"]["value"] = [{"value": d, "unit": "omega_m"} for d in detunings]
        assert main(["point", "--config", str(write_doc(tmp_path, doc))]) == 0
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("stable = ")]
        s1, s2 = (cell.split(" = ")[1] for cell in line.split(", ")[1:])
        if detunings[0] == detunings[1]:
            assert float(s1) and float(s2)
        else:
            assert (s1, s2) == ("n/a", "n/a")

    def test_point_solves_once(self, tmp_path, capsys, monkeypatch):
        # the command reuses the working point, matrices and covariance of
        # its run_point result
        from hopcav import cli, engine

        calls = []
        for module, name in ((engine, "lyapunov_stack"), (engine, "fixed_detuning_points"),
                             (engine, "solve_fixed_detuning"), (cli, "solve_fixed_detuning"),
                             (cli, "solve_lyapunov")):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        path = write_doc(tmp_path, BASE_DOC)
        assert main(["point", "--config", str(path), "--json"]) == 0
        assert sorted(calls) == ["fixed_detuning_points", "lyapunov_stack"]
        payload = json.loads(capsys.readouterr().out)
        assert payload["lyap_residual"] == payload["record"]["lyap_residual"]

    @pytest.mark.parametrize("command", ["sweep", "point", "sweep-last-chunk"])
    def test_nan_residual_misses_the_gate(self, tmp_path, capsys, monkeypatch, command):
        from hopcav import engine

        def nan_residuals(*args, _fn=engine.lyapunov_stack):
            w, residuals = _fn(*args)
            return w, np.full_like(residuals, np.nan)

        monkeypatch.setattr(engine, "lyapunov_stack", nan_residuals)
        doc = doc_with(axes=[{"name": "delta", "values": [0.5, 1.0]}])
        if command == "sweep-last-chunk":
            # chunks of one point: the first two are unstable and take no
            # Lyapunov solve, so only the last chunk misses the gate
            monkeypatch.setattr(engine, "CHUNK_POINTS", 1)
            doc["axes"][0]["values"] = [-0.5, -0.5, 1.0]
        path = write_doc(tmp_path, doc)
        config = parse_config(doc)
        assert engine.run_sweep(config).residual_failure
        assert engine.misses_residual_gate(engine.run_point(config).records[0])
        if command == "sweep-last-chunk":
            assert [any(map(engine.misses_residual_gate, records))
                    for records, _ in engine.sweep_batches(config)] == [False, False, True]
        argv = ["--json"] if command == "point" else ["--out", str(tmp_path / "sweep.csv")]
        assert main([command.split("-")[0], "--config", str(path), *argv]) == 2

    @staticmethod
    def mixed_grid_doc(branch_policy):
        """A bare-detuning grid with a failed power value (an error row per
        delta), unstable and stable rows, and points of several branches."""
        doc = doc_with(nbar=836.0, branch_policy=branch_policy, axes=[
            {"name": "delta", "values": [-4.3, -3.9, 1.0]},
            {"name": "power", "values": [-10.0, 20.0, 100.0], "unit": "mW"}])
        doc["cavity"]["hop_strength"] = {"value": 0.0, "unit": "omega_m"}
        doc["detuning"] = {"mode": "bare", "value": {"value": -3.9, "unit": "omega_m"}}
        return doc

    @pytest.mark.parametrize("branch_policy", ["default", "all"])
    def test_sweep_csv_is_the_records_csv(self, tmp_path, capsys, monkeypatch, branch_policy):
        # the chunks' texts written in grid order are the header plus the CSV
        # of run_sweep's records, on 1 and on 2 workers, in 5 chunks of 2 points
        from hopcav import engine

        monkeypatch.setattr(engine, "CHUNK_POINTS", 2)
        doc = self.mixed_grid_doc(branch_policy)
        config = parse_config(doc)
        records = engine.run_sweep(config).records
        assert any(r.error for r in records) and any(r.stable for r in records)
        assert any(not (r.stable or r.error) for r in records)
        assert max(r.branch for r in records) > 0
        expected = engine.csv_text(records, cli._header(config)).encode("utf-8")
        path = write_doc(tmp_path, doc)
        for workers in ("1", "2"):
            out = tmp_path / f"sweep.w{workers}.csv"
            assert main(["sweep", "--config", str(path), "--out", str(out),
                         "--workers", workers]) == 0
            assert out.read_bytes() == expected
            assert capsys.readouterr().out == f"wrote {len(records)} records to {out}\n"

    def test_sweep_and_fig_write_the_chunks_texts(self, tmp_path, capsys, monkeypatch):
        # on one worker the CLI runs the chunk-to-CSV task once per chunk,
        # and never builds the grid's records with run_sweep or csv_text
        from hopcav import engine

        def refuse(*args, **kwargs):
            raise AssertionError("the CLI called the records route")

        for module, name in ((engine, "run_sweep"), (cli, "run_sweep"), (cli, "csv_text")):
            monkeypatch.setattr(module, name, refuse)
        chunks = []

        def counted(sweep, start, stop, _fn=cli.csv_points):
            chunks.append((start, stop))
            return _fn(sweep, start, stop)

        monkeypatch.setattr(cli, "csv_points", counted)
        size = engine.CHUNK_POINTS
        doc = doc_with(axes=[{"name": "delta", "min": 0.5, "max": 1.5, "count": size + 1}])
        argvs = [(["sweep", "--config", str(write_doc(tmp_path, doc)),
                   "--out", str(tmp_path / "sweep.csv")], size + 1),
                 (["fig", "fig3a", "--out", str(tmp_path)], 603)]
        for argv, points in argvs:
            chunks.clear()
            assert main(argv) == 0
            assert chunks == [(start, min(start + size, points))
                              for start in range(0, points, size)]
            assert len(chunks) == math.ceil(points / size)
            assert capsys.readouterr().out.startswith(f"wrote {points} records")

    def test_failed_sweep_leaves_the_output_untouched(self, tmp_path, monkeypatch):
        # the output is opened only once every chunk has returned
        from hopcav import engine
        from hopcav.errors import ConvergenceFailureError

        def fail(*args):
            raise ConvergenceFailureError("no chunk evaluates")

        monkeypatch.setattr(engine, "_evaluate", fail)
        out = tmp_path / "sweep.csv"
        out.write_text("an earlier sweep\n", encoding="utf-8")
        path = write_doc(tmp_path, doc_with(axes=[{"name": "delta", "values": [0.5, 1.0]}]))
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "an earlier sweep\n"

    def test_validate_ok_and_bad(self, tmp_path, capsys):
        good = write_doc(tmp_path, BASE_DOC, "good.json")
        assert main(["validate", "--config", str(good)]) == 0
        bad = doc_with()
        bad["cavity"]["mirror_mass"] = {"value": -5.0, "unit": "ng"}
        path = write_doc(tmp_path, bad, "bad.json")
        assert main(["validate", "--config", str(path)]) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        # a file that is not JSON, and one that is not UTF-8
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{}"):
            path.write_bytes(content)
            assert main(["validate", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid: ") and err.count("\n") == 1
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and str(path) in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["sweep", "stability", "fig", "fig-parent", "fig-gnuplot"])
    def test_unwritable_output_is_a_configuration_error(self, tmp_path, capsys, monkeypatch,
                                                        case):
        # an --out that is a directory, or under a regular file, exits 1 with
        # the path in the message, as an unreadable --config does, before any
        # point is evaluated
        def refused(*args, **kwargs):
            raise AssertionError("points were evaluated")

        monkeypatch.setattr(cli, "map_chunks", refused)
        monkeypatch.setattr(cli, "map_columns", refused)
        axes = [{"name": "delta", "values": [0.5, 1.0]}, {"name": "xi", "values": [0.0, 0.5]}]
        path = write_doc(tmp_path, doc_with(axes=axes))
        taken = tmp_path / "taken"
        taken.mkdir()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        argv, target = {
            "sweep": (["sweep", "--config", str(path), "--out", str(taken)], taken),
            "stability": (["stability", "--config", str(path), "--out", str(taken)], taken),
            "fig": (["fig", "fig3c", "--out", str(blocker)], blocker / "fig3c.csv"),
            "fig-parent": (["fig", "fig3c", "--out", str(blocker / "sub")],
                           blocker / "sub" / "fig3c.csv"),
            "fig-gnuplot": (["fig", "fig3c", "--out", str(tmp_path), "--gnuplot"],
                            tmp_path / "fig3c.gp"),
        }[case]
        if case == "fig-gnuplot":
            target.mkdir()  # the CSV's path is free, the script's is taken
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {target}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["fig", "fig99", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"unknown preset 'fig99'; available: {', '.join(PRESET_NAMES)}\n")

    def test_sweep_csv(self, tmp_path):
        doc = doc_with(axes=[{"name": "delta", "min": 0.5, "max": 1.5, "count": 3}])
        path = write_doc(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        data_rows = [l for l in lines if not l.startswith("#")]
        assert any("axis delta" in h for h in header_rows)
        assert data_rows[0].startswith("delta,xi,power")
        assert len(data_rows) == 1 + 3

    def test_fig_preset_runs(self, tmp_path):
        assert main(["fig", "fig3c", "--out", str(tmp_path), "--gnuplot"]) == 0
        csv_path = tmp_path / "fig3c.csv"
        assert csv_path.exists()
        assert (tmp_path / "fig3c.gp").exists()
        text = csv_path.read_text(encoding="utf-8")
        assert "axis convention" in text

    def test_fig_determinism(self, tmp_path):
        assert main(["fig", "fig3c", "--out", str(tmp_path / "a")]) == 0
        assert main(["fig", "fig3c", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "fig3c.csv").read_bytes()
        b = (tmp_path / "b" / "fig3c.csv").read_bytes()
        assert a == b

    def test_stability_needs_identical_cavities(self, tmp_path, capsys):
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 2.0, "count": 3},
            {"name": "xi", "min": 0.0, "max": 2.0, "count": 3},
        ])
        doc["cavity"]["cavity_decay"] = [{"value": 14.0, "unit": "MHz"},
                                         {"value": 7.0, "unit": "MHz"}]
        path = write_doc(tmp_path, doc)
        out = tmp_path / "stab.csv"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "identical cavities" in err
        assert not out.exists()

    def test_stability_needs_effective_detunings(self, tmp_path, capsys):
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 2.0, "count": 3},
            {"name": "xi", "min": 0.0, "max": 2.0, "count": 3},
        ])
        doc["detuning"]["mode"] = "bare"
        path = write_doc(tmp_path, doc)
        out = tmp_path / "stab.csv"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "effective detunings" in err
        assert not out.exists()

    def test_stability_checks_the_detuning_as_the_sweep_does(self, tmp_path, capsys):
        # every delta is finite, but 1e308 omega_m is not
        doc = doc_with(axes=[{"name": "delta", "values": [0.0, 1e308]},
                             {"name": "xi", "values": [0.0, 0.5]}])
        path = write_doc(tmp_path, doc)
        sweep_csv, out = tmp_path / "sweep.csv", tmp_path / "stab.csv"
        assert main(["sweep", "--config", str(path), "--out", str(sweep_csv)]) == 0
        rows = [l for l in sweep_csv.read_text(encoding="utf-8").splitlines()
                if l.startswith("1e+308,")]
        errors = {l.rsplit(",", 1)[1] for l in rows}
        assert len(rows) == 2 and len(errors) == 1
        capsys.readouterr()
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: detuning value must be finite")
        # the CSV writes the message's commas as semicolons
        assert err.strip() == "configuration error: " + errors.pop().replace(";", ",")
        assert not out.exists()

    def test_stability_csv(self, tmp_path):
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 2.0, "count": 6},
            {"name": "xi", "min": 0.0, "max": 2.0, "count": 6},
        ])
        path = write_doc(tmp_path, doc)
        out = tmp_path / "stab.csv"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "delta,xi,s1,s2,hurwitz_reduced,hurwitz_full,agree"
        assert len(data) == 1 + 36
        assert any("both-conditions region" in l for l in lines)

    def test_stability_header_counts_the_points_meeting_both_conditions(self, tmp_path,
                                                                        monkeypatch):
        # synthetic columns: a row whose signs and eigenvalues disagree, and
        # NaN s1 cells with either collective verdict
        s1 = [1.0, math.nan, 2.0, math.nan, -1.0, 3.0]
        s2 = [1.0, 1.0, 3.0, 2.0, 2.0, -0.0]
        reduced = [True, True, False, False, True, False]
        agree = [(a > 0.0 and b > 0.0) == red for a, b, red in zip(s1, s2, reduced)]
        columns = MapColumns([0.0, 1.0], [0.5, 1.0, 1.5], s1, s2, reduced, [False] * 6,
                             agree)
        monkeypatch.setattr(cli, "map_columns", lambda *args, **kwargs: columns)
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 1.0, "count": 2},
            {"name": "xi", "min": 0.5, "max": 1.5, "count": 3},
        ])
        out = tmp_path / "stab.csv"
        assert main(["stability", "--config", str(write_doc(tmp_path, doc)),
                     "--out", str(out)]) == 0
        both = sum(a > 0.0 and b > 0.0 for a, b in zip(s1, s2))
        assert both == 2 and agree.count(False) == 3
        assert [l for l in out.read_text(encoding="utf-8").splitlines()
                if "both-conditions" in l] == [
            f"# both-conditions region: {both} of 6 points; sign/eigenvalue disagreements: 3"]

    @pytest.mark.parametrize("detuning_sign, modified", [
        ("positive", "delta + xi"), ("negative", "-(delta + xi)"),
    ])
    def test_stability_header_names_the_modified_detuning(self, tmp_path, detuning_sign,
                                                          modified):
        # s1/s2 are taken at s (delta + xi), with s = -1 under the negative sign
        doc = doc_with(axes=[
            {"name": "delta", "min": 0.0, "max": 2.0, "count": 3},
            {"name": "xi", "min": 0.0, "max": 2.0, "count": 3},
        ])
        doc["detuning_sign"] = detuning_sign
        path = write_doc(tmp_path, doc)
        out = tmp_path / "stab.csv"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [l for l in lines if "modified detuning" in l] == [
            "# axes quote the detuning positive on the cooling side; the collective "
            f"conditions use the modified detuning {modified}"
        ]


# JSON documents: scalars of every kind json.dumps takes (non-finite and
# subnormal floats, NumPy scalars, text with control and non-ASCII characters),
# flat float lists, and lists, tuples and dicts nested in each other, with str
# and other keys
_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
)
_JSON_SCALARS = st.one_of(
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["", "\x00\x1f\n\t\"\\", "\u00e9\u2028\U0001f600", "\ud800"]),
)
_JSON_DOCS = st.recursive(
    st.one_of(_JSON_SCALARS, st.lists(st.floats()), st.lists(_JSON_FLOATS)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                        children, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_text_is_json_dumps(doc):
    assert cli.json_text(doc) == json.dumps(doc, indent=2)


def test_import_loads_no_process_pool(tmp_path):
    # concurrent.futures and multiprocessing load only when a sweep starts its
    # pool, and a two-worker sweep still runs
    path = write_doc(tmp_path, doc_with(axes=[{"name": "delta", "values": [0.5, 1.0, 1.5]}]))
    out = tmp_path / "sweep.csv"
    code = ("import sys, hopcav, hopcav.cli\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
            "sys.exit(hopcav.cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hopcav.__file__).resolve().parent.parent))
    run = subprocess.run(
        [sys.executable, "-c", code, "sweep", "--config", str(path), "--out", str(out),
         "--workers", "2"], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (run.returncode, run.stdout) == (0, f"[]\nwrote 3 records to {out}\n")
