import json
import math

import pytest

from hopcav.cli import main
from hopcav.config import parse_config, validate_config
from hopcav.errors import ConfigError

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


class TestCli:
    def test_point_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        assert main(["point", "--config", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["drift"]) == 64
        assert len(payload["covariance"]) == 64
        assert payload["record"]["stable"] is True
        assert payload["quadrature_order"][0] == "q1"

    def test_point_solves_once(self, tmp_path, capsys, monkeypatch):
        # the command reuses the working point, matrices and covariance of
        # its run_point result
        from hopcav import cli, engine

        calls = []
        for module, name in ((engine, "lyapunov_stack"), (engine, "solve_fixed_detuning"),
                             (cli, "solve_fixed_detuning"), (cli, "solve_lyapunov")):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        path = write_doc(tmp_path, BASE_DOC)
        assert main(["point", "--config", str(path), "--json"]) == 0
        assert sorted(calls) == ["lyapunov_stack", "solve_fixed_detuning"]
        payload = json.loads(capsys.readouterr().out)
        assert payload["lyap_residual"] == payload["record"]["lyap_residual"]

    def test_validate_ok_and_bad(self, tmp_path, capsys):
        good = write_doc(tmp_path, BASE_DOC, "good.json")
        assert main(["validate", "--config", str(good)]) == 0
        bad = doc_with()
        bad["cavity"]["mirror_mass"] = {"value": -5.0, "unit": "ng"}
        path = write_doc(tmp_path, bad, "bad.json")
        assert main(["validate", "--config", str(path)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_unknown_preset_exit_code(self, tmp_path):
        assert main(["fig", "fig99", "--out", str(tmp_path)]) == 3

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
