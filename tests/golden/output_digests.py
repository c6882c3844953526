"""Print one sha256 per hopcav output, so that two commits' outputs can be
compared with one ``diff``:

    PYTHONPATH=src python tests/golden/output_digests.py > digests.txt

The outputs: the CSV of every figure preset from ``hopcav fig`` with 1 and
with 2 workers, the fig5 ``hopcav stability`` CSV (the benchmark's fig5
document, ``perfbench/inputs.py`` at its default seed) in both detuning sign
conventions, the ``hopcav stability`` CSV of ``configs/sweep.json`` over
delta = (0, 1e308) and xi = (0, 0.5) (finite axis values whose detuning,
1e308 omega_m, is not: a configuration error), the ``hopcav sweep`` CSV of the benchmark's fig6b document in
the negative sign convention on 1 worker, the benchmark's fig6b sweep (on 1
worker) and fig5 map at seed 3 (``inputs.grid_configs(..., 3)``: every axis
shifted off the preset grid) in the positive sign convention, the fig5 map
at seed 3 in the negative sign convention, the
benchmark's bare-detuning fig2a and fig2b sweeps at seed 3 on 1 worker, the
``hopcav sweep`` CSV of ``configs/sweep.json`` at 75 mW over xi = (0, 0.5)
and a delta axis of stability boundaries (``BOUNDARIES``: at xi = 0 the
self-oscillation boundary and both bistability boundaries, at xi = 0.5 the
bistability boundary of the block at delta + xi) with the values 1 and 2 ulp
either side, whose rows' Routh-Hurwitz scalars lie within the band of 0
where the sweep's gate takes the eigenvalues of the 8x8 drift (its line
names the sweep's exit code: 2, since rows this close to a boundary miss the
residual gate), the
``hopcav stability`` CSV of the same document (the stability-boundary map:
the verdicts of the shared gate's 8x8 eigenvalue fallback, and of the
collective blocks, within 2 ulp of a block's margin), the
``hopcav sweep`` CSV of ``configs/sweep.json`` in bare mode at 1 omega_m
over a power axis of 1e-297 mW and 35 mW and delta = (0, 1) (the tiny-drive
bare sweep: drives whose radiation-pressure shift rounds away at delta = 1,
and whose photon-number problem degenerates at delta = 0), the ``hopcav
sweep`` CSV of ``configs/sweep.json`` in bare mode with unequal drives of 35
and 70 mW at xi = 0.5 omega_m and every branch, over 41 values of delta in
[-1, 3] (the unequal-drive bare sweep: candidates from the resultant,
polished and tested as columns), the ``hopcav sweep`` CSV of
``configs/sweep.json`` in bare mode at 1 omega_m with every branch, over a
power axis of 0.035, 1e180 and 1e200 W and 21 values of delta in [0, 2] (the
huge-power bare sweep: one column table of 147 candidates, 63 of them, at
1e180 and 1e200 W, not finite in the columns and tested one by one, merged
back in candidate order; those points' rows are "best residual" failures,
finite at 1e180 W and inf at 1e200 W), the ``hopcav sweep`` CSV of
``configs/sweep.json`` with unequal rates, cavity decays of 14 and 7 MHz and
mechanical dampings of 100 and 150 Hz, under an ideal bath over a photon
number axis of 0, 0.05 and 0.1 and 21 values of delta in [0, 2] (the
unequal-rates sweep: every row's drift has no collective model, so the gate
takes the 8x8 eigenvalues and s1 and s2 are empty, and every diffusion has
unequal diagonal entries and a 2 sqrt(kappa1 kappa2) M cross term), the
``hopcav sweep`` CSV of an error-row sweep on 1 and on 2 workers
(``configs/sweep.json`` over a photon number axis with a negative value and
values below the bound of a fixed correlation of 0.3: rows that carry
errors and NaN cells), the ``hopcav sweep`` CSV of an error-row
sweep over a power axis and a temperature axis, each with a negative value
(``configs/sweep.json`` without its nbar override, so that the temperature
sets the occupation), and ``hopcav point --json`` for ``configs/point.json``,
for the benchmark's 16 point documents, for ``configs/point.json`` at xi =
0.5 omega_m with unequal detunings (1.0, 1.3) omega_m, at an unstable
detuning of -0.5 omega_m (no covariance), in bare mode at -3.9 omega_m
and 100 mW (nine branches, one of them stable), for the unequal-drive bare
sweep's document (a batch of one, polished candidate by candidate), and for
``configs/point.json`` in bare mode at 0 omega_m with huge drives: 1e293 W at
a cavity decay of 1e-5 rad/s (the scaled unit (E / kappa_1)^2 passes float's
range) and 1e113 and 5e112 W at xi = 0.3 omega_m (the resultant's products
overflow), both "best residual inf" failures.  Each line reads
``<sha256>  <output>``; a command that exits non-zero prints its exit code in
place of the digest, and one that raises the name of its exception.

To compare with another commit, give its source tree:

    git archive <commit> src | tar -x -C PARENT
    python tests/golden/output_digests.py --against PARENT/src

This runs the script twice in subprocesses, with the same inputs (this
checkout's configs and ``perfbench/inputs.py``), importing ``hopcav`` once
from this checkout's ``src/`` and once from the given tree (a ``src/``
directory, or a checkout that holds one).  It prints only the lines that
differ, the other tree's prefixed ``-`` and this one's ``+``, and exits 1 if
any do, else 0 (2 if either run fails).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
POINT_CONFIG = REPO / "configs" / "point.json"
SWEEP_CONFIG = REPO / "configs" / "sweep.json"
OFF_GRID_SEED = 3
# delta (omega_m) within one ulp of a flip of the stable flag of
# configs/sweep.json at 75 mW, by xi (omega_m); found by bisecting the
# eigenvalue gate's verdict
BOUNDARIES = {0.0: (-4.8933532878624355e-06, 0.34481972585985016, 1.5763736869998135),
              0.5: (1.0763736869995013,)}

_spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                               REPO / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def _cli(argv: list[str]) -> tuple[int | str, str]:
    """The exit code and stdout of a ``hopcav`` command, or in place of the
    code the name of the exception that it raised."""
    from hopcav.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except Exception as exc:   # a crash is an output too: one line, not a failed run
            code = type(exc).__name__
    return code, buf.getvalue()


def _ulps(value: float, steps: int) -> float:
    """``value`` moved ``steps`` floats up (down for a negative count)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _digest(code: int | str, data: bytes) -> str:
    if code == 0:
        return hashlib.sha256(data).hexdigest()
    return f"exit {code}" if isinstance(code, int) else f"raised {code}"


def digests(work: Path) -> list[tuple[str, str]]:
    from hopcav.presets import PRESET_NAMES

    out = []
    for name in PRESET_NAMES:
        for workers in (1, 2):
            target = work / f"w{workers}"
            code, _ = _cli(["fig", name, "--out", str(target), "--workers", str(workers)])
            data = (target / f"{name}.csv").read_bytes() if code == 0 else b""
            out.append((f"{name}.csv ({workers} worker{'s' * (workers > 1)})", _digest(code, data)))

    docs = dict(inputs.grid_configs("stability", inputs.DEFAULT_SEED))
    docs["fig5-negative"] = dict(docs["fig5"], detuning_sign="negative")
    docs["fig6b-negative"] = dict(inputs.grid_configs("surface", inputs.DEFAULT_SEED)["fig6b"],
                                  detuning_sign="negative")
    docs["fig5-seed3"] = inputs.grid_configs("stability", OFF_GRID_SEED)["fig5"]
    docs["fig5-seed3-negative"] = dict(docs["fig5-seed3"], detuning_sign="negative")
    docs["fig6b-seed3"] = inputs.grid_configs("surface", OFF_GRID_SEED)["fig6b"]
    docs.update((f"{name}-seed3", doc)
                for name, doc in inputs.grid_configs("bare", OFF_GRID_SEED).items())
    docs.update((f"point{k:02d}", d)
                for k, d in enumerate(inputs.point_configs(inputs.DEFAULT_SEED)))
    unequal = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    unequal["cavity"]["hop_strength"] = {"value": 0.5, "unit": "omega_m"}
    unequal["detuning"]["value"] = [{"value": d, "unit": "omega_m"} for d in (1.0, 1.3)]
    docs["unequal-detunings"] = unequal
    unstable = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    unstable["detuning"]["value"] = {"value": -0.5, "unit": "omega_m"}
    docs["unstable"] = unstable
    bare = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    bare["cavity"]["drive_power"] = {"value": 100.0, "unit": "mW"}
    bare["detuning"] = {"mode": "bare", "value": {"value": -3.9, "unit": "omega_m"}}
    docs["bare-branches"] = bare
    error_rows = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    error_rows["bath"] = {"photon_number": 0.0, "correlation": 0.3}
    error_rows["axes"] = [{"name": "photon_number", "values": [-0.05, 0.0, 0.05, 0.1, 0.5]},
                          {"name": "delta", "min": 0.0, "max": 2.0, "count": 41}]
    docs["error-rows"] = error_rows
    field_errors = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    del field_errors["nbar"]
    field_errors["axes"] = [{"name": "power", "unit": "mW", "values": [-10.0, 0.0, 50.0]},
                            {"name": "temperature", "values": [-1.0, 0.0, 0.4]}]
    docs["field-errors"] = field_errors
    overflow = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    overflow["axes"] = [{"name": "delta", "values": [0.0, 1e308]},
                        {"name": "xi", "values": [0.0, 0.5]}]
    docs["delta-overflow"] = overflow
    boundaries = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    boundaries["cavity"]["drive_power"] = {"value": 75.0, "unit": "mW"}
    boundaries["axes"] = [
        {"name": "xi", "values": list(BOUNDARIES)},
        {"name": "delta", "values": [_ulps(v, k) for vs in BOUNDARIES.values() for v in vs
                                     for k in range(-2, 3)]},
    ]
    docs["boundaries"] = boundaries
    docs["boundary-map"] = boundaries
    tiny = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    tiny["detuning"] = {"mode": "bare", "value": {"value": 1.0, "unit": "omega_m"}}
    tiny["axes"] = [{"name": "power", "unit": "mW", "values": [1e-297, 35.0]},
                    {"name": "delta", "values": [0.0, 1.0]}]
    docs["tiny-drive"] = tiny
    resultant = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    resultant["cavity"]["drive_power"] = [{"value": p, "unit": "mW"} for p in (35.0, 70.0)]
    resultant["cavity"]["hop_strength"] = {"value": 0.5, "unit": "omega_m"}
    resultant["detuning"] = {"mode": "bare", "value": {"value": 1.0, "unit": "omega_m"}}
    resultant["branch_policy"] = "all"
    resultant["axes"] = [{"name": "delta", "min": -1.0, "max": 3.0, "count": 41}]
    docs["resultant-sweep"] = resultant
    docs["bare-unequal-drives"] = resultant
    huge_power = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    huge_power["detuning"] = {"mode": "bare", "value": {"value": 1.0, "unit": "omega_m"}}
    huge_power["branch_policy"] = "all"
    huge_power["axes"] = [{"name": "power", "unit": "W", "values": [0.035, 1e180, 1e200]},
                          {"name": "delta", "min": 0.0, "max": 2.0, "count": 21}]
    docs["huge-power-sweep"] = huge_power
    unequal_rates = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    unequal_rates["cavity"]["cavity_decay"] = [{"value": k, "unit": "MHz"} for k in (14.0, 7.0)]
    unequal_rates["cavity"]["mech_damping"] = [{"value": g, "unit": "Hz"} for g in (100.0, 150.0)]
    unequal_rates["bath"] = {"photon_number": 0.0, "correlation": "ideal"}
    unequal_rates["axes"] = [{"name": "photon_number", "values": [0.0, 0.05, 0.1]},
                             {"name": "delta", "min": 0.0, "max": 2.0, "count": 21}]
    docs["unequal-rates-sweep"] = unequal_rates
    huge = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    huge["cavity"]["cavity_decay"] = {"value": 1e-5, "unit": "rad/s"}
    huge["cavity"]["drive_power"] = {"value": 1e293, "unit": "W"}
    huge["detuning"] = {"mode": "bare", "value": {"value": 0.0, "unit": "omega_m"}}
    docs["huge-drive"] = huge
    huge_unequal = json.loads(POINT_CONFIG.read_text(encoding="utf-8"))
    huge_unequal["cavity"]["hop_strength"] = {"value": 0.3, "unit": "omega_m"}
    huge_unequal["cavity"]["drive_power"] = [{"value": p, "unit": "W"} for p in (1e113, 5e112)]
    huge_unequal["detuning"] = huge["detuning"]
    docs["huge-unequal-drives"] = huge_unequal
    paths = inputs.write_configs(docs, work / "inputs")
    for name, label in (("fig5", "fig5 stability"), ("fig5-negative", "fig5 stability (negative sign)"),
                        ("fig5-seed3", "fig5 stability (seed 3)"),
                        ("fig5-seed3-negative", "fig5 stability (seed 3, negative sign)"),
                        ("delta-overflow", "delta 1e308 stability"),
                        ("boundary-map", "stability-boundary map")):
        stability_csv = work / f"{name}-stability.csv"
        code, _ = _cli(["stability", "--config", str(paths.pop(name)), "--out", str(stability_csv)])
        out.append((label, _digest(code, stability_csv.read_bytes() if code == 0 else b"")))
    for name, label in (("fig6b-negative", "fig6b sweep (negative sign)"),
                        ("fig6b-seed3", "fig6b sweep (seed 3)"),
                        ("fig2a-seed3", "fig2a bare sweep (seed 3)"),
                        ("fig2b-seed3", "fig2b bare sweep (seed 3)"),
                        ("field-errors", "power and temperature error-row sweep"),
                        ("tiny-drive", "tiny-drive bare sweep"),
                        ("resultant-sweep", "unequal-drive bare sweep"),
                        ("huge-power-sweep", "huge-power bare sweep"),
                        ("unequal-rates-sweep", "unequal-rates sweep")):
        sweep_csv = work / f"{name}.csv"
        code, _ = _cli(["sweep", "--config", str(paths.pop(name)), "--out", str(sweep_csv),
                        "--workers", "1"])
        out.append((label, _digest(code, sweep_csv.read_bytes() if code == 0 else b"")))
    # the barely stable rows at the boundaries miss the Lyapunov residual gate,
    # so this sweep exits 2 after writing its CSV: the line carries both
    sweep_csv = work / "boundaries.csv"
    code, _ = _cli(["sweep", "--config", str(paths.pop("boundaries")), "--out", str(sweep_csv),
                    "--workers", "1"])
    out.append((f"stability-boundary sweep (exit {code})", _digest(0, sweep_csv.read_bytes())))
    error_rows_path = paths.pop("error-rows")
    for workers in (1, 2):
        sweep_csv = work / f"error-rows.w{workers}.csv"
        code, _ = _cli(["sweep", "--config", str(error_rows_path), "--out", str(sweep_csv),
                        "--workers", str(workers)])
        out.append((f"error-row sweep ({workers} worker{'s' * (workers > 1)})",
                    _digest(code, sweep_csv.read_bytes() if code == 0 else b"")))

    for label, path in [("configs/point.json", POINT_CONFIG), *paths.items()]:
        code, text = _cli(["point", "--config", str(path), "--json"])
        out.append((f"point --json {label}", _digest(code, text.encode("utf-8"))))
    return out


def _lines_under(src: Path) -> subprocess.Popen:
    """This script, printing its lines with ``hopcav`` imported from ``src``."""
    return subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})


def compare(other: Path) -> int:
    """Print the lines that differ between this checkout's ``src/`` and the
    tree ``other``; 1 if any do, else 0, and 2 if a run cannot be made."""
    if not (other / "hopcav").is_dir():
        other = other / "src"
    if not (other / "hopcav").is_dir():
        print(f"no hopcav package under {other}", file=sys.stderr)
        return 2
    runs = [_lines_under(src) for src in (other, REPO / "src")]
    theirs, ours = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        print("a digest run failed", file=sys.stderr)
        return 2
    differ = False
    for k in range(max(len(theirs), len(ours))):
        old, new = (lines[k] if k < len(lines) else "" for lines in (theirs, ours))
        if old != new:
            differ = True
            print(f"-{old}\n+{new}")
    return int(differ)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--against", metavar="PARENT_SRC", type=Path,
                        help="print only the lines that differ from this source tree's")
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in digests(Path(tmp)):
            print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
