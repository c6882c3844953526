"""Seeded inputs for the benchmark workloads, as hopcav JSON configurations.

The grid workloads reproduce figure presets of ``hopcav.presets`` as JSON
documents, with every quantity given in the units the presets compute it in,
so that the default seed evaluates exactly the preset's grid.  Any other seed
shifts each swept axis by a seeded fraction of one grid step: the number of
points and the shape of the work stay the same, the points do not.

The point workload derives effective-mode configurations from
``configs/point.json``, with seeded detuning, hopping and squeezing.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
MHZ = 2.0 * math.pi * 1e6
SURFACE_GRID = 101
POWER_FIG2 = 0.035
POWER_FIG3 = 0.050
NBAR_REF = 836.0
POINT_CONFIGS = 16
VACUUM = {"photon_number": 0.0, "correlation": 0.0}


def _rad_s(value: float) -> dict:
    return {"value": value, "unit": "rad/s"}


def _preset_cavity(power: float, xi: float) -> dict:
    """The shared cavity of ``hopcav.presets._base_params``."""
    return {
        "cavity_length": {"value": 1e-3, "unit": "m"},
        "mirror_mass": {"value": 5e-12, "unit": "kg"},
        "mech_freq": _rad_s(10.0 * MHZ),
        "mech_damping": _rad_s(100.0 * 2.0 * math.pi),
        "cavity_decay": _rad_s(14.0 * MHZ),
        "laser_wavelength": {"value": 810e-9, "unit": "m"},
        "drive_power": {"value": power, "unit": "W"},
        "bath_temperature": {"value": 0.4, "unit": "K"},
        "hop_strength": _rad_s(xi * 10.0 * MHZ),
    }


class _Shifter:
    """Shifts axis values by a seeded fraction of one grid step; the default
    seed leaves every axis where the preset puts it."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def axis(self, name: str, values: list[float]) -> dict:
        if self.rng is not None:
            shift = self.rng.random() * (values[1] - values[0])
            values = [v + shift for v in values]
        return {"name": name, "values": [float(v) for v in values]}

    def linspace(self, name: str, lo: float, hi: float, count: int) -> dict:
        return self.axis(name, list(np.linspace(lo, hi, count)))


def _doc(label: str, power: float, axes: list[dict], *, mode: str = "effective",
         xi: float = 0.0, bath: dict, nbar: float | None = NBAR_REF,
         branch_policy: str = "default") -> dict:
    doc = {
        "label": label,
        "cavity": _preset_cavity(power, xi),
        "bath": bath,
        "detuning": {"mode": mode, "value": _rad_s(0.0)},
        "axes": axes,
        "branch_policy": branch_policy,
    }
    if nbar is not None:
        doc["nbar"] = nbar
    return doc


def grid_configs(workload: str, seed: int) -> dict[str, dict]:
    """Preset name -> JSON document for the grid workloads."""
    s = _Shifter(seed)
    if workload == "surface":
        return {"fig6b": _doc(
            "fig6b", POWER_FIG3,
            [s.linspace("delta", 0.0, 2.0, SURFACE_GRID), s.linspace("xi", 0.0, 2.0, SURFACE_GRID)],
            bath={"photon_number": 0.05, "correlation": "ideal"},
        )}
    if workload == "stability":
        return {"fig5": _doc(
            "fig5", POWER_FIG3,
            [s.linspace("delta", 0.0, 2.0, SURFACE_GRID), s.linspace("xi", 0.0, 2.0, SURFACE_GRID)],
            bath={"photon_number": 0.01, "correlation": "ideal"},
        )}
    if workload == "bare":
        families = [0.0, 0.5, 1.0, 1.5]
        return {
            "fig2a": _doc(
                "fig2a", POWER_FIG2,
                [s.axis("delta", families), s.linspace("power", 0.0, 2.0 * POWER_FIG2, 201)],
                mode="bare", xi=1.0, bath=VACUUM, nbar=None, branch_policy="all",
            ),
            "fig2b": _doc(
                "fig2b", POWER_FIG2,
                [s.axis("delta", families), s.linspace("xi", 0.0, 3.0, 201)],
                mode="bare", bath=VACUUM, nbar=None, branch_policy="all",
            ),
        }
    raise ValueError(f"no grid configuration for workload {workload!r}")


def point_configs(seed: int, count: int = POINT_CONFIGS) -> list[dict]:
    """Effective-mode single-point configurations around ``configs/point.json``
    (delta = 1 omega_m, no hopping, N = 0.05), all on the stable side."""
    rng = random.Random(seed)
    docs = []
    for k in range(count):
        delta = rng.uniform(0.8, 1.2)
        xi = rng.uniform(0.0, 0.3)
        photons = rng.uniform(0.01, 0.1)
        docs.append({
            "label": f"point-{seed}-{k}",
            "cavity": {
                "cavity_length": {"value": 1.0, "unit": "mm"},
                "mirror_mass": {"value": 5.0, "unit": "ng"},
                "mech_freq": {"value": 10.0, "unit": "MHz"},
                "mech_damping": {"value": 100.0, "unit": "Hz"},
                "cavity_decay": {"value": 14.0, "unit": "MHz"},
                "laser_wavelength": {"value": 810.0, "unit": "nm"},
                "drive_power": {"value": 50.0, "unit": "mW"},
                "bath_temperature": {"value": 0.4, "unit": "K"},
                "hop_strength": {"value": xi, "unit": "omega_m"},
            },
            "bath": {"photon_number": photons, "correlation": "ideal"},
            "detuning": {"mode": "effective", "value": {"value": delta, "unit": "omega_m"}},
        })
    return docs


def encode(doc: dict) -> bytes:
    """Canonical file bytes of one configuration."""
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def write_configs(docs: dict[str, dict], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_bytes(encode(doc))
        paths[name] = path
    return paths


def grid_size(doc: dict) -> int:
    """Number of grid points (rows before branch expansion)."""
    return math.prod(len(axis["values"]) for axis in doc["axes"])
