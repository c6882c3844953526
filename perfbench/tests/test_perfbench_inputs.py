"""Seeded input generation."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402

GRIDS = ("surface", "bare", "stability")


def _encoded(workload, seed):
    if workload == "point":
        return [inputs.encode(d) for d in inputs.point_configs(seed)]
    return {name: inputs.encode(d) for name, d in inputs.grid_configs(workload, seed).items()}


def test_same_seed_gives_identical_bytes():
    for workload in GRIDS + ("point",):
        for seed in (0, 7):
            assert _encoded(workload, seed) == _encoded(workload, seed)


def test_other_seed_gives_other_grid_of_the_same_shape():
    for workload in GRIDS:
        a = inputs.grid_configs(workload, 1)
        b = inputs.grid_configs(workload, 2)
        for name in a:
            assert inputs.grid_size(a[name]) == inputs.grid_size(b[name])
            for axis_a, axis_b in zip(a[name]["axes"], b[name]["axes"]):
                assert axis_a["values"] != axis_b["values"]
                step = axis_a["values"][1] - axis_a["values"][0]
                assert abs(axis_a["values"][0] - axis_b["values"][0]) < step
    assert _encoded("point", 1) != _encoded("point", 2)


def test_default_seed_is_the_preset_grid():
    doc = inputs.grid_configs("surface", inputs.DEFAULT_SEED)["fig6b"]
    for axis in doc["axes"]:
        assert axis["values"] == list(np.linspace(0.0, 2.0, 101))
    assert inputs.grid_size(doc) == 10201
    bare = inputs.grid_configs("bare", inputs.DEFAULT_SEED)
    assert sum(inputs.grid_size(d) for d in bare.values()) == 1608
