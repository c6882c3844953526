"""The full bare-detuning grids of fig2a and fig2b against the benchmark's
reference tables (``perfbench/reference/``), every row, with the benchmark's
own comparator (``perfbench/check.py``); both files are only read."""

import gzip
from pathlib import Path

import pytest

from hopcav.config import parse_config
from hopcav.engine import csv_text, run_sweep

# the benchmark's modules, from perfbench/ on the test path (pyproject.toml)
import check
import inputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_full_bare_grid_matches_reference(name):
    config = parse_config(inputs.grid_configs("bare", inputs.DEFAULT_SEED)[name])
    rows = check.read_table(csv_text(run_sweep(config).records))
    reference = check.read_table(
        gzip.decompress((PERFBENCH / "reference" / f"{name}.csv.gz").read_bytes()).decode("utf-8")
    )
    bad = check.check_rows(rows, reference, check.sweep_row_problems)
    assert not bad, {i: bad[i] for i in list(bad)[:5]}
