"""Every recorded measure against a 40-digit oracle (``tests/golden/oracle.json``,
written by ``tests/golden/make_oracle.py``): the golden files pin what the
float pipeline computed once, this pins how far it is from the truth.

The bounds are per column, an error relative to the oracle's value except for
the logarithmic negativities, whose error is absolute (that is theta_minus's
relative error).  The columns that meet 1e-10 at every point have that bound.
The theta_minus columns are known to miss it, through cancellation in
theta^2 = (chi - sqrt(chi^2 - 4 det W)) / 2: theta_f1m1, theta_f2m2 and
theta_m1m2 worst at fig6b's delta = xi = 0 point, where the pairs' chi are
1.2e10, 1.2e10 and 2.1e10, and theta_f1f2 at fig2b's delta = xi = 0 point,
where the pair's two symplectic eigenvalues are equal (a discriminant of 0 in
exact arithmetic, whose rounding the square root magnifies).  Their bounds
are twice the largest error measured when the oracle was written, rounded up
to two digits; a change may only tighten them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_oracle", GOLDEN / "make_oracle.py")
make_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_oracle)

ORACLE = json.loads((GOLDEN / "oracle.json").read_text(encoding="utf-8"))
BOUNDS = {
    "en_f1m1": 1e-10, "en_f2m2": 1e-10, "en_m1m2": 1e-10, "en_f1f2": 1e-10,
    # measured 1.86e-7, 1.86e-7, 2.28e-8 and 7.29e-9
    "theta_f1m1": 3.8e-7, "theta_f2m2": 3.8e-7, "theta_m1m2": 4.6e-8, "theta_f1f2": 1.5e-8,
    "fidelity": 1e-10, "fidelity_bound": 1e-10,
}


def test_file_covers_the_columns():
    assert tuple(ORACLE["columns"]) == make_oracle.COLUMNS == tuple(BOUNDS)
    assert len(ORACLE["points"]) == 30


@pytest.mark.parametrize("point", ORACLE["points"],
                         ids=[f"{p['preset']}-{p['overrides']}" for p in ORACLE["points"]])
def test_columns_within_their_bounds(point):
    rec, drift, diffusion = make_oracle.point_inputs(point["preset"], point["overrides"],
                                                     point["branch"])
    # the oracle answers for exactly these inputs
    assert drift.tolist() == point["drift"] and diffusion.tolist() == point["diffusion"]
    errors = {name: make_oracle.column_error(name, getattr(rec, name), point["oracle"][name])
              for name in BOUNDS}
    assert {name: e for name, e in errors.items() if not e <= BOUNDS[name]} == {}


def test_oracle_is_the_solve():
    # one point re-solved: the one with the largest theta errors
    (point,) = [p for p in ORACLE["points"]
                if p["preset"] == "fig6b" and p["overrides"] == {"delta": 0.0, "xi": 0.0}]
    assert make_oracle.oracle_values(point["drift"], point["diffusion"]) == point["oracle"]
