"""Write ``oracle.json``: every recorded measure of 30 grid points, solved
with mpmath to 40 significant digits, so that ``tests/test_oracle.py`` bounds
the error of the float pipeline against the truth rather than against its own
earlier output.

    PYTHONPATH=src python tests/golden/make_oracle.py

For each point the oracle takes the 8x8 drift A and diffusion D that hopcav
builds there as exact binary numbers (both are stored with the point, so the
oracle answers for exactly those inputs) and solves A W + W A^T = -D through
the 64x64 Kronecker-sum system, as ``lyapunov.lyapunov_stack`` does, at
``DIGITS`` decimal digits; a second solve at ``DIGITS + 20`` digits must agree
with it to ``KEPT + 1`` significant digits, or the script stops.  From W it computes
the measures as ``hopcav.measures`` defines them: theta_minus and the
logarithmic negativity of the four mode pairs, the teleportation fidelity of
the F1F2 pair (F = 2 / sqrt(det(2 I + Z))) and its bound 1 / (1 + exp(-E_N)).

The points:

* in fig6b, for each of the four pairs in turn, the stable point of largest
  chi (det W1 + det W2 - 2 det Wc) not yet picked, where theta_minus cancels
  the most;
* in fig6b, the four stable points whose drifts lie nearest the Hurwitz
  margin (largest spectral abscissa over the Frobenius norm) among those with
  an unstable grid neighbour and a Lyapunov residual below its gate;
* fig2b's delta = xi = 0 point (bare mode), every stable branch;
* 10 further stable fig6b points and 11 stable fig3c points, drawn with a
  fixed seed.

The file is data for one accepted state of the drift and diffusion: the test
checks that hopcav still builds the stored A and D at every point, so a change
to either means running this script again (and saying why in CHANGES.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
ORACLE = GOLDEN_DIR / "oracle.json"
# working precision of the solve and the measures: a pair with equal
# symplectic eigenvalues (at xi = 0, say) has a discriminant chi^2 - 4 det W
# of 0, which the solve leaves at about 10^-DIGITS, and theta_minus takes its
# square root, so only about DIGITS / 2 of its digits hold
DIGITS = 100
KEPT = 40          # significant digits stored, and checked against a finer solve
SEED = 2026
PAIRS = ("f1m1", "f2m2", "m1m2", "f1f2")
# quadrature indices of the pairs, as hopcav.measures.BipartitePair
PAIR_INDICES = {"f1m1": (0, 1, 2, 3), "f2m2": (4, 5, 6, 7), "m1m2": (0, 1, 4, 5),
                "f1f2": (2, 3, 6, 7)}
COLUMNS = (*(f"en_{p}" for p in PAIRS), *(f"theta_{p}" for p in PAIRS), "fidelity",
           "fidelity_bound")


def solve(drift, diffusion, digits: int = DIGITS) -> mpmath.matrix:
    """W with A W + W A^T = -D, from the Kronecker-sum system at ``digits``
    decimal digits; A and D are taken exactly."""
    with mpmath.workdps(digits):
        n = len(drift)
        a = [[mpmath.mpf(float(x)) for x in row] for row in drift]
        system = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    system[i * n + j, k * n + j] += a[i][k]   # (A W)[i, j]
                    system[i * n + j, i * n + k] += a[j][k]   # (W A^T)[i, j]
        rhs = mpmath.matrix([-mpmath.mpf(float(x)) for row in diffusion for x in row])
        vec = mpmath.lu_solve(system, rhs)
        w = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                w[i, j] = (vec[i * n + j] + vec[j * n + i]) / 2
        return w


def measures(w: mpmath.matrix, digits: int = DIGITS) -> dict:
    """Every recorded measure of the covariance W, by column name."""
    out = {}
    with mpmath.workdps(digits):
        for pair in PAIRS:
            idx = PAIR_INDICES[pair]
            m = mpmath.matrix([[w[r, c] for c in idx] for r in idx])
            w1, w2, wc = m[0:2, 0:2], m[2:4, 2:4], m[0:2, 2:4]
            chi = mpmath.det(w1) + mpmath.det(w2) - 2 * mpmath.det(wc)
            # a pair with equal symplectic eigenvalues has a discriminant of 0,
            # which rounding can take below it (hopcav clips it the same way)
            disc = max(mpmath.mpf(0), chi * chi - 4 * mpmath.det(m))
            theta = mpmath.sqrt((chi - mpmath.sqrt(disc)) / 2)
            out[f"theta_{pair}"] = theta
            out[f"en_{pair}"] = max(mpmath.mpf(0), -mpmath.log(2 * theta))
            if pair == "f1f2":
                s = mpmath.diag([1, -1])
                z = s * w1 * s + s * wc + wc.T * s + w2
                out["fidelity"] = 2 / mpmath.sqrt(mpmath.det(2 * mpmath.eye(2) + z))
                out["fidelity_bound"] = 1 / (1 + mpmath.exp(-out["en_f1f2"]))
    return out


def oracle_values(drift, diffusion, digits: int = DIGITS) -> dict:
    """The measures of one point as strings of ``KEPT`` significant digits."""
    found = measures(solve(drift, diffusion, digits), digits)
    return {name: mpmath.nstr(found[name], KEPT, min_fixed=1, max_fixed=0)
            for name in COLUMNS}


def _checked_values(drift, diffusion) -> dict:
    """:func:`oracle_values`, after a solve at ``DIGITS + 20`` digits agrees
    with the one at ``DIGITS`` to ``KEPT + 1`` significant digits."""
    coarse = measures(solve(drift, diffusion), DIGITS)
    fine = measures(solve(drift, diffusion, DIGITS + 20), DIGITS + 20)
    with mpmath.workdps(DIGITS + 20):
        for name in COLUMNS:
            if abs(coarse[name] - fine[name]) > mpmath.mpf(10) ** -(KEPT + 1) * abs(fine[name]):
                raise SystemExit(f"{name}: {DIGITS} and {DIGITS + 20} digits disagree: "
                                 f"{coarse[name]} {fine[name]}")
    return {name: mpmath.nstr(coarse[name], KEPT, min_fixed=1, max_fixed=0)
            for name in COLUMNS}


def column_error(name: str, got: float, want) -> float:
    """The error of a float column against its oracle value: relative, but
    absolute for the logarithmic negativities (E_N = -ln 2 theta, so that is
    theta's relative error, and it stays finite where E_N is 0)."""
    want = mpmath.mpf(want)
    diff = abs(mpmath.mpf(got) - want)
    if name.startswith("en_"):
        return float(diff)
    return float(diff / abs(want))


def point_inputs(preset: str, overrides: dict, branch: int):
    """The record, drift and diffusion of one branch of one grid point."""
    from hopcav.engine import run_point
    from hopcav.presets import fig_preset

    result = run_point(fig_preset(preset), overrides)
    return result.records[branch], result.drifts[branch], result.diffusion


def _solved(rec) -> bool:
    """Whether a record is stable and its Lyapunov solve passed the gate."""
    from hopcav.engine import misses_residual_gate

    return rec.stable and not misses_residual_gate(rec)


def pick_points() -> list[dict]:
    """The oracle's points: label, preset, axis overrides and branch."""
    from hopcav.engine import grid_points, run_point
    from hopcav.lyapunov import hurwitz_margins, spectral_abscissae
    from hopcav.measures import BipartitePair, extract_pair
    from hopcav.presets import fig_preset

    picked = []

    def add(label, preset, overrides, branch=0) -> bool:
        overrides = {name: float(value) for name, value in overrides.items()}
        if any(p["overrides"] == overrides and p["preset"] == preset for p in picked):
            return False
        picked.append({"label": label, "preset": preset, "overrides": overrides,
                       "branch": branch})
        return True

    config = fig_preset("fig6b")
    grid = grid_points(config)
    side = len(config.axes[1].values)
    results = [run_point(config, overrides) for overrides in grid]
    stable = [k for k, r in enumerate(results) if _solved(r.records[0])]
    for pair in BipartitePair:
        def chi(k):
            m = extract_pair(results[k].covariances[0], pair)
            return (np.linalg.det(m[:2, :2]) + np.linalg.det(m[2:, 2:])
                    - 2.0 * np.linalg.det(m[:2, 2:]))
        next(k for k in sorted(stable, key=chi, reverse=True)
             if add(f"fig6b largest chi of {pair.name} not yet picked", "fig6b", grid[k]))
    unstable = {k for k, r in enumerate(results) if not r.records[0].stable}
    edge = [k for k in stable
            if {k - side, k + side} & unstable
            or (k % side and k - 1 in unstable) or ((k + 1) % side and k + 1 in unstable)]
    drifts = np.array([results[k].drifts[0] for k in edge])
    nearness = spectral_abscissae(drifts) / -hurwitz_margins(drifts)
    for j in np.argsort(-nearness)[:4]:
        add("fig6b near the Hurwitz margin", "fig6b", grid[edge[j]])
    fig2b = run_point(fig_preset("fig2b"), {"delta": 0.0, "xi": 0.0})
    for branch, rec in enumerate(fig2b.records):
        if _solved(rec):
            add("fig2b delta = xi = 0", "fig2b", {"delta": 0.0, "xi": 0.0}, branch)
    rng = np.random.default_rng(SEED)
    for k in rng.permutation(stable)[:10]:
        add("fig6b random", "fig6b", grid[k])
    fig3c = fig_preset("fig3c")
    grid3 = grid_points(fig3c)
    stable3 = [k for k, overrides in enumerate(grid3)
               if _solved(run_point(fig3c, overrides).records[0])]
    for k in rng.permutation(stable3)[:11]:
        add("fig3c random", "fig3c", grid3[k])
    return picked


def main() -> int:
    points = []
    for point in pick_points():
        _, drift, diffusion = point_inputs(point["preset"], point["overrides"], point["branch"])
        values = _checked_values(drift, diffusion)
        points.append({**point, "drift": drift.tolist(), "diffusion": diffusion.tolist(),
                       "oracle": values})
        print(f"{point['label']}: {point['preset']} {point['overrides']}")
    # one line per point
    head = json.dumps({"digits": KEPT, "columns": list(COLUMNS)})[:-1]
    lines = ",\n".join(json.dumps(point) for point in points)
    ORACLE.write_text(f'{head}, "points": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"wrote {len(points)} points to {ORACLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
