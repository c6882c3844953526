"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are asserted at their stated tolerances; a failing assertion
therefore marks a criterion that the implementation genuinely does not meet.

The figure presets are evaluated once per module, by ``engine.sweep_batches``:
in the chunks that ``hopcav fig`` evaluates, with each record's stationary
covariance alongside it.  ``tests/test_engine.py`` checks that these equal
what ``run_point`` gives point by point.
"""

import math
import time

import numpy as np
import pytest

from hopcav.dynamics import build_diffusion, build_reduced, figure_drift
from hopcav.engine import grid_points, run_point, run_sweep, sweep_batches
from hopcav.lyapunov import is_hurwitz, lyapunov_stack, solve_lyapunov
from hopcav.measures import fidelity_bound, log_negativity, symplectic_eigenvalues
from hopcav.params import Detuning, PhysicalParams, thermal_occupation
from hopcav.presets import PRESET_NAMES, fig_preset
from hopcav.squeezed import SqueezedBath
from hopcav.stability import stability_map
from hopcav.steady_state import solve_fixed_detuning

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


class PresetCache:
    """Each preset's records and, aligned with them, their covariances."""

    def __init__(self):
        self._cache = {}

    def run(self, name):
        if name not in self._cache:
            batches = list(sweep_batches(fig_preset(name)))
            self._cache[name] = ([rec for records, _ in batches for rec in records],
                                 [w for _, covariances in batches for w in covariances])
        return self._cache[name]

    def records(self, name):
        return self.run(name)[0]


@pytest.fixture(scope="module")
def presets():
    return PresetCache()


def curve(records, key, value):
    return [r for r in records if getattr(r, key) == value]


def peak(rows, field="en_f1m1"):
    vals = [(getattr(r, field), r.delta) for r in rows if getattr(r, field) is not None]
    if not vals:
        return (None, None)
    v, d = max(vals)
    return v, d


def test_criterion_01_decoupled_lyapunov_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        nbar = rng.uniform(0.0, 2e4)
        n_ph = rng.uniform(0.0, 3.0)
        omega_m = rng.uniform(1e6, 1e8)
        gamma_m = omega_m / rng.uniform(1e3, 1e5)
        kappa = rng.uniform(1e5, 1e9)
        delta = rng.uniform(-2.0, 2.0) * omega_m
        p = PhysicalParams(
            cavity_length=1e-3, mirror_mass=5e-12, mech_freq=omega_m,
            mech_damping=gamma_m, cavity_decay=kappa, laser_wavelength=810e-9,
            drive_power=0.0, bath_temperature=0.4, hop_strength=0.0,
            detuning=Detuning("effective", (delta, delta)),
        )
        steady = solve_fixed_detuning(p, delta, delta)
        # the Langevin-convention drift: figure_drift under the other sign
        a = figure_drift(p, steady, "negative")
        q = build_diffusion(p, SqueezedBath(n_ph, 0.0), nbar)
        sol = solve_lyapunov(a, q)
        expected = np.diag([nbar + 0.5, nbar + 0.5, n_ph + 0.5, n_ph + 0.5] * 2)
        err = np.abs(sol.w - expected).max() / expected.max()
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, ok, f"decoupled closed form: worst rel err {worst:.2e}, {elapsed:.2f}s for 100 draws")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_two_mode_squeezed_vacuum_oracle():
    cases = {1e-3: None, 0.05: None, 0.5: None, 3.0: None}
    worst = 0.0
    for n in cases:
        m = math.sqrt(n * (n + 1.0))
        w = np.diag([n + 0.5] * 4)
        w[0, 2] = w[2, 0] = m
        w[1, 3] = w[3, 1] = -m
        got = log_negativity(w).log_neg
        expected = 2.0 * math.asinh(math.sqrt(n))
        worst = max(worst, abs(got - expected))
    ok = worst < 1e-9
    report(2, ok, f"squeezed-vacuum negativity: worst abs err {worst:.2e}")
    assert worst < 1e-9


def test_criterion_03_thermal_occupation_reference():
    n = thermal_occupation(WM, 0.4)
    ok = 827.0 <= n <= 845.0
    report(3, ok, f"thermal occupation at 0.4 K: {n:.2f} (window [827, 845])")
    assert ok


def test_criterion_04_power_family_structure(presets):
    # the time of the per-point route over the preset's grid
    cfg = fig_preset("fig3a")
    t0 = time.perf_counter()
    for p in grid_points(cfg):
        run_point(cfg, p)
    elapsed = time.perf_counter() - t0
    records = presets.records("fig3a")
    powers = sorted({r.power for r in records})
    base_power = powers[1]  # 50 mW
    base_curve = curve(records, "power", base_power)

    positive_deltas = sorted(r.delta for r in base_curve if (r.en_f1m1 or 0.0) > 0.0)
    has_interval = any(
        a <= 1.0 <= b
        for a, b in zip(positive_deltas, positive_deltas[1:])
    ) or (positive_deltas and positive_deltas[0] <= 1.0 <= positive_deltas[-1])

    peak_val, peak_loc = peak(base_curve)
    loc_ok = 0.7 <= peak_loc <= 1.3

    peaks = [peak(curve(records, "power", pw))[0] for pw in powers]
    increasing = all(b > a for a, b in zip(peaks, peaks[1:]))

    ok = has_interval and loc_ok and increasing and elapsed < 10.0
    report(
        4, ok,
        f"power family: positive interval around 1 = {has_interval}, "
        f"peak at {peak_loc:.2f} (value {peak_val:.4f}), "
        f"peaks by power {[f'{p:.4f}' for p in peaks]} increasing = {increasing}, "
        f"{elapsed:.1f}s for {len(records)} points",
    )
    assert elapsed < 10.0
    assert has_interval, "no positive-entanglement interval around delta = 1"
    assert loc_ok, f"peak location {peak_loc} outside [0.7, 1.3]"
    assert increasing, f"peak values {peaks} are not strictly increasing with power"


def test_criterion_05_monotone_in_occupation_and_photon_number(presets):
    rec3b = presets.records("fig3b")
    nbars = sorted({r.nbar for r in rec3b})
    peaks_nbar = [peak(curve(rec3b, "nbar", nb))[0] for nb in nbars]
    dec_nbar = all(b < a for a, b in zip(peaks_nbar, peaks_nbar[1:]))

    rec4a = presets.records("fig4a")
    ns = sorted({r.photon_number for r in rec4a})
    peaks_n = [peak(curve(rec4a, "photon_number", n))[0] for n in ns]
    dec_n = all(b < a for a, b in zip(peaks_n, peaks_n[1:]))

    ok = dec_nbar and dec_n
    report(
        5, ok,
        f"peaks vs occupation {[f'{p:.4f}' for p in peaks_nbar]} decreasing = {dec_nbar}; "
        f"peaks vs photon number {[f'{p:.4f}' for p in peaks_n]} decreasing = {dec_n}",
    )
    assert dec_nbar
    assert dec_n


def test_criterion_06_peak_shift_with_hopping(presets):
    rec3c = presets.records("fig3c")
    xis = sorted({r.xi for r in rec3c})
    argmaxes = [peak(curve(rec3c, "xi", x))[1] for x in xis]
    nondecreasing = all(b >= a for a, b in zip(argmaxes, argmaxes[1:]))

    # collective-model optimum: sweep its modified detuning at the coupling of
    # the 50 mW working point; the best detuning should sit within 20% of the
    # mechanical frequency.  The collective coordinates are normalized here
    # (vacuum variance 1/2) so the negativity is that of a physical state.
    p = fig_preset("fig3c").params
    steady = solve_fixed_detuning(p, -WM, -WM)
    coupling = steady.eff_coupling[0]
    nbar = 836.0
    best = (None, -1.0)
    for dp in np.linspace(0.05, 3.0, 296):
        red = build_reduced(p, coupling, dp * WM - p.hop_strength)
        ok_h, _ = is_hurwitz(red.drift)
        if not ok_h:
            continue
        q = np.diag([0.0, p.mech_damping[0] * (2 * nbar + 1),
                     p.cavity_decay[0], p.cavity_decay[0]])
        w, _ = lyapunov_stack(red.drift[None], q[None])
        en = log_negativity(w[0]).log_neg
        if en > best[1]:
            best = (dp, en)
    reduced_ok = 0.8 <= best[0] <= 1.2

    ok = nondecreasing and reduced_ok
    report(
        6, ok,
        f"argmax by hopping {argmaxes} nondecreasing = {nondecreasing}; "
        f"collective optimum at {best[0]:.2f} omega_m (window [0.8, 1.2])",
    )
    assert nondecreasing
    assert reduced_ok


def test_criterion_07_stability_map():
    cfg = fig_preset("fig5")
    deltas = cfg.axes[0].values
    xis = cfg.axes[1].values
    reports = stability_map(cfg.params, deltas, xis)

    hop_dominated = [r for r in reports if r.xi >= r.delta]
    bad_region = [r for r in hop_dominated if not (r.s1 > 0 and r.s2 > 0)]

    disagreements = [r for r in reports if not r.agree]
    for r in disagreements:
        print(f"  disagreement at delta={r.delta:.3f}, xi={r.xi:.3f}: "
              f"s1={r.s1:.3e}, s2={r.s2:.3e}, eigen={r.hurwitz_reduced}")
    agree_frac = 1.0 - len(disagreements) / len(reports)

    ok = not bad_region and agree_frac >= 0.99
    report(
        7, ok,
        f"stability map {len(deltas)}x{len(xis)}: hop-dominated points all satisfied = "
        f"{not bad_region} ({len(hop_dominated)} points), sign/eigen agreement "
        f"{100 * agree_frac:.2f}%",
    )
    assert not bad_region, f"{len(bad_region)} hop-dominated points violate the conditions"
    assert agree_frac >= 0.99


def test_criterion_08_entanglement_transfer(presets):
    cfg = fig_preset("fig6b")
    out = {}
    for n in (0.0, 0.05):
        res = run_point(cfg, {"delta": 1.5, "xi": 1.0, "photon_number": n})
        (rec,) = res.records
        assert rec.stable, "the reference transfer point must be stable"
        out[n] = rec
    ff_incr = out[0.05].en_f1f2 > out[0.0].en_f1f2
    fm_decr = out[0.05].en_f1m1 < out[0.0].en_f1m1
    ok = ff_incr and fm_decr
    report(
        8, ok,
        f"transfer at (1.5, 1.0): cavity-cavity {out[0.0].en_f1f2:.4f} -> "
        f"{out[0.05].en_f1f2:.4f} (increase = {ff_incr}); mirror-cavity "
        f"{out[0.0].en_f1m1:.4f} -> {out[0.05].en_f1m1:.4f} (decrease = {fm_decr})",
    )
    assert fm_decr, "mirror-cavity entanglement must strictly decrease"
    assert ff_incr, "cavity-cavity entanglement must strictly increase"


def test_criterion_09_fidelity_consistency(presets):
    assert fidelity_bound(0.0) == 0.5
    records = presets.records("fig7")
    worst = 0.0
    emitted_unstable = 0
    in_range = True
    for r in records:
        if r.stable:
            direct = 1.0 / (1.0 + math.exp(-r.en_f1f2))
            worst = max(worst, abs(r.fidelity_bound - direct))
            in_range = in_range and 0.0 < r.fidelity <= 1.0 and 0.0 < r.fidelity_bound <= 1.0
        else:
            if r.fidelity is not None or r.fidelity_bound is not None:
                emitted_unstable += 1
    ok = worst < 1e-12 and emitted_unstable == 0 and in_range
    report(
        9, ok,
        f"bound at zero exactly 1/2; surface bound vs direct worst err {worst:.2e}; "
        f"fidelity leaked at {emitted_unstable} unstable points; "
        f"all stable-point fidelities in (0, 1] = {in_range}",
    )
    assert worst < 1e-12
    assert emitted_unstable == 0
    assert in_range


def test_criterion_10_physicality_suite(presets):
    checked = 0
    worst_sympl = math.inf
    worst_res = 0.0
    for name in PRESET_NAMES:
        for rec, w in zip(*presets.run(name)):
            if not rec.stable or w is None:
                continue
            checked += 1
            worst_sympl = min(worst_sympl, symplectic_eigenvalues(w).min())
            worst_res = max(worst_res, rec.lyap_residual)
    ok = worst_sympl >= 0.5 - 1e-8 and worst_res < 1e-9
    report(
        10, ok,
        f"{checked} stable points over {len(PRESET_NAMES)} presets: "
        f"min symplectic eigenvalue {worst_sympl:.12f}, max residual {worst_res:.2e}",
    )
    assert checked > 0
    assert worst_sympl >= 0.5 - 1e-8
    assert worst_res < 1e-9


def test_criterion_11_performance(presets):
    cfg = fig_preset("fig6b")
    overrides = {"delta": 1.0, "xi": 0.5, "photon_number": 0.05}
    run_point(cfg, overrides)  # warm-up
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        run_point(cfg, overrides)
        times.append(time.perf_counter() - t0)
    per_point = sorted(times)[len(times) // 2]

    t0 = time.perf_counter()
    run_sweep(cfg, workers=1)
    surface = time.perf_counter() - t0

    ok = per_point < 5e-3 and surface < 60.0
    report(
        11, ok,
        f"single point {per_point * 1e3:.2f} ms (< 5 ms); "
        f"101x101 surface {surface:.1f} s single-worker (< 60 s)",
    )
    assert per_point < 5e-3
    assert surface < 60.0
