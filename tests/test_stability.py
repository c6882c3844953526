import dataclasses
import math

import numpy as np
import pytest

from hopcav.dynamics import build_reduced, figure_drift
from hopcav.engine import AxisSpec, csv_text, run_point, run_sweep
from hopcav.errors import ConfigError, HopcavError
from hopcav.lyapunov import is_hurwitz
from hopcav.params import Detuning, PhysicalParams
from hopcav.presets import fig_preset
from hopcav.stability import (
    StabilityReport,
    routh_hurwitz_reduced,
    stability_map,
    stability_point,
)
from hopcav.steady_state import solve_fixed_detuning

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def make_params(xi=0.0, power=0.05):
    return PhysicalParams(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi,
        detuning=Detuning("effective", (0.0, 0.0)),
    )


class TestRouthHurwitzFormulas:
    def test_zero_coupling(self):
        gm = TWO_PI * 100.0
        kap = TWO_PI * 14e6
        for dp in (-2.0 * WM, 0.0, 0.7 * WM, 3.0 * WM):
            s1, _ = routh_hurwitz_reduced(WM, gm, kap, 0.0, dp)
            assert s1 == pytest.approx(WM * (kap * kap + dp * dp), rel=1e-14)
            assert s1 > 0.0

    def test_zero_detuning_reduction(self):
        gm = TWO_PI * 100.0
        kap = TWO_PI * 14e6
        coupling = 3e7
        s1, s2 = routh_hurwitz_reduced(WM, gm, kap, coupling, 0.0)
        assert s1 == pytest.approx(WM * kap * kap, rel=1e-14)
        expected = 2.0 * gm * kap * (
            (kap * kap + WM * WM) ** 2
            + gm * ((gm + 2 * kap) * kap * kap + 2 * kap * WM * WM)
        )
        assert s2 == pytest.approx(expected, rel=1e-14)
        assert s2 > 0.0

    def test_agreement_at_operating_point(self):
        p = make_params()
        ss = solve_fixed_detuning(p, -WM, -WM)
        coupling = ss.eff_coupling[0]
        s1, s2 = routh_hurwitz_reduced(WM, p.mech_damping[0], p.cavity_decay[0], coupling, WM)
        red = build_reduced(p, coupling, WM)
        hur, _ = is_hurwitz(red.drift)
        assert (s1 > 0 and s2 > 0) == hur
        assert hur  # this point is stable

    def test_sign_conditions_match_eigenvalues_random(self):
        # the two scalars are exactly the nontrivial stability conditions of
        # the collective quartic; no mismatches are tolerated
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(2000):
            wm, gm, kap, coupling, dp = rng.uniform(0.1, 3.0, 5)
            dp = dp * rng.choice([-1.0, 1.0])
            s1, s2 = routh_hurwitz_reduced(wm, gm, kap, coupling, dp)
            drift = np.array([
                [0.0, wm, 0.0, 0.0],
                [-wm, -gm, coupling, 0.0],
                [0.0, 0.0, -kap, dp],
                [coupling, 0.0, -dp, -kap],
            ])
            absc = np.linalg.eigvals(drift).real.max()
            if abs(absc) < 1e-9:  # skip points within rounding of the boundary
                continue
            checked += 1
            assert (s1 > 0 and s2 > 0) == (absc < 0), (wm, gm, kap, coupling, dp)
        assert checked > 1900


class TestStabilityMap:
    def test_undriven_map_is_entirely_stable(self):
        p = make_params(power=0.0)
        reports = stability_map(p, np.linspace(0, 2, 5), np.linspace(0, 2, 5))
        assert len(reports) == 25
        for r in reports:
            assert r.s1 > 0 and r.s2 > 0
            assert r.hurwitz_reduced
            assert r.agree

    def test_reference_grid_structure(self):
        p = make_params(power=0.05)
        deltas = np.linspace(0.0, 2.0, 21)
        xis = np.linspace(0.0, 2.0, 21)
        reports = stability_map(p, deltas, xis)
        # row-major order
        assert [r.delta for r in reports[:21]] == [0.0] * 21
        assert reports[1].xi == pytest.approx(0.1)
        # the collective conditions hold wherever hopping dominates detuning
        for r in reports:
            if r.xi >= r.delta:
                assert r.s1 > 0 and r.s2 > 0
        # formula signs and the eigenvalue verdict agree at every grid point
        assert all(r.agree for r in reports)

    def test_full_stability_implies_reduced(self):
        p = make_params(power=0.05)
        reports = stability_map(p, np.linspace(0, 2, 11), np.linspace(0, 2, 11))
        for r in reports:
            if r.hurwitz_full:
                assert r.hurwitz_reduced

    def test_point_helper_matches_map(self):
        p = make_params(power=0.05)
        single = stability_point(p, 1.0, 0.5)
        grid = stability_map(p, [1.0, 2.0], [0.5, 1.5])
        assert grid[0] == single

    def test_asymmetric_rejected(self):
        p = make_params()
        p = dataclasses.replace(p, cavity_decay=(TWO_PI * 14e6, TWO_PI * 7e6))
        with pytest.raises(ConfigError):
            stability_map(p, [0.0, 1.0], [0.0, 1.0])

    def test_map_equals_point_by_point_oracle(self):
        # 75 mW: the grid crosses the bistability (s1) and the
        # self-oscillation (s2) boundaries; xi starts at 0
        p = make_params(power=0.075)
        deltas = np.linspace(-1.5, 2.0, 15)
        xis = np.linspace(0.0, 1.5, 7)
        oracle = []
        for delta in deltas:
            for xi in xis:
                q = dataclasses.replace(p, hop_strength=float(xi) * WM)
                d = float(delta) * WM
                steady = solve_fixed_detuning(q, -d, -d)
                coupling = steady.eff_coupling[0]
                s1, s2 = routh_hurwitz_reduced(WM, q.mech_damping[0], q.cavity_decay[0],
                                               coupling, d + q.hop_strength)
                red = is_hurwitz(build_reduced(q, coupling, d).drift)[0]
                full = is_hurwitz(figure_drift(q, steady))[0]
                oracle.append(StabilityReport(float(delta), float(xi), s1, s2, red, full,
                                              (s1 > 0.0 and s2 > 0.0) == red))
        reports = stability_map(p, deltas, xis)
        assert reports == oracle
        assert any(r.s1 < 0 for r in reports) and any(r.s2 < 0 for r in reports)
        assert any(r.hurwitz_full for r in reports)

    def test_map_checks_each_hopping_value_once(self, monkeypatch):
        config = fig_preset("fig5")
        axes = {a.name: a.values for a in config.axes}
        calls = []
        post_init = PhysicalParams.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(PhysicalParams, "__post_init__", counted)
        reports = stability_map(config.params, axes["delta"], axes["xi"])
        assert len(reports) == 101 * 101
        assert len(calls) <= 1 + len(set(axes["delta"])) + len(set(axes["xi"]))

    @pytest.mark.parametrize("xi", [0.3, -0.0, -0.5, math.inf, math.nan])
    def test_hopping_check_is_the_parameters_check(self, xi):
        # the map checks xi as PhysicalParams checks its hop_strength field
        from hopcav.params import checked_hop_strength

        params = make_params()
        try:
            want = dataclasses.replace(params, hop_strength=xi * WM).hop_strength
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                checked_hop_strength(xi * WM)
            assert str(info.value) == str(exc)
        else:
            assert checked_hop_strength(xi * WM) == want

    def test_negative_hopping_is_rejected(self):
        with pytest.raises(ConfigError, match="hop_strength must be nonnegative"):
            stability_map(make_params(), [0.5, 1.0], [0.5, -0.5])


class TestSharedGate:
    """The sweep and the map gate their working points through one stage."""

    def test_map_matches_sweep_records(self):
        config = fig_preset("fig5")
        grid = np.linspace(0.0, 2.0, 11)
        config = dataclasses.replace(config, axes=(AxisSpec("delta", grid), AxisSpec("xi", grid)))
        records = run_sweep(config).records
        reports = stability_map(config.params, grid, grid, config.detuning_sign)
        assert [(r.s1, r.s2, r.hurwitz_full) for r in reports] == [
            (rec.s1, rec.s2, rec.stable) for rec in records
        ]
        assert any(r.hurwitz_full for r in reports) and not all(r.hurwitz_full for r in reports)

    def test_failing_branch_alone_carries_the_error(self):
        # 1e300 W overflows the drive amplitude: its drifts cannot be gated,
        # so the stacked gate raises and the branches are redone one by one
        config = fig_preset("fig5")
        config = dataclasses.replace(
            config, axes=(AxisSpec("power", (0.05, 1e300)), AxisSpec("delta", (0.5, 1.0))),
        )
        records = run_sweep(config).records
        assert [r.error.startswith("eigenvalue solver failed") for r in records] == [
            False, False, True, True,
        ]
        assert all(r.stable for r in records[:2])
        # the amplitudes are NaN, so the rows compare as CSV text
        singles = [rec for r in records[2:]
                   for rec in run_point(config, {"power": r.power, "delta": r.delta}).records]
        assert csv_text(singles) == csv_text(records[2:])

    def test_map_raises_the_failing_points_error(self):
        config = fig_preset("fig5")
        (rec,) = run_point(config, {"power": 1e300, "delta": 0.5}).records
        params = dataclasses.replace(config.params, drive_power=1e300)
        with pytest.raises(HopcavError) as info:
            stability_map(params, [0.5, 1.0], [0.0, 0.5])
        assert str(info.value) == rec.error
