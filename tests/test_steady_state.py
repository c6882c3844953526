import math

import numpy as np
import pytest
from scipy import optimize

from hopcav import steady_state
from hopcav.params import Detuning, PhysicalParams, derive_coupling, drive_amps
from hopcav.steady_state import (
    effective_coupling,
    solve_fixed_detuning,
    solve_self_consistent,
)

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def make_params(power=0.05, xi=0.0, mode="effective", delta=0.0, **overrides):
    base = dict(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi,
        detuning=Detuning(mode, (delta, delta)),
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestWorkingPointColumns:
    """The batch's columns equal, entry for entry, the per-point closed form
    and the working point it assembles."""

    def batch(self, rng, count):
        kappa = (TWO_PI * 14e6, TWO_PI * 9e6)
        coupling = (310.0, 290.0)
        drives = [tuple(rng.uniform(0.0, 3e11, 2)) for _ in range(count)]
        hops = list(rng.uniform(0.0, 2.0, count) * WM)
        detunings = [tuple(rng.uniform(-4.0, 4.0, 2) * WM) for _ in range(count)]
        return kappa, coupling, drives, hops, detunings

    def test_columns_equal_the_per_point_closed_form(self):
        rng = np.random.default_rng(31)
        kappa, coupling, drives, hops, detunings = self.batch(rng, 400)
        points = steady_state.fixed_detuning_points(kappa, (WM, WM), coupling, drives, hops,
                                                    detunings)
        larger_imaginary = 0
        for k, (e, xi, (d1, d2)) in enumerate(zip(drives, hops, detunings)):
            amp1, amp2, a1, a2 = steady_state._closed_form_amps(kappa, xi, e[0], e[1], d1, d2)
            denom = a1 * a2 + xi * xi
            larger_imaginary += abs(denom.imag) > abs(denom.real)
            want = steady_state._assemble((WM, WM), xi, coupling, e, amp1, amp2, d1, d2, a1, a2)
            assert points.errors[k] is None
            assert points.amp[k].tolist() == [amp1, amp2]
            assert points.amp_abs[k].tolist() == [abs(amp1), abs(amp2)]
            assert points.eff_coupling[k].tolist() == list(want.eff_coupling)
            assert points.eff_detuning[k].tolist() == [d1, d2]
            assert points.steady(k) == want
        # both branches of the complex quotient are taken
        assert 0 < larger_imaginary < len(drives)

    def test_singular_denominator_keeps_its_error_in_place(self, monkeypatch):
        # |alpha1 alpha2 + xi^2| >= kappa1 kappa2 for positive decay rates, so a
        # threshold above 1 is needed to reach the singular branch
        monkeypatch.setattr(steady_state, "DEGENERATE_RTOL", 2.0)
        rng = np.random.default_rng(32)
        kappa, coupling, drives, hops, detunings = self.batch(rng, 200)
        points = steady_state.fixed_detuning_points(kappa, (WM, WM), coupling, drives, hops,
                                                    detunings)
        singular = 0
        for k, (e, xi, (d1, d2)) in enumerate(zip(drives, hops, detunings)):
            try:
                amp1, amp2, _, _ = steady_state._closed_form_amps(kappa, xi, e[0], e[1], d1, d2)
            except steady_state.DegenerateConfigurationError as exc:
                singular += 1
                assert type(points.errors[k]) is type(exc) and str(points.errors[k]) == str(exc)
                assert np.isnan(points.amp_abs[k]).all()
            else:
                assert points.errors[k] is None
                assert points.amp[k].tolist() == [amp1, amp2]
        assert 0 < singular < len(drives)


class TestFixedDetuning:
    def test_symmetric_closed_form_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            kap = rng.uniform(1e6, 5e8)
            xi = rng.uniform(0.0, 3e8)
            delta = rng.uniform(-3e8, 3e8)
            p = make_params(cavity_decay=kap, xi=xi)
            ss = solve_fixed_detuning(p, delta, delta)
            e = drive_amps(p)[0]
            expected = e / complex(kap, delta - xi)
            assert abs(ss.amp[0] - expected) <= 1e-12 * abs(expected)
            assert abs(ss.amp[1] - expected) <= 1e-12 * abs(expected)

    def test_uncoupled_single_cavity_formula(self):
        p = make_params(xi=0.0, drive_power=(0.05, 0.02))
        d1, d2 = 0.7 * WM, -0.3 * WM
        ss = solve_fixed_detuning(p, d1, d2)
        e = drive_amps(p)
        assert ss.amp[0] == pytest.approx(e[0] / complex(p.cavity_decay[0], d1), rel=1e-13)
        assert ss.amp[1] == pytest.approx(e[1] / complex(p.cavity_decay[1], d2), rel=1e-13)

    def test_large_amplitude_regime(self):
        # 35 mW drive with detuning = hopping = omega_m puts the amplitude
        # in the strongly classical regime
        p = make_params(power=0.035, xi=WM)
        ss = solve_fixed_detuning(p, WM, WM)
        assert 1e4 <= abs(ss.amp[0]) <= 1e5
        assert 1e4 <= abs(ss.amp[1]) <= 1e5

    def test_residual_and_displacement_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = make_params(power=rng.uniform(0.0, 0.1), xi=rng.uniform(0, 2 * WM))
            d = rng.uniform(-2 * WM, 2 * WM)
            ss = solve_fixed_detuning(p, d, d)
            assert ss.residual < 1e-10
            assert ss.momentum == (0.0, 0.0)
            g = derive_coupling(p, 1)
            q_expected = g * abs(ss.amp[0]) ** 2 / WM
            assert ss.displacement[0] == pytest.approx(q_expected, rel=1e-10, abs=1e-300)

    def test_monotone_in_power(self):
        powers = np.linspace(0.001, 0.1, 15)
        amps = [
            abs(solve_fixed_detuning(make_params(power=float(pw)), 0.5 * WM, 0.5 * WM).amp[0])
            for pw in powers
        ]
        assert all(b > a for a, b in zip(amps, amps[1:]))

    def test_detuning_echoed(self):
        ss = solve_fixed_detuning(make_params(), 0.25 * WM, -0.5 * WM)
        assert ss.eff_detuning == (0.25 * WM, -0.5 * WM)

    def test_denominator_never_degenerates_for_positive_decay(self):
        # |alpha1*alpha2 + xi^2| >= kappa1*kappa2 whenever both decay rates are
        # positive, so the closed form is well posed on the whole physical
        # parameter range
        rng = np.random.default_rng(33)
        for _ in range(200):
            k1, k2 = rng.uniform(1e5, 1e9, 2)
            d1, d2 = rng.uniform(-1e9, 1e9, 2)
            xi = rng.uniform(0.0, 1e9)
            denom = complex(k1, d1) * complex(k2, d2) + xi * xi
            assert abs(denom) >= k1 * k2 * (1.0 - 1e-12)


class TestEffectiveCoupling:
    def test_zero_amplitude(self):
        assert effective_coupling(1347.0, 0j) == 0.0

    def test_reference_product(self):
        g = effective_coupling(1.35e3, 2.5e4 + 0j)
        assert g == pytest.approx(math.sqrt(2) * 1.35e3 * 2.5e4, rel=1e-14)
        assert g == pytest.approx(4.77297e7, rel=1e-5)
        assert g / WM == pytest.approx(0.7596, rel=1e-3)

    def test_phase_invariance(self):
        amp = 1.3e4 - 0.4e4j
        for theta in (0.3, 1.2, 2.9):
            rotated = amp * complex(math.cos(theta), math.sin(theta))
            assert effective_coupling(1347.0, rotated) == pytest.approx(
                effective_coupling(1347.0, amp), rel=1e-14
            )


def scalar_branch_oracle(p, delta0):
    """Brute-force roots of the symmetric photon-number equation
    u (kappa^2 + (delta0 - b u - xi)^2) = E^2 on a dense grid."""
    e = drive_amps(p)[0]
    g = derive_coupling(p, 1)
    kap = p.cavity_decay[0]
    xi = p.hop_strength
    b = g * g / p.mech_freq[0]

    def h(u):
        dd = delta0 - b * u - xi
        return u * (kap * kap + dd * dd) - e * e

    grid = np.linspace(0.0, 1.1 * (e / kap) ** 2 + 1.0, 20001)
    vals = np.array([h(u) for u in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(optimize.brentq(h, grid[i], grid[i + 1], rtol=1e-14))
    return sorted(roots)


class TestSelfConsistent:
    def test_zero_coupling_reduces_to_fixed_detuning(self):
        p = make_params(power=0.05, xi=0.4 * WM)
        d0 = 0.8 * WM
        branches = solve_self_consistent(p, d0, d0, coupling=(0.0, 0.0))
        assert len(branches) == 1
        fixed = solve_fixed_detuning(p, d0, d0)
        assert branches[0].amp[0] == pytest.approx(fixed.amp[0], rel=1e-10)
        assert branches[0].eff_detuning == (d0, d0)

    def test_undriven_gives_zero_branch(self):
        branches = solve_self_consistent(make_params(power=0.0), 0.5 * WM, 0.5 * WM)
        assert len(branches) == 1
        assert branches[0].amp == (0j, 0j)
        assert branches[0].displacement == (0.0, 0.0)

    def test_branch_counts_match_scalar_scan(self):
        # at 50 mW the static phase shift tops out below the fold threshold,
        # so this window is single-valued; counts must still match the scan
        p = make_params(power=0.05)
        counts = []
        for delta0 in np.linspace(0.0, 2.0 * WM, 21):
            branches = solve_self_consistent(p, float(delta0), float(delta0))
            oracle = scalar_branch_oracle(p, float(delta0))
            assert len(branches) == len(oracle), f"delta0={delta0/WM}"
            for ss, u in zip(branches, oracle):
                assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
            counts.append(len(branches))
        assert set(counts) <= {1, 3}

    def test_bistable_window_matches_scalar_scan(self):
        # 100 mW drive folds the response around bare detunings of 3.5-4.3
        # mechanical frequencies
        p = make_params(power=0.1)
        counts = []
        for delta0 in np.linspace(3.5 * WM, 4.3 * WM, 9):
            branches = solve_self_consistent(p, float(delta0), float(delta0))
            oracle = scalar_branch_oracle(p, float(delta0))
            assert len(branches) == len(oracle), f"delta0={delta0/WM}"
            for ss, u in zip(branches, oracle):
                assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
            counts.append(len(branches))
        assert 3 in counts
        assert set(counts) <= {1, 3}

    def test_branch_residuals_and_consistency(self):
        p = make_params(power=0.05)
        for delta0 in (0.3 * WM, 1.1 * WM, 1.9 * WM):
            for ss in solve_self_consistent(p, delta0, delta0):
                assert ss.residual < 1e-10
                g = derive_coupling(p, 1)
                shift = g * g * abs(ss.amp[0]) ** 2 / WM
                assert ss.eff_detuning[0] == pytest.approx(delta0 - shift, rel=1e-9, abs=1e-6)

    def test_branches_sorted_by_amplitude(self):
        p = make_params(power=0.05)
        branches = solve_self_consistent(p, 1.2 * WM, 1.2 * WM)
        amps = [abs(b.amp[0]) for b in branches]
        assert amps == sorted(amps)
        assert [b.branch for b in branches] == list(range(len(branches)))

    def test_asymmetric_drive_route(self):
        p = make_params(power=(0.02, 0.05), xi=0.3 * WM)
        branches = solve_self_consistent(p, 0.6 * WM, 0.9 * WM)
        assert branches
        for ss in branches:
            assert ss.residual < 1e-10


class RootCalled(Exception):
    pass


class TestRoutes:
    """Symmetric inputs take only the scalar photon-number route; every other
    input takes only the seeded iteration with its root refinement."""

    @pytest.fixture
    def routes(self, monkeypatch):
        amps_calls = []
        closed_form = steady_state._closed_form_amps

        def counted(*args):
            amps_calls.append(args)
            return closed_form(*args)

        def refuse(*args, **kwargs):
            raise RootCalled

        monkeypatch.setattr(steady_state, "_closed_form_amps", counted)
        monkeypatch.setattr(optimize, "root", refuse)
        return amps_calls

    def test_symmetric_inputs_use_the_scalar_route(self, routes):
        # 100 mW is bistable across this window
        p = make_params(power=0.1)
        for delta0 in np.linspace(3.5 * WM, 4.3 * WM, 9):
            routes.clear()
            branches = solve_self_consistent(p, float(delta0), float(delta0))
            oracle = scalar_branch_oracle(p, float(delta0))
            assert len(branches) == len(oracle) == 3, f"delta0={delta0/WM}"
            for ss, u in zip(branches, oracle):
                assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
            # one closed-form evaluation per scalar root, no damped iteration
            assert len(routes) == len(oracle)

    def test_asymmetric_input_uses_the_seeded_route(self, routes):
        p = make_params(power=(0.02, 0.05), xi=0.3 * WM)
        with pytest.raises(RootCalled):
            solve_self_consistent(p, 0.6 * WM, 0.9 * WM)

    def test_no_near_duplicate_branch_near_a_pitchfork(self):
        # symmetry-breaking branches split off within 1% of the middle
        # branch here; a seeded refinement used to stop 2e-8 off that branch
        # with a residual under the tolerance and add it as a fourth branch
        p = make_params(power=0.22173034565638772, xi=0.7702247659467343 * WM)
        delta0 = 5.5283269487508475 * WM
        branches = solve_self_consistent(p, delta0, delta0)
        oracle = scalar_branch_oracle(p, delta0)
        assert len(branches) == len(oracle) == 3
        for ss, u in zip(branches, oracle):
            assert ss.amp[0] == ss.amp[1]
            assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
