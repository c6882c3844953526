import dataclasses
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopcav.dynamics import (
    DETUNING_SIGNS,
    QUADRATURE_LABELS,
    build_diffusion,
    build_reduced,
    collective_cells,
    collective_drifts,
    collective_stack,
    drift_stack,
    exchange_blocks,
    figure_drift,
)
from hopcav.errors import ConfigError, UnphysicalBathError
from hopcav.params import Detuning, PhysicalParams
from hopcav.squeezed import SqueezedBath
from hopcav.steady_state import SteadyState, solve_fixed_detuning

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def make_params(xi=0.0, **overrides):
    base = dict(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=0.05,
        bath_temperature=0.4,
        hop_strength=xi,
        detuning=Detuning("effective", (0.0, 0.0)),
    )
    base.update(overrides)
    return PhysicalParams(**base)


def fake_steady(params, coupling, detuning):
    """Steady state shell carrying given couplings and detunings."""
    return SteadyState(
        amp=(0j, 0j),
        displacement=(0.0, 0.0),
        momentum=(0.0, 0.0),
        eff_detuning=(detuning, detuning),
        eff_coupling=(coupling, coupling),
        residual=0.0,
    )


def drift(params, coupling, detuning, detuning_sign="positive"):
    """The drift at equal couplings and detunings, placed as given."""
    return drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                       [(coupling, coupling)], [(detuning, detuning)], [params.hop_strength],
                       detuning_sign)[0]


class TestDriftMatrix:
    def test_quadrature_order(self):
        assert QUADRATURE_LABELS == ("q1", "p1", "x1", "y1", "q2", "p2", "x2", "y2")

    def test_decoupled_blocks(self):
        p = make_params()
        a = drift(p, 0.0, 0.6 * WM)
        gm = p.mech_damping[0]
        kap = p.cavity_decay[0]
        mech = np.array([[0.0, WM], [-WM, -gm]])
        opt = np.array([[-kap, 0.6 * WM], [-0.6 * WM, -kap]])
        for o in (0, 4):
            np.testing.assert_allclose(a[o:o + 2, o:o + 2], mech)
            np.testing.assert_allclose(a[o + 2:o + 4, o + 2:o + 4], opt)
        # everything else zero in the uncoupled limit
        mask = np.zeros((8, 8), dtype=bool)
        for o in (0, 4):
            mask[o:o + 2, o:o + 2] = True
            mask[o + 2:o + 4, o + 2:o + 4] = True
        assert np.all(a[~mask] == 0.0)

    def test_hopping_entries(self):
        p = make_params(xi=0.37 * WM)
        a = drift(p, 1e7, 0.5 * WM)
        xi = 0.37 * WM
        assert a[2, 7] == -xi
        assert a[3, 6] == xi
        assert a[6, 3] == -xi
        assert a[7, 2] == xi

    def test_sparsity_pattern_22_nonzeros(self):
        p = make_params(xi=0.37 * WM)
        a = drift(p, 1e7, 0.5 * WM)
        assert np.count_nonzero(a) == 22

    def test_sign_conventions_mirror_each_other(self):
        p = make_params(xi=0.2 * WM)
        plus = drift(p, 2e7, 0.8 * WM, "positive")
        minus = drift(p, 2e7, -0.8 * WM, "negative")
        np.testing.assert_array_equal(plus, minus)

    def test_figure_drift_places_negated_detunings(self):
        p = make_params(xi=0.2 * WM)
        steady = fake_steady(p, 2e7, -0.8 * WM)
        np.testing.assert_array_equal(
            figure_drift(p, steady, "positive"),
            drift(p, 2e7, 0.8 * WM, "positive"),
        )

    def test_langevin_drift_is_figure_drift_under_other_sign(self):
        # the drift of a working point as the Langevin solver stores it
        p = make_params(xi=0.2 * WM)
        steady = fake_steady(p, 2e7, 0.8 * WM)
        for sign, other in (("positive", "negative"), ("negative", "positive")):
            np.testing.assert_array_equal(figure_drift(p, steady, other),
                                          drift(p, 2e7, 0.8 * WM, sign))

    def test_characteristic_polynomial_symbolic(self):
        # all parameters 1: independently expand det(sI - A) with a CAS
        a = drift_stack((1, 1), (1, 1), (1, 1), [(1, 1)], [(1, 1)], [1.0])[0]
        s = sympy.symbols("s")
        sym = sympy.Matrix(sympy.eye(8) * s - sympy.Matrix(a))
        coeffs = sympy.Poly(sym.det(), s).all_coeffs()
        numeric = np.poly(a)
        np.testing.assert_allclose(numeric, [float(c) for c in coeffs], atol=1e-9)

    def test_bad_sign_convention(self):
        p = make_params()
        with pytest.raises(ConfigError):
            figure_drift(p, fake_steady(p, 0.0, 0.0), "sideways")


class TestDiffusionMatrix:
    def test_vacuum_diagonal(self):
        p = make_params()
        q = build_diffusion(p, SqueezedBath.vacuum(), 0.0)
        gm = p.mech_damping[0]
        kap = p.cavity_decay[0]
        np.testing.assert_allclose(
            q, np.diag([0.0, gm, kap, kap, 0.0, gm, kap, kap])
        )

    def test_cross_entries(self):
        p = make_params(cavity_decay=(TWO_PI * 14e6, TWO_PI * 7e6))
        bath = SqueezedBath.ideal(0.05)
        q = build_diffusion(p, bath, 1.0)
        kgeo = math.sqrt(p.cavity_decay[0] * p.cavity_decay[1])
        assert q[2, 6] == pytest.approx(2.0 * kgeo * bath.correlation, rel=1e-14)
        assert q[3, 7] == pytest.approx(-2.0 * kgeo * bath.correlation, rel=1e-14)

    def test_symmetric_and_position_rows_zero(self):
        p = make_params()
        q = build_diffusion(p, SqueezedBath.ideal(0.3), 836.0)
        np.testing.assert_array_equal(q, q.T)
        assert np.all(q[0] == 0.0) and np.all(q[4] == 0.0)
        assert np.all(q[:, 0] == 0.0) and np.all(q[:, 4] == 0.0)

    def test_positive_semidefinite_for_ideal_bath(self):
        p = make_params()
        q = build_diffusion(p, SqueezedBath.ideal(0.05), 0.0)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-12 * np.linalg.norm(q)

    def test_psd_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.uniform(0.0, 3.0)
            m = rng.uniform(0.0, 1.0) * math.sqrt(n * (n + 1.0))
            k2 = rng.uniform(1e6, 1e9)
            p = make_params(cavity_decay=(TWO_PI * 14e6, k2))
            q = build_diffusion(p, SqueezedBath(n, m), rng.uniform(0.0, 1e4))
            assert np.linalg.eigvalsh(q).min() >= -1e-12 * np.linalg.norm(q)

    def test_negative_occupation_rejected(self):
        with pytest.raises(UnphysicalBathError):
            build_diffusion(make_params(), SqueezedBath.vacuum(), -1.0)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
    def test_non_finite_occupation_rejected(self, nbar):
        with pytest.raises(UnphysicalBathError, match="finite"):
            build_diffusion(make_params(), SqueezedBath.vacuum(), nbar)


class TestReducedModel:
    def test_no_hopping_single_cavity_form(self):
        p = make_params(xi=0.0)
        red = build_reduced(p, 2e7, 0.9 * WM)
        kap = p.cavity_decay[0]
        gm = p.mech_damping[0]
        expected = np.array([
            [0.0, WM, 0.0, 0.0],
            [-WM, -gm, 2e7, 0.0],
            [0.0, 0.0, -kap, 0.9 * WM],
            [2e7, 0.0, -0.9 * WM, -kap],
        ])
        np.testing.assert_allclose(red.drift, expected)
        assert red.eff_detuning == pytest.approx(0.9 * WM)

    def test_zero_coupling_block_diagonal(self):
        red = build_reduced(make_params(xi=0.5 * WM), 0.0, 0.9 * WM)
        assert np.all(red.drift[:2, 2:] == 0.0)
        assert np.all(red.drift[2:, :2] == 0.0)

    def test_spectrum_is_half_of_full_drift(self):
        # the full drift splits into two collective sectors at modified
        # detunings delta +/- xi; their spectra together give the full one
        p = make_params(xi=0.6 * WM)
        coupling = 3e7
        delta = 1.1 * WM
        full = drift(p, coupling, delta)
        sector_sum = build_reduced(p, coupling, delta).drift            # delta + xi
        sector_diff = build_reduced(dataclasses.replace(p, hop_strength=0.0), coupling,
                                    delta - 0.6 * WM).drift             # delta - xi
        got = list(np.concatenate([np.linalg.eigvals(sector_sum),
                                   np.linalg.eigvals(sector_diff)]))
        want = list(np.linalg.eigvals(full))
        scale = max(abs(v) for v in want)
        # multiset match with a relative tolerance
        for g in got:
            j = min(range(len(want)), key=lambda i: abs(want[i] - g))
            assert abs(want[j] - g) <= 1e-8 * scale
            want.pop(j)
        assert not want

    @staticmethod
    def random_symmetric_stack(rng, detuning_sign, count=200):
        """Drifts of identical cavities at equal random couplings and
        detunings; delta = 0 and delta = xi are among them."""
        wm, gm, kap = rng.uniform(0.1, 10.0, 3) * WM
        coupling = rng.uniform(0.0, 3.0, count) * WM
        delta = rng.uniform(-3.0, 3.0, count) * WM
        xi = rng.uniform(-2.0, 2.0, count) * WM
        delta[0] = 0.0
        delta[1] = xi[1]
        drifts = drift_stack((wm, wm), (gm, gm), (kap, kap), np.stack([coupling] * 2, axis=1),
                             np.stack([delta] * 2, axis=1), xi, detuning_sign)
        return drifts, (wm, gm, kap), coupling, delta, xi

    @staticmethod
    def single_cavity_drifts(rates, coupling, modified):
        """The single-cavity drifts, (Q, P, X, Y), at the signed modified
        detunings ``modified``."""
        wm, gm, kap = rates
        expected = np.zeros((len(modified), 4, 4))
        expected[:, 0, 1] = wm
        expected[:, 1, 0] = -wm
        expected[:, 1, 1] = -gm
        expected[:, 2, 2] = expected[:, 3, 3] = -kap
        expected[:, 1, 2] = expected[:, 3, 0] = coupling
        expected[:, 2, 3] = modified
        expected[:, 3, 2] = -modified
        return expected

    @pytest.mark.parametrize("detuning_sign", ["positive", "negative"])
    def test_collective_drifts_are_the_explicit_model(self, detuning_sign):
        # the single-cavity drift at modified detuning delta + xi, (Q, P, X, Y)
        s = 1.0 if detuning_sign == "positive" else -1.0
        rng = np.random.default_rng(7)
        for _ in range(5):
            drifts, rates, coupling, delta, xi = self.random_symmetric_stack(rng, detuning_sign)
            expected = self.single_cavity_drifts(rates, coupling, s * (delta + xi))
            assert np.all(collective_drifts(drifts, detuning_sign) == expected)

    @pytest.mark.parametrize("detuning_sign", ["positive", "negative"])
    def test_exchange_blocks_are_both_models(self, detuning_sign):
        # the model at delta + xi (the collective drifts), then at delta - xi
        s = 1.0 if detuning_sign == "positive" else -1.0
        drifts, rates, coupling, delta, xi = self.random_symmetric_stack(
            np.random.default_rng(8), detuning_sign)
        expected = [self.single_cavity_drifts(rates, coupling, s * (delta + sign * xi))
                    for sign in (1.0, -1.0)]
        assert np.all(exchange_blocks(drifts, detuning_sign) == np.concatenate(expected))

    @pytest.mark.parametrize("detuning_sign, sector", [("positive", 1), ("negative", 0)])
    def test_collective_drifts_are_a_sector_of_the_rotation(self, detuning_sign, sector):
        # u -> ((u1 + u2)/sqrt2, (u1 - u2)/sqrt2) block-diagonalises the full
        # drift; the delta + xi block is the (u1 - u2) sector under the
        # positive sign and the (u1 + u2) sector under the negative one
        eye = np.eye(4)
        t = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2.0)
        drifts, *_ = self.random_symmetric_stack(np.random.default_rng(11), detuning_sign)
        rotated = t @ drifts @ t.T
        scale = np.abs(drifts).max()
        rows = slice(4 * sector, 4 * sector + 4)
        np.testing.assert_allclose(rotated[:, rows, rows],
                                   collective_drifts(drifts, detuning_sign),
                                   rtol=0.0, atol=1e-15 * scale)
        np.testing.assert_allclose(rotated[:, :4, 4:], 0.0, rtol=0.0, atol=1e-15 * scale)
        np.testing.assert_allclose(rotated[:, 4:, :4], 0.0, rtol=0.0, atol=1e-15 * scale)

    def test_asymmetric_rejected(self):
        p = make_params(cavity_decay=(TWO_PI * 14e6, TWO_PI * 7e6))
        with pytest.raises(ConfigError):
            build_reduced(p, 1e7, WM)

    @settings(max_examples=100, deadline=None)
    @given(deltas=st.lists(st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5)),
                                      st.floats(-3.0, 3.0)), min_size=1, max_size=4),
           xis=st.lists(st.one_of(st.sampled_from((0.0, -0.0, 0.5)), st.floats(0.0, 3.0)),
                        min_size=1, max_size=4),
           coupling=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_collective_cells_give_the_collective_drifts(self, deltas, xis, coupling,
                                                          detuning_sign):
        # a grid of delta (as the drift places it) by xi, row-major, with
        # zeros of both signs and delta = -xi, where the two detuning cells
        # are not each other's negatives in their signs of zero
        p = make_params()
        d, x = np.meshgrid(np.array(deltas) * WM, np.array(xis) * WM, indexing="ij")
        couplings = np.full(d.size, coupling * WM)
        drifts = drift_stack(p.mech_freq, p.mech_damping, p.cavity_decay,
                             couplings[:, None], d.reshape(-1, 1), x.ravel(), detuning_sign)
        cells = collective_cells(couplings, np.array(deltas)[:, None] * WM, np.array(xis) * WM,
                                 detuning_sign)
        blocks = collective_stack(p.mech_freq, p.mech_damping, p.cavity_decay, cells)
        assert blocks.tobytes() == collective_drifts(drifts, detuning_sign).tobytes()
        # the same cells from one column per block
        assert collective_cells(couplings, d.ravel(), x.ravel(), detuning_sign).tobytes() == (
            cells.tobytes())


class TestAgainstSteadyState:
    def test_drift_from_solver_output(self):
        p = make_params(xi=0.25 * WM)
        ss = solve_fixed_detuning(p, -0.7 * WM, -0.7 * WM)
        a = figure_drift(p, ss)
        assert a[2, 3] == pytest.approx(0.7 * WM)
        assert a[1, 2] == pytest.approx(ss.eff_coupling[0])
        assert np.count_nonzero(a) == 22
