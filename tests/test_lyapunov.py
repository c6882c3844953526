import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopcav import lyapunov
from hopcav.dynamics import build_diffusion, drift_stack, figure_drift
from hopcav.errors import HopcavError, StabilityError
from hopcav.lyapunov import (
    ABSCISSA_RTOL,
    LYAPUNOV_GROUP,
    LyapunovSolution,
    hurwitz_gate,
    hurwitz_margins,
    is_hurwitz,
    lyapunov_stack,
    solve_lyapunov,
    spectral_abscissae,
)
from hopcav.measures import symplectic_eigenvalues
from hopcav.params import Detuning, PhysicalParams
from hopcav.squeezed import SqueezedBath
from hopcav.steady_state import solve_fixed_detuning

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7
# stacks called one after the other (one system, a full group and one more, a
# short group, a full group), each from its offset into a stack of 37
STACK_SIZES = (1, 17, 3, 16)
STACK_STARTS = (30, 2, 21, 9)


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


def random_hurwitz(rng, n=8):
    a = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(a).real.max()
    return a - (shift + rng.uniform(0.5, 2.0)) * np.eye(n)


def random_psd(rng, n=8):
    b = rng.normal(size=(n, n))
    return b @ b.T


class TestIsHurwitz:
    def test_negative_identity(self):
        ok, absc = is_hurwitz(-np.eye(4))
        assert ok
        assert absc == pytest.approx(-1.0)

    def test_pure_rotation_is_not(self):
        ok, absc = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not ok
        assert absc == pytest.approx(0.0, abs=1e-12)

    def test_operating_point_is_stable(self):
        # 50 mW, detuning one mechanical frequency, no hopping
        p = make_params()
        ss = solve_fixed_detuning(p, -WM, -WM)
        ok, absc = is_hurwitz(figure_drift(p, ss))
        assert ok
        assert absc < 0.0

    def test_order_guard(self):
        with pytest.raises(HopcavError):
            is_hurwitz(-np.eye(17))


class TestSolveLyapunov:
    def test_scalar_case(self):
        sol = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert sol.w[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert sol.residual_norm < 1e-14

    def test_decoupled_closed_form(self):
        # with no hopping, no coupling and no cross-correlation, each 2x2
        # block relaxes to (occupation + 1/2) times the identity
        rng = np.random.default_rng(2)
        for _ in range(20):
            nbar = rng.uniform(0.0, 1e4)
            n_ph = rng.uniform(0.0, 3.0)
            mech_freq = rng.uniform(1e6, 1e8)
            p = PhysicalParams(
                cavity_length=1e-3,
                mirror_mass=5e-12,
                mech_freq=mech_freq,
                mech_damping=mech_freq / rng.uniform(1e3, 1e5),
                cavity_decay=rng.uniform(1e6, 1e9),
                laser_wavelength=810e-9,
                drive_power=0.0,
                bath_temperature=0.4,
                hop_strength=0.0,
                detuning=Detuning("effective", (0.0, 0.0)),
            )
            delta = rng.uniform(-2.0, 2.0) * p.mech_freq[0]
            ss = solve_fixed_detuning(p, delta, delta)
            a = figure_drift(p, ss)
            q = build_diffusion(p, SqueezedBath(n_ph, 0.0), nbar)
            sol = solve_lyapunov(a, q)
            expected = np.diag([nbar + 0.5, nbar + 0.5, n_ph + 0.5, n_ph + 0.5] * 2)
            np.testing.assert_allclose(sol.w, expected, rtol=1e-10, atol=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_hurwitz(rng)
            q = random_psd(rng)
            sol = solve_lyapunov(a, q)
            assert sol.residual_norm < 1e-10
            np.testing.assert_allclose(sol.w, sol.w.T, atol=1e-12 * np.linalg.norm(sol.w))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        a = random_hurwitz(rng)
        q = random_psd(rng)
        w0 = solve_lyapunov(a, q).w
        perm = rng.permutation(8)
        pmat = np.eye(8)[perm]
        w1 = solve_lyapunov(pmat @ a @ pmat.T, pmat @ q @ pmat.T).w
        np.testing.assert_allclose(pmat.T @ w1 @ pmat, w0,
                                   rtol=1e-10, atol=1e-10 * np.linalg.norm(w0))

    def test_linearity_in_noise(self):
        rng = np.random.default_rng(8)
        a = random_hurwitz(rng)
        q = random_psd(rng)
        w1 = solve_lyapunov(a, q).w
        w3 = solve_lyapunov(a, 3.0 * q).w
        np.testing.assert_allclose(w3, 3.0 * w1, rtol=1e-12)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(HopcavError):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_returns_solution_type(self):
        sol = solve_lyapunov(-np.eye(2), np.eye(2))
        assert isinstance(sol, LyapunovSolution)


class TestPhysicality:
    def test_uncertainty_bound_at_operating_points(self):
        # stable working points must produce covariances above the vacuum
        # uncertainty floor of 1/2
        p = make_params()
        bath = SqueezedBath.ideal(0.05)
        for delta in (0.5 * WM, WM, 1.5 * WM):
            ss = solve_fixed_detuning(p, -delta, -delta)
            a = figure_drift(p, ss)
            ok, _ = is_hurwitz(a)
            assert ok
            sol = solve_lyapunov(a, build_diffusion(p, bath, 832.96))
            assert symplectic_eigenvalues(sol.w).min() >= 0.5 - 1e-8


class TestStackedKernels:
    """A stacked call gives, matrix by matrix, exactly the single-matrix result."""

    def drifts(self, rng, count):
        p = make_params(xi=0.5 * WM)
        out = []
        for k in range(count):
            ss = solve_fixed_detuning(p, -rng.uniform(0.0, 2.0) * WM, -rng.uniform(0.0, 2.0) * WM)
            out.append(figure_drift(p, ss) if k % 3 else random_hurwitz(rng))
        return np.array(out)

    def test_gate_equals_single_matrix_gate(self):
        rng = np.random.default_rng(11)
        a = np.concatenate([self.drifts(rng, 20), rng.normal(size=(10, 8, 8))])
        ok, absc = hurwitz_gate(a)
        single = [is_hurwitz(m) for m in a]
        assert np.array_equal(ok, [s[0] for s in single])
        assert np.array_equal(absc, [s[1] for s in single])
        assert ok.any() and not ok.all()

    def test_stacked_solve_equals_single_solves(self):
        rng = np.random.default_rng(12)
        count = 2 * LYAPUNOV_GROUP + 5  # groups of unequal size
        a = self.drifts(rng, count)
        q = np.array([random_psd(rng) for _ in range(count)])
        q[3] = 0.0
        w, residual = lyapunov_stack(a, q)
        for k in range(count):
            w_one, residual_one = lyapunov_stack(a[k:k + 1], q[k:k + 1])
            assert np.array_equal(w[k], w_one[0])
            assert residual[k] == residual_one[0]
        # stacks of other sizes, one after the other: no call leaves state
        # that the next one reads
        for start, size in zip(STACK_STARTS, STACK_SIZES):
            w, residual = lyapunov_stack(a[start:start + size], q[start:start + size])
            for k in range(start, start + size):
                w_one, residual_one = lyapunov_stack(a[k:k + 1], q[k:k + 1])
                assert np.array_equal(w[k - start], w_one[0])
                assert residual[k - start] == residual_one[0]

    def test_kronecker_fill_of_every_group(self, monkeypatch):
        # 37 systems: two full groups and a short one, each filled into the
        # same buffer, which must hold no entry of the group before
        rng = np.random.default_rng(13)
        count = 37
        assert count % LYAPUNOV_GROUP
        a = self.drifts(rng, count)
        q = np.array([random_psd(rng) for _ in range(count)])
        systems = []
        solve = np.linalg.solve

        def captured(m, b):
            systems.extend(m.copy())
            return solve(m, b)

        monkeypatch.setattr(np.linalg, "solve", captured)
        lyapunov_stack(a, q)
        assert len(systems) == count
        eye = np.eye(8)
        for k in range(count):
            assert np.array_equal(systems[k], np.kron(a[k], eye) + np.kron(eye, a[k]))
        # and stacks of other sizes, one after the other, from other offsets
        for start, size in zip(STACK_STARTS, STACK_SIZES):
            systems.clear()
            lyapunov_stack(a[start:start + size], q[start:start + size])
            assert len(systems) == size
            for k in range(size):
                m = a[start + k]
                assert np.array_equal(systems[k], np.kron(m, eye) + np.kron(eye, m))

    def test_single_matrix_types(self):
        ok, absc = is_hurwitz(-np.eye(3))
        assert type(ok) is bool and type(absc) is float
        sol = solve_lyapunov(-np.eye(3), np.eye(3))
        assert isinstance(sol, LyapunovSolution)
        assert sol.w.shape == (3, 3)
        assert type(sol.residual_norm) is float

    def test_stack_shape_guard(self):
        with pytest.raises(HopcavError):
            hurwitz_gate(-np.eye(3))

    def test_gate_is_abscissae_against_margins(self):
        rng = np.random.default_rng(14)
        a = np.concatenate([self.drifts(rng, 6), rng.normal(size=(6, 8, 8))])
        ok, absc = hurwitz_gate(a)
        assert np.array_equal(absc, spectral_abscissae(a))
        assert np.array_equal(ok, absc < hurwitz_margins(a))
        norms = np.array([np.linalg.norm(m) for m in a])
        assert np.allclose(hurwitz_margins(a), -ABSCISSA_RTOL * norms, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_gives_an_infinite_margin(self):
        # squares past the largest float: the norm is inf, with no warning,
        # so no abscissa is below the margin
        a = np.stack([-np.eye(4), -np.eye(4)])
        a[1, 0, 0] = -1e200
        margins = hurwitz_margins(a)
        assert margins[0] == -ABSCISSA_RTOL * 2.0 and margins[1] == -math.inf
        assert hurwitz_gate(a)[0].tolist() == [True, False]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_failure_is_a_hopcav_error(self, bad):
        a = np.stack([-np.eye(4), -np.eye(4)])
        a[1, 0, 0] = bad
        for gate in (spectral_abscissae, hurwitz_gate):
            with pytest.raises(HopcavError, match="^eigenvalue solver failed: "):
                gate(a)


class TestEigenvalueKernel:
    """The spectral abscissae come from the LAPACK kernel behind
    ``np.linalg.eigvals``: that function's eigenvalues, bit for bit, and its
    errors' texts."""

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 12), order=st.sampled_from((1, 2, 4, 8)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from((1e-300, 1.0, WM, 1e150)),
           kind=st.sampled_from(("general", "triangular", "drift")))
    def test_abscissae_are_the_eigvals_real_parts(self, count, order, seed, scale, kind):
        # general stacks have complex pairs; an all-triangular stack has a
        # real spectrum, which np.linalg.eigvals returns as a real array
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(count, order, order)) * scale
        if kind == "triangular":
            a = np.triu(a)
        elif kind == "drift":
            order = 8
            a = drift_stack((WM, WM), (1e-5 * WM, 1e-5 * WM), (1.4 * WM, 1.4 * WM),
                            rng.uniform(0.0, 3.0, (count, 2)) * WM,
                            rng.uniform(-3.0, 3.0, (count, 2)) * WM,
                            rng.uniform(0.0, 2.0, count) * WM)
        want = np.linalg.eigvals(a).real.max(axis=-1, initial=-np.inf)
        got = spectral_abscissae(a)
        assert got.shape == (count,) and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(0, 4, 4), (3, 4, 4), (2, 2, 4, 4), (5, 3, 3), (15, 15)]),
           seed=st.integers(0, 2**32 - 1), triangular=st.booleans())
    def test_eigenvalues_are_the_eigvals(self, shape, seed, triangular):
        # the working point's companion stacks: a stack of pairs of 4x4
        # matrices, 3x3 cubics and one 15x15 block companion matrix
        a = np.random.default_rng(seed).normal(size=shape)
        if triangular:   # a real spectrum, which np.linalg.eigvals returns as reals
            a = np.triu(a)
        want = np.linalg.eigvals(a)
        got = lyapunov.eigenvalues(a)
        assert got.dtype == complex and got.shape == want.shape
        assert got.real.tobytes() == want.real.tobytes()
        assert (got.imag == np.imag(want)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stacks_raise_the_eigvals_text(self, bad):
        a = np.stack([-np.eye(4), -np.eye(4)])
        a[1, 2, 3] = bad
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvals(a)
        with pytest.raises(np.linalg.LinAlgError) as got:
            lyapunov.eigenvalues(a)
        assert str(got.value) == str(want.value)
        for gate in (spectral_abscissae, hurwitz_gate):
            with pytest.raises(HopcavError) as got:
                gate(a)
            assert str(got.value) == f"eigenvalue solver failed: {want.value}"
            assert str(got.value) == ("eigenvalue solver failed: "
                                      "Array must not contain infs or NaNs")

    def test_nonconvergence_raises_the_eigvals_text(self, monkeypatch):
        # a kernel that fails to converge flags an invalid operation; stand
        # one in that does, in the kernel's place behind both functions
        def unconverged(a, **kwargs):
            np.subtract(np.inf, np.inf)
            return np.full(a.shape[:-1], np.nan + 0j)

        monkeypatch.setattr(np.linalg._linalg._umath_linalg, "eigvals", unconverged)
        monkeypatch.setattr(lyapunov, "_eigvals", unconverged)
        a = -np.eye(4)[None]
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigvals(a)
        with pytest.raises(np.linalg.LinAlgError) as got:
            lyapunov.eigenvalues(a)
        assert str(got.value) == str(want.value)
        with pytest.raises(HopcavError) as got:
            spectral_abscissae(a)
        assert str(got.value) == f"eigenvalue solver failed: {want.value}"
        assert str(got.value) == "eigenvalue solver failed: Eigenvalues did not converge"
