import math

import numpy as np
import pytest

from hopcav.errors import ConventionError, HopcavError, InvalidStateError
from hopcav.measures import (
    BipartitePair,
    EntanglementResult,
    extract_pair,
    fidelity_bound,
    log_negativity,
    pair_measures,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
    teleportation_fidelity,
)

# frozen two-mode squeezed-vacuum negativities: 2 asinh(sqrt(N))
TMSV_CASES = [
    (1e-3, 0.06323501701842864),
    (0.05, 0.44356825438511519),
    (0.5, 1.3169578969248167),
    (3.0, 2.6339157938496334),
]


def tmsv_matrix(n, m=None):
    m = math.sqrt(n * (n + 1.0)) if m is None else m
    w = np.diag([n + 0.5] * 4)
    w[0, 2] = w[2, 0] = m
    w[1, 3] = w[3, 1] = -m
    return w


def random_physical_pair(rng):
    """Vacuum plus classical noise, then random per-mode rotations: a valid
    two-mode covariance matrix."""
    b = rng.normal(scale=0.8, size=(4, 4))
    w = 0.5 * np.eye(4) + b @ b.T
    return local_rotate(w, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))


def local_rotate(w, th1, th2):
    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    s = np.block([
        [rot(th1), np.zeros((2, 2))],
        [np.zeros((2, 2)), rot(th2)],
    ])
    return s @ w @ s.T


class TestExtractPair:
    def test_identity_any_pair(self):
        for pair in BipartitePair:
            np.testing.assert_array_equal(extract_pair(np.eye(8), pair), np.eye(4))

    def test_index_sets(self):
        assert BipartitePair.F1M1.indices == (0, 1, 2, 3)
        assert BipartitePair.F2M2.indices == (4, 5, 6, 7)
        assert BipartitePair.M1M2.indices == (0, 1, 4, 5)
        assert BipartitePair.F1F2.indices == (2, 3, 6, 7)

    def test_marker_bookkeeping(self):
        w = np.eye(8)
        w[2, 6] = w[6, 2] = 0.123
        pc = extract_pair(w, BipartitePair.F1F2)
        assert pc[0, 2] == 0.123
        assert pc[2, 0] == 0.123

    def test_block_selection(self):
        w = np.diag([1.0, 1.0, 2.5, 2.5, 1.0, 1.0, 2.5, 2.5])
        pc = extract_pair(w, BipartitePair.F1F2)
        np.testing.assert_array_equal(pc, np.diag([2.5, 2.5, 2.5, 2.5]))

    def test_wrong_shape(self):
        with pytest.raises(HopcavError):
            extract_pair(np.eye(4), BipartitePair.F1M1)


class TestLogNegativity:
    def test_two_mode_vacuum(self):
        res = log_negativity(0.5 * np.eye(4))
        assert res.theta_minus == pytest.approx(0.5, rel=1e-14)
        assert res.log_neg == 0.0

    @pytest.mark.parametrize("n,expected", TMSV_CASES)
    def test_two_mode_squeezed_vacuum(self, n, expected):
        res = log_negativity(tmsv_matrix(n))
        assert res.log_neg == pytest.approx(expected, abs=1e-9)

    def test_classical_correlations_do_not_entangle(self):
        res = log_negativity(tmsv_matrix(0.05, m=0.025))
        assert res.log_neg == 0.0
        assert res.theta_minus >= 0.5

    def test_symplectic_oracle_equivalence(self):
        # theta_minus from the determinant invariants must equal the smallest
        # modulus eigenvalue of i Omega applied to the partial transpose
        rng = np.random.default_rng(12)
        omega = symplectic_form(2)
        for _ in range(100):
            w = random_physical_pair(rng)
            res = log_negativity(w)
            wt = partial_transpose(w)
            oracle = np.abs(np.linalg.eigvals(1j * omega @ wt)).min()
            assert res.theta_minus == pytest.approx(oracle, rel=1e-10)

    def test_local_rotation_invariance(self):
        rng = np.random.default_rng(13)
        for n, expected in TMSV_CASES:
            w = tmsv_matrix(n)
            rotated = local_rotate(w, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            assert log_negativity(rotated).log_neg == pytest.approx(expected, abs=1e-9)

    def test_chi_uses_signed_cross_determinant(self):
        n = 0.05
        res = log_negativity(tmsv_matrix(n))
        m2 = n * (n + 1.0)
        assert res.chi == pytest.approx(2 * (n + 0.5) ** 2 + 2 * m2, rel=1e-12)

    def test_returns_result_type(self):
        assert isinstance(log_negativity(0.5 * np.eye(4)), EntanglementResult)


class TestTeleportationFidelity:
    def test_perfect_epr_limit(self):
        # W_c = -v S makes the noise block vanish identically
        v = 3.7
        w = np.diag([v, v, v, v])
        w[0, 2] = w[2, 0] = -v
        w[1, 3] = w[3, 1] = v
        assert teleportation_fidelity(w) == pytest.approx(1.0, rel=1e-14)

    def test_epr_limit_along_squeezing_family(self):
        # cosh - sinh cancellation limits the accuracy at large r, so keep to
        # moderate squeezing where the closed form is exact to rounding
        for r in (0.5, 1.0, 2.0):
            c, s = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
            w = np.diag([c, c, c, c])
            w[0, 2] = w[2, 0] = -s
            w[1, 3] = w[3, 1] = s
            expected = 2.0 / (2.0 + math.exp(-2.0 * r))
            assert teleportation_fidelity(w) == pytest.approx(expected, rel=1e-9)

    def test_decoupled_vacuum(self):
        assert teleportation_fidelity(0.5 * np.eye(4)) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_monotone_in_anticorrelation(self):
        # cross block diag(-c, c) reduces the noise term; fidelity rises
        prev = 0.0
        for cval in np.linspace(0.0, 0.45, 10):
            w = 0.5 * np.eye(4)
            w[0, 2] = w[2, 0] = -cval
            w[1, 3] = w[3, 1] = cval
            f = teleportation_fidelity(w)
            assert f == pytest.approx(2.0 / (3.0 - 2.0 * cval), rel=1e-12)
            assert f > prev
            prev = f

    def test_correlated_orientation_decreases(self):
        w = 0.5 * np.eye(4)
        w[0, 2] = w[2, 0] = 0.3
        w[1, 3] = w[3, 1] = -0.3
        assert teleportation_fidelity(w) == pytest.approx(2.0 / 3.6, rel=1e-12)

    def test_nonpositive_determinant_reports_noise_block(self):
        w = 0.5 * np.eye(4)
        w[0, 2] = w[2, 0] = -3.0  # wildly unphysical input
        with pytest.raises(ConventionError, match="Z ="):
            teleportation_fidelity(w)


class TestFidelityBound:
    def test_zero_negativity(self):
        assert fidelity_bound(0.0) == 0.5

    def test_ln2(self):
        assert fidelity_bound(math.log(2.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_asymptote(self):
        assert fidelity_bound(30.0) < 1.0
        assert fidelity_bound(30.0) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_bound(50.0) <= 1.0

    def test_monotone(self):
        vals = [fidelity_bound(x) for x in np.linspace(0.0, 5.0, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.5 <= v < 1.0 for v in vals)

    def test_negative_rejected(self):
        with pytest.raises(HopcavError):
            fidelity_bound(-0.1)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(0.5 * np.eye(8)), 0.5)

    def test_thermal(self):
        w = np.diag([3.5, 3.5, 0.5, 0.5])
        np.testing.assert_allclose(symplectic_eigenvalues(w), [0.5, 3.5])

    def test_tmsv_pair(self):
        # the partial transpose of an ideal two-mode squeezed state has
        # symplectic spectrum (e^{-2r}/2, e^{+2r}/2)
        n = 0.5
        r = math.asinh(math.sqrt(n))
        wt = partial_transpose(tmsv_matrix(n))
        np.testing.assert_allclose(
            symplectic_eigenvalues(wt),
            [0.5 * math.exp(-2 * r), 0.5 * math.exp(2 * r)],
            rtol=1e-12,
        )


def per_row(measures):
    """The columns of a ``pair_measures`` result as one tuple per covariance,
    or its error."""
    rows = list(zip(*measures.columns))
    return [row if error is None else error for row, error in zip(rows, measures.errors)]


def scalar_measures(w):
    """The recorded measures of one 8x8 covariance in plain float arithmetic:
    the determinant invariants per pair, theta^2 = (chi - sqrt(disc)) / 2, and
    Z = S W1 S + S Wc + Wc^T S + W2 as matrix products."""
    dets = []
    for pair in BipartitePair:
        m = extract_pair(w, pair)
        blocks = np.stack((m[:2, :2], m[2:, 2:], m[:2, 2:]))
        dets.append((np.linalg.det(blocks).tolist(), float(np.linalg.det(m))))
    out_en, out_theta = [], []
    for (d1, d2, dc), dw in dets:
        chi = d1 + d2 - 2.0 * dc
        disc = max(chi * chi - 4.0 * dw, 0.0)
        theta = math.sqrt(0.5 * (chi - math.sqrt(disc)))
        out_theta.append(theta)
        out_en.append(max(0.0, -math.log(2.0 * theta)))
    m = extract_pair(w, BipartitePair.F1F2)
    s = np.diag([1.0, -1.0])
    w1, wc, w2 = m[:2, :2], m[:2, 2:], m[2:, 2:]
    z = s @ w1 @ s + s @ wc + wc.T @ s + w2
    fidelity = 2.0 / math.sqrt(float(np.linalg.det(2.0 * np.eye(2) + z)))
    return (*out_en, *out_theta, fidelity, 1.0 / (1.0 + math.exp(-out_en[3])))


class TestStackedMeasures:
    """The stacked measures give, covariance by covariance, exactly what the
    single-pair functions give, and the error the first of them raises."""

    def covariances(self, rng, count):
        out = []
        for _ in range(count):
            b = rng.normal(scale=0.8, size=(8, 8))
            out.append(0.5 * np.eye(8) + b @ b.T)
        return np.array(out)

    def single(self, w):
        try:
            ent = [log_negativity(extract_pair(w, pair)) for pair in BipartitePair]
            fid = teleportation_fidelity(extract_pair(w, BipartitePair.F1F2))
            return (*(e.log_neg for e in ent), *(e.theta_minus for e in ent),
                    fid, fidelity_bound(ent[3].log_neg))
        except HopcavError as exc:
            return exc

    def test_equal_to_single_pair_functions(self):
        rng = np.random.default_rng(4)
        w = self.covariances(rng, 12)
        # two-mode squeezed vacuum in the F1F2 pair: entangled, E_N > 0
        w[0] = np.eye(8) * 0.5
        w[0][np.ix_([2, 3, 6, 7], [2, 3, 6, 7])] = tmsv_matrix(0.5)
        got = per_row(pair_measures(w))
        for k in range(len(w)):
            assert got[k] == self.single(w[k])
        assert got[0][3] > 0.0
        # stacks of 1, 17, 3 and 16, one after the other: no call leaves
        # state that the next one reads
        w = np.concatenate([w, self.covariances(rng, 25)])
        for start, size in zip((30, 2, 21, 9), (1, 17, 3, 16)):
            got = per_row(pair_measures(w[start:start + size]))
            for k in range(size):
                assert got[k] == self.single(w[start + k])

    def test_columns_equal_the_scalar_arithmetic(self):
        # every entry, bit for bit: the columns' numpy arithmetic against one
        # covariance's float arithmetic, on stationary covariances of the
        # fig6b grid (mirror pairs correlated to chi ~ 1e10) and random ones
        from hopcav.engine import run_point
        from hopcav.presets import fig_preset

        config = fig_preset("fig6b")
        stationary = [run_point(config, {"delta": d, "xi": x}).covariances[0]
                      for d in (0.6, 1.0, 1.4) for x in (0.0, 0.5)]
        w = np.concatenate([np.array(stationary), self.covariances(np.random.default_rng(6), 31)])
        got = per_row(pair_measures(w))
        for k in range(len(w)):
            want = scalar_measures(w[k])
            assert got[k] == want
            assert [math.copysign(1.0, x) for x in got[k]] == [math.copysign(1.0, x) for x in want]

    def test_errors_in_single_function_order(self):
        w = self.covariances(np.random.default_rng(5), 4)
        # F2M2 violates the uncertainty bound: log_negativity raises there
        w[1][np.ix_([4, 5, 6, 7], [4, 5, 6, 7])] = tmsv_matrix(0.5, m=5.0)
        # only the fidelity fails: a negative-definite F1F2 noise block
        w[2] = -np.eye(8)
        # the first failing pair comes first: M1M2 and F1F2 both fail here
        w[3][np.ix_([0, 1, 4, 5], [0, 1, 4, 5])] = tmsv_matrix(0.5, m=5.0)
        w[3][np.ix_([2, 3, 6, 7], [2, 3, 6, 7])] = tmsv_matrix(0.5, m=4.0)
        got = per_row(pair_measures(w))
        for k in (1, 2, 3):
            want = self.single(w[k])
            assert type(got[k]) is type(want) and str(got[k]) == str(want)
        assert isinstance(got[1], InvalidStateError)
        assert isinstance(got[2], ConventionError)
        assert isinstance(got[3], InvalidStateError)
        assert not isinstance(got[0], HopcavError)
