"""The collective model's stability conditions, derived with sympy.

The 4x4 collective drift in the ordering (Q, P, X, Y) at modified detuning
d' has the characteristic polynomial lambda^4 + a1 lambda^3 + a2 lambda^2 +
a3 lambda + a4.  It is Hurwitz exactly when the leading principal minors
Delta_1..Delta_4 of its Hurwitz matrix are positive (Routh-Hurwitz; DeJesus &
Kaufman, PRA 35, 5288 (1987)).  For positive rates Delta_1 and Delta_2 are
sums of positive terms, a4 = omega_m s1, Delta_3 = s2 and Delta_4 = a4
Delta_3, so the conditions reduce to s1 > 0 and s2 > 0 of
``routh_hurwitz_reduced``.  Both exchange blocks of an exchange-symmetric
drift are this model, at s (delta + xi) and at s (delta - xi), which is what
lets the stability gate decide such a drift from four scalars.
"""

import numpy as np
import pytest
import sympy as sp

from hopcav.dynamics import DETUNING_SIGNS, drift_stack, exchange_blocks
from hopcav.stability import routh_hurwitz_reduced

OMEGA, GAMMA, KAPPA, G = sp.symbols("omega_m gamma_m kappa G", positive=True)
# the modified detuning takes either sign
DP = sp.Symbol("dp", real=True)
LAM = sp.Symbol("lambda")

# the collective model, as the drift's cavity block lays it out
MODEL = sp.Matrix([
    [0, OMEGA, 0, 0],
    [-OMEGA, -GAMMA, G, 0],
    [0, 0, -KAPPA, DP],
    [G, 0, -DP, -KAPPA],
])
S1 = OMEGA * (KAPPA**2 + DP**2) - G**2 * DP
S2 = (2 * GAMMA * KAPPA * ((KAPPA**2 + (OMEGA - DP)**2) * (KAPPA**2 + (OMEGA + DP)**2)
                           + GAMMA * ((GAMMA + 2 * KAPPA) * (KAPPA**2 + DP**2)
                                      + 2 * KAPPA * OMEGA**2))
      + DP * OMEGA * G**2 * (GAMMA + 2 * KAPPA)**2)


def hurwitz_minors():
    """The leading principal minors of the Hurwitz matrix of the model's
    characteristic polynomial, and its coefficients a0..a4."""
    coeffs = sp.Poly((LAM * sp.eye(4) - MODEL).det(), LAM).all_coeffs()
    a = lambda k: coeffs[k] if 0 <= k <= 4 else 0  # noqa: E731
    hurwitz = sp.Matrix(4, 4, lambda i, j: a(2 * j - i + 1))
    return [sp.expand(hurwitz[:k, :k].det()) for k in range(1, 5)], coeffs


def test_hurwitz_minors_reduce_to_s1_and_s2():
    (d1, d2, d3, d4), coeffs = hurwitz_minors()
    assert coeffs[0] == 1
    # Delta_1 = a1 and Delta_2 hold no coupling and no detuning sign: every
    # term is a product of positive rates, or an even power of d'
    for minor in (d1, d2):
        poly = sp.Poly(minor, OMEGA, GAMMA, KAPPA, G, DP)
        assert all(c > 0 for c in poly.coeffs())
        assert all(m[4] % 2 == 0 for m in poly.monoms())
    assert sp.expand(coeffs[4] - OMEGA * S1) == 0
    assert sp.expand(d3 - S2) == 0
    assert sp.expand(d4 - coeffs[4] * d3) == 0


def test_scalars_are_the_derived_conditions():
    # each scalar within rounding of its terms: s1's two terms, s2's positive
    # part (its value at G = 0) and its coupling term
    rng = np.random.default_rng(3)
    positive = S2.subs(G, 0)
    terms = (OMEGA * (KAPPA**2 + DP**2) + G**2 * sp.Abs(DP), positive + sp.Abs(S2 - positive))
    conditions = sp.lambdify((OMEGA, GAMMA, KAPPA, G, DP), (S1, S2, *terms), "math")
    for _ in range(500):
        omega_m, gamma_m, kappa, coupling = rng.uniform(0.1, 3.0, 4)
        gamma_m *= 10.0 ** rng.uniform(-5, 0)
        dp = rng.uniform(-3.0, 3.0)
        got = routh_hurwitz_reduced(omega_m, gamma_m, kappa, coupling, dp)
        s1, s2, t1, t2 = conditions(omega_m, gamma_m, kappa, coupling, dp)
        assert abs(got[0] - s1) <= 1e-14 * t1
        assert abs(got[1] - s2) <= 1e-14 * t2


@pytest.mark.parametrize("detuning_sign", DETUNING_SIGNS)
def test_exchange_blocks_are_the_model_at_the_modified_detunings(detuning_sign):
    # one drift per row: identical cavities at equal couplings and detunings
    rng = np.random.default_rng(11)
    count = 50
    omega_m, gamma_m, kappa = 1.3, 2e-4, 0.9
    coupling = rng.uniform(0.1, 2.5, count)
    delta = rng.uniform(-3.0, 3.0, count)
    xi = rng.uniform(0.0, 2.0, count)
    drifts = drift_stack((omega_m,) * 2, (gamma_m,) * 2, (kappa,) * 2,
                         np.repeat(coupling[:, None], 2, axis=1),
                         np.repeat(delta[:, None], 2, axis=1), xi, detuning_sign)
    blocks = exchange_blocks(drifts, detuning_sign)
    s = 1.0 if detuning_sign == "positive" else -1.0
    model = sp.lambdify((OMEGA, GAMMA, KAPPA, G, DP), MODEL, "numpy")
    for j in range(count):
        for half, dp in enumerate((s * (delta[j] + xi[j]), s * (delta[j] - xi[j]))):
            want = np.array(model(omega_m, gamma_m, kappa, coupling[j], dp), dtype=float)
            assert np.array_equal(blocks[half * count + j], want), (j, half)
