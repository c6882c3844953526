"""Semiclassical fixed points of the driven coupled cavities.

The working point is the solution of

    0 = -(kappa_j + i Delta_j) a_j + i xi a_k + E_j
    q_j = g_j |a_j|^2 / omega_mj,    p_j = 0

with the effective detuning Delta_j = Delta0_j - g_j^2 |a_j|^2 / omega_mj in
bare mode.  ``fixed_detuning_points`` evaluates the closed form at given
effective detunings for a batch of points that share the cavities, and
``solve_fixed_detuning`` is its single-point case.

``self_consistent_points`` finds every fixed point of the bare-detuning
problem for a batch of points, as columns with one row per branch, and
``solve_self_consistent`` is its single-point case.  The photon numbers
u_j = |a_j|^2 are the real, nonnegative common roots of the polynomials
u_j |alpha_1 alpha_2 + xi^2|^2 - |alpha_k E_j + i xi E_k|^2,
alpha_j = kappa_j + i Delta_j.  Identical photon-number equations (equal
decay rates, bare detunings, shifts per photon and drives) take the roots of
a cubic (the branches with a_1 = a_2) and of a quartic in u_1 + u_2 (the
symmetry-broken pairs), the companion matrices of every such point of a
batch in one stacked eigenvalue call; any other input takes, point by point,
the roots u_1 of the hidden-variable resultant in u_2 (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3), eigenvalues of a 15x15
block companion matrix, each paired with every real root u_2 of the second
polynomial there.  A pair whose relative residual in either polynomial
exceeds ROOT_RTOL is no common root and is dropped.  Newton's method polishes
every candidate, and of the candidates that polish onto one fixed point the
one with the least residual is kept.

A batch's candidates form one table, by point: the real roots of the stacked
eigenvalue call and the identical-cavity points' candidates come from array
tests over its output, and the table's starting photon numbers convert to
extended precision at once.  A table of at least COLUMN_CANDIDATES candidates,
a sweep chunk's, is polished by one masked Newton iteration over extended
precision columns and tested as columns; a smaller one, such as
``run_point``'s batch of one, goes candidate by candidate, as a NumPy call
costs about a microsecond whatever its size.  The routes share the Newton
step, the candidate bound, the detuning shift and one assembly of the tested
candidates into branches; only the loops and the closed form are their own,
the columns spelling out CPython's complex arithmetic, so both give the same
bits.  The scaled problem and the companion rows stay scalar per point, in
any batch: their Python float expressions fix the bits of the matrices whose
eigenvalues every later stage starts from (``c ** 3`` is the C library's pow,
which NumPy's power does not always equal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailureError
from .lyapunov import eigenvalues
from .params import PhysicalParams, derive_coupling, drive_amps

RESIDUAL_TOL = 1e-10      # relative to the drive amplitude
DUPLICATE_TOL = 1e-8      # branch dedup threshold on |delta a|
REAL_TOL = 1e-6           # a root whose |imaginary part| is below this times 1 + |root| is real
NEWTON_STEPS, NEWTON_RTOL = 50, 1e-12   # at most, per candidate; the last step's relative size
ROOT_RTOL = 1e-4          # a resultant candidate's photon-number residuals before the polish
SHIFT = -1.0              # the resultant's expansion point, away from the roots U_1 >= 0
# a batch with at least this many candidates polishes and tests them as columns
# (_column_branches), a smaller one candidate by candidate (_scalar_branches):
# the two took equal times at 27-29 candidates of a fig2a chunk (x86-64, one
# CPU); a bare sweep's chunks have 36-256 points, and run_point's batch of one
# stays below.  Every batch as columns took a bare fig2a run_point from 446 to
# 733 us, and _polish_columns alone a batch of one from 84-95 to 137-156 us
COLUMN_CANDIDATES = 28
# companion matrices of the cubic (with a fourth eigenvalue, -1) and quartic of identical inputs
_COMPANIONS = np.tile(np.eye(4, k=-1), (2, 1, 1))
_COMPANIONS[0, 3, 2:] = 0.0, -1.0


@dataclass(frozen=True)
class SteadyState:
    """One semiclassical working point of the coupled cavities."""

    amp: tuple[complex, complex]          # intracavity amplitudes a_j
    displacement: tuple[float, float]     # static mirror displacements q_j
    momentum: tuple[float, float]         # p_j, exactly zero
    eff_detuning: tuple[float, float]     # rad/s, as entering the Langevin drift
    eff_coupling: tuple[float, float]     # rad/s, G_j = sqrt(2) g_j |a_j|
    residual: float                       # fixed-point residual / |E|
    branch: int = 0


def effective_coupling(bare_coupling: float, amp: complex) -> float:
    """Field-enhanced coupling G = sqrt(2) * g * |a|; the global phase of the
    amplitude is rotated away."""
    return math.sqrt(2.0) * bare_coupling * abs(amp)


def _closed_form_amps(kappa, xi, e1, e2, delta1, delta2):
    # |alpha1 alpha2 + xi^2| >= kappa1 kappa2 > 0: the closed form is never singular
    a1 = complex(kappa[0], delta1)
    a2 = complex(kappa[1], delta2)
    denom = a1 * a2 + xi * xi
    amp1 = (a2 * e1 + 1j * xi * e2) / denom
    amp2 = (a1 * e2 + 1j * xi * e1) / denom
    return amp1, amp2, a1, a2


def _residual(xi, e1, e2, amp1, amp2, alpha1, alpha2) -> float:
    r1 = -alpha1 * amp1 + 1j * xi * amp2 + e1
    r2 = -alpha2 * amp2 + 1j * xi * amp1 + e2
    scale = max(e1, e2, 1e-300)
    return max(abs(r1), abs(r2)) / scale


def _assemble(mech_freq, xi, g, e, amp1, amp2, delta1, delta2, alpha1, alpha2, branch=0):
    return SteadyState(
        amp=(amp1, amp2),
        displacement=(g[0] * abs(amp1) ** 2 / mech_freq[0], g[1] * abs(amp2) ** 2 / mech_freq[1]),
        momentum=(0.0, 0.0),
        eff_detuning=(delta1, delta2),
        eff_coupling=(effective_coupling(g[0], amp1), effective_coupling(g[1], amp2)),
        residual=_residual(xi, e[0], e[1], amp1, amp2, alpha1, alpha2),
        branch=branch,
    )


class WorkingPoints(NamedTuple):
    """Working points of a batch as columns, one row per branch; see
    :func:`fixed_detuning_points` and :func:`self_consistent_points`."""

    cavity_decay: tuple[float, float]
    mech_freq: tuple[float, float]
    coupling: tuple[float, float]   # single-photon couplings g_j
    drives: list                    # per branch, the drive amplitudes (|E_1|, |E_2|)
    hop_strength: np.ndarray        # (B,) rad/s
    eff_detuning: np.ndarray        # (B, 2) rad/s, as entering the Langevin drift
    amp: np.ndarray                 # (B, 2) complex amplitudes a_j
    amp_abs: np.ndarray             # (B, 2) |a_j|
    eff_coupling: np.ndarray        # (B, 2) G_j = sqrt(2) g_j |a_j|, rad/s
    branch: np.ndarray              # (B,) its index among the fixed points of its point
    owner: np.ndarray               # (B,) its point, a row of the batch's inputs
    errors: dict                    # point -> the error it raised in place of branches

    def steady(self, i: int) -> SteadyState:
        """The :class:`SteadyState` of row ``i``."""
        amp1, amp2 = self.amp[i].tolist()
        delta1, delta2 = self.eff_detuning[i].tolist()
        kappa = self.cavity_decay
        return _assemble(self.mech_freq, self.hop_strength[i].item(), self.coupling,
                         self.drives[i], amp1, amp2, delta1, delta2,
                         complex(kappa[0], delta1), complex(kappa[1], delta2),
                         self.branch[i].item())


def _columns(cavity_decay, mech_freq, coupling, drives, hop_strength, detuning, amps,
             branch, owner, errors) -> WorkingPoints:
    """The columns of branches given as their inputs, detunings and amplitudes."""
    amp = np.array(amps, dtype=complex).reshape(len(drives), 2)
    # |a_j| as abs() gives it, and G_j = sqrt(2) g_j |a_j| as effective_coupling
    amp_abs = np.hypot(amp.real, amp.imag)
    root2 = math.sqrt(2.0)
    return WorkingPoints(
        cavity_decay, mech_freq, coupling, drives, np.asarray(hop_strength, dtype=float),
        np.asarray(detuning, dtype=float).reshape(len(drives), 2), amp, amp_abs,
        amp_abs * np.array([root2 * coupling[0], root2 * coupling[1]]),
        np.asarray(branch, dtype=int), np.asarray(owner, dtype=int), errors,
    )


def fixed_detuning_points(cavity_decay, mech_freq, coupling, drives, hop_strength,
                          detuning) -> WorkingPoints:
    """Closed-form working points of a batch at given effective detunings, as
    columns with one branch per point.

    ``cavity_decay``, ``mech_freq`` and the single-photon couplings
    ``coupling`` are per-cavity pairs shared by the batch; ``drives`` (the
    drive amplitudes |E_j|) and ``detuning`` (rad/s) hold one pair per point
    and ``hop_strength`` one value per point.

    The amplitudes are Python's complex arithmetic point by point: a NumPy
    version must spell out Python's complex product and Smith quotient in
    real arithmetic to give the same bits, and its three dozen array calls
    cost a batch of one several times the per-point closed form.
    """
    amps = []
    for e, xi, (delta1, delta2) in zip(drives, hop_strength, detuning):
        amps += _closed_form_amps(cavity_decay, xi, e[0], e[1], delta1, delta2)[:2]
    count = len(drives)
    return _columns(cavity_decay, mech_freq, coupling, drives, hop_strength, detuning, amps,
                    np.zeros(count, int), np.arange(count), {})


def solve_fixed_detuning(params: PhysicalParams, delta1: float, delta2: float) -> SteadyState:
    """Closed-form working point at given effective detunings (rad/s); see
    :func:`fixed_detuning_points`."""
    return fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)], [params.hop_strength], [(delta1, delta2)],
    ).steady(0)


def _in_bound(u, cap):
    """Whether scaled photon numbers lie in [0, cap] to REAL_TOL: a bool, or a mask."""
    return (-REAL_TOL <= u) & (u <= cap + REAL_TOL)


def _real(roots, cap):
    """Which of the complex ``roots`` are real and in [0, cap], to REAL_TOL; ``cap``
    broadcasts against them.  |root| is hypot, as Python's abs of a complex gives it."""
    re, im = roots.real, roots.imag
    return (np.abs(im) <= REAL_TOL * (1.0 + np.hypot(re, im))) & _in_bound(re, cap)


def _companion_rows(c: float, b: float, x: float) -> tuple:
    """The first rows of the companion matrices in _COMPANIONS of the a_1 = a_2 cubic
    and of the symmetry-broken quartic in s = U_1 + U_2, the cubic's three entries
    then the quartic's four.  Each entry is a Python float expression (``c ** 3`` is
    the C library's pow), so that every point's matrices hold the same bits in any
    batch."""
    m, q, bb = c - x, c + x, b * b
    return (2.0 * m / b, -(1.0 + m * m) / bb, 1.0 / bb,
            (6.0 * c + 4.0 * x) / b, -(13.0 * c * c + 16.0 * c * x + 4.0 * x * x + 1.0) / bb,
            (12.0 * c ** 3 + 20.0 * c * c * x + 8.0 * c * x * x + 4.0 * c - b) / (b * bb),
            -2.0 * (2.0 * c * c * q * q + 2.0 * c * c - b * q) / (bb * bb))


@np.errstate(over="ignore", invalid="ignore")   # at huge drives b * b is inf, as in Python
def _symmetric_candidates(roots, c, b, x, cap) -> tuple:
    """(row, U_1, U_2) of the candidates of rows with identical inputs, by row: (U, U)
    for each root of the a_1 = a_2 cubic, then (U_1, U_2) both ways for each root
    s = U_1 + U_2 of the symmetry-broken quartic, with U_1 U_2 = p(s).  ``roots``
    holds the eigenvalues of both companion matrices of :func:`_companion_rows` of
    each row, and ``c``, ``b``, ``x`` and ``cap`` the rows' inputs."""
    real, values = _real(roots, np.reshape(cap, (-1, 1, 1))), roots.real
    cubic, quartic = real[:, 0], real[:, 1]
    row, u = cubic.nonzero()[0], values[:, 0][cubic]
    pair, col = quartic.nonzero()
    if not len(pair):
        return row, u, u
    s = values[pair, 1, col]
    c, b, x = (np.array(column)[pair] for column in (c, b, x))
    q, bb = c + x, b * b
    # U_1 and U_2 are the roots of t^2 - s t + p(s)
    r = np.sqrt(np.maximum(s * s - 4.0 * (s * s - 2.0 * s * q / b + (q * q + 1.0) / bb), 0.0))
    split = r != 0.0
    s, r, pair = s[split], r[split], pair[split]
    low, high = 0.5 * (s - r), 0.5 * (s + r)
    # each row's cubic candidates come first: a stable sort keeps them there
    rows = np.concatenate([row, pair.repeat(2)])
    order = rows.argsort(kind="stable")
    return (rows[order], np.concatenate([u, np.stack([low, high], 1).ravel()])[order],
            np.concatenate([u, np.stack([high, low], 1).ravel()])[order])


def _candidates(problems: list) -> tuple:
    """(point, U_1, U_2) of every candidate of a batch's problems (see :func:`_scaled`),
    by point: the points with identical photon-number equations take the roots of
    their cubics and quartics from one stacked eigenvalue call, the others their
    resultants."""
    symmetric, rows, general, pairs = [], [], [], []
    for point, problem in enumerate(problems):
        if problem and problem[0]:
            row = _finite_rows(problem[2][0], problem[3][0], problem[5])
            if row:
                symmetric.append(point)
                rows.append(row)
        elif problem:
            _, k, c, b, es, x, cap, _ = problem
            try:
                found = _general_candidates(k, c, b, es, x, cap)
            except (ArithmeticError, np.linalg.LinAlgError):
                # a point whose polynomials degenerate has no candidate
                found = []
            general += [point] * len(found)
            pairs += found
    parts = []
    if symmetric:
        # c_1, b_1, x and the bound of each identical-cavity point
        c, b, x, cap = zip(*[(problem[2][0], problem[3][0], problem[5], problem[6])
                             for problem in map(problems.__getitem__, symmetric)])
        comp = np.tile(_COMPANIONS, (len(symmetric), 1, 1, 1))
        rows = np.array(rows)
        comp[:, 0, 0, :3], comp[:, 1, 0] = rows[:, :3], rows[:, 3:]
        row, u1, u2 = _symmetric_candidates(eigenvalues(comp), c, b, x, cap)
        parts.append((np.array(symmetric)[row], u1, u2))
    if general:
        pairs = np.array(pairs)
        parts.append((np.array(general), pairs[:, 0], pairs[:, 1]))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, int), np.zeros(0), np.zeros(0)
    point, u1, u2 = map(np.concatenate, zip(*parts))
    order = point.argsort(kind="stable")
    return point[order], u1[order], u2[order]


def _finite_rows(c: float, b: float, x: float) -> tuple:
    """:func:`_companion_rows`, or () where an entry is not finite (a scaled shift
    per photon b that underflows to 0 or nearly so): such a point has no
    candidate, and the stacked eigenvalue call would fail on it."""
    try:
        rows = _companion_rows(c, b, x)
    except ArithmeticError:
        return ()
    return rows if all(map(math.isfinite, rows)) else ()


@np.errstate(over="ignore", invalid="ignore")   # huge drives give inf and NaN, as in Python
def _general_candidates(k, c, b, e, x: float, cap: float) -> list[tuple]:
    """(U_1, U_2) of any input: each real root U_1 of the resultant in U_2 of both
    photon-number equations, with each real root U_2 of the second one there; none
    where neither cavity's scaled shift per photon is nonzero."""
    if not (b[0] or b[1]):
        return []
    if b[1] == 0.0 or (e[1] < e[0] and b[0] != 0.0):
        # eliminate U_2 of the more strongly driven cavity whose detuning moves:
        # at xi = 0 an undriven cavity 2 makes the resultant vanish identically
        return [(v, u) for u, v in _general_candidates(k[::-1], c[::-1], b[::-1], e[::-1], x, cap)]
    # alpha_1 in powers of t = U_1 - SHIFT, alpha_2 in powers of U_2, and
    # z = alpha_1 alpha_2 + x^2 = z0 + z1 U_2 and beta_2 = alpha_1 e_2 + i x e_1 in powers of t
    alpha1 = np.array([complex(k[0], c[0] - b[0] * SHIFT), -1j * b[0]])
    alpha2 = np.array([complex(k[1], c[1]), -1j * b[1]])
    z0, z1 = alpha1 * alpha2[0] + [x * x, 0.0], alpha1 * alpha2[1]
    beta1, beta2 = e[0] * alpha2 + [1j * x * e[1], 0.0], e[1] * alpha1 + [1j * x * e[0], 0.0]
    # D = |z|^2 (entry [i, j] of t^i U_2^j), U_1 D - N_1 and U_2 D - N_2, with N_j = |beta_j|^2
    den = np.stack([np.convolve(z0, z0.conj()), 2.0 * np.convolve(z0, z1.conj()),
                    np.convolve(z1, z1.conj())], axis=1).real
    f1 = np.pad(den, ((1, 0), (0, 0))) + SHIFT * np.pad(den, ((0, 1), (0, 0)))
    f2 = np.pad(den, ((0, 1), (1, 0)))
    f1[0] -= np.convolve(beta1, beta1.conj()).real
    f2[:3, 0] -= np.convolve(beta2, beta2.conj()).real
    # a linear cavity 1 (B_1 = 0) leaves U_2 D - N_2 free of U_1, which the polish finds
    u1 = _resultant_roots(f1, f2, cap) if b[0] else np.zeros(1)
    # U_2 D - N_2 at each U_1, a cubic in U_2 with the leading coefficient B_2^2 |alpha_1|^2 > 0
    coef = np.polynomial.polynomial.polyval(u1 - SHIFT, f2)
    comp = np.tile(np.eye(3, k=-1), (len(u1), 1, 1))
    comp[:, 0] = -(coef[2::-1] / coef[3]).T
    roots = eigenvalues(comp)
    row, col = _real(roots, cap).nonzero()
    pairs = list(zip(u1[row].tolist(), roots[row, col].real.tolist()))
    if not b[0]:   # U_1 = 0 stands in for the root that the polish finds
        return pairs
    # each real U_1 meets every real U_2 of its cubic, and a pair that is no common
    # root would cost the polish all its NEWTON_STEPS
    return [(a, u2) for a, u2 in pairs if _near_root(k, c, b, e, x, a, u2)]


def _near_root(k, c, b, e, x: float, u1: float, u2: float) -> bool:
    """Whether (U_1, U_2) solves both U_j D = N_j to ROOT_RTOL, relative to
    (1 + |U_j|) D + N_j; the 1, as in REAL_TOL's 1 + |root|, passes an undriven
    cavity, whose root U_j = 0 comes with rounding."""
    alpha1, alpha2 = complex(k[0], c[0] - b[0] * u1), complex(k[1], c[1] - b[1] * u2)
    den = abs(alpha1 * alpha2 + x * x) ** 2
    numbers = abs(alpha2 * e[0] + 1j * x * e[1]) ** 2, abs(alpha1 * e[1] + 1j * x * e[0]) ** 2
    return all(abs(u * den - n) <= ROOT_RTOL * ((1.0 + abs(u)) * den + n)
               for u, n in zip((u1, u2), numbers))


def _resultant_roots(f1, f2, cap: float):
    """The real roots U_1 in [0, cap] of the resultant in U_2 of f1 and f2 (entry [i, j] of
    t^i U_2^j, t = U_1 - SHIFT), from the block companion matrix of the Sylvester matrix."""
    sylvester = np.zeros((4, 5, 5))
    for r, (f, col) in enumerate([(f2, 0), (f2, 1), (f1, 0), (f1, 1), (f1, 2)]):
        sylvester[:, r, col:col + f.shape[1]] = f[:, ::-1]
    comp = np.eye(15, k=-5)
    comp[:5] = -np.concatenate(np.linalg.solve(sylvester[0], sylvester[1:]), axis=1)
    mu = eigenvalues(comp)
    roots = SHIFT + 1.0 / mu[abs(mu) * (cap - SHIFT) > 0.5]
    return roots[_real(roots, cap)].real


def _newton_constants(kappa, delta0, b, e, xi) -> tuple:
    """The terms of :func:`_newton_step` that no step changes: scalars, or columns."""
    (k1, k2), (c1, c2), (b1, b2), (e1, e2) = kappa, delta0, b, e
    ek1, ek2 = e1 * k2, e2 * k1   # squared as products, as x86-64's powl(x, 2) is
    return (k1, k2, c1, c2, b1, b2, e1, e2, k1 * k2, xi * xi, xi * e1, xi * e2,
            ek1 * ek1, ek2 * ek2, 2.0 * b1, 2.0 * b2, 2.0 * e1 * b2, 2.0 * e2 * b1)


def _newton_step(u1, u2, constants) -> tuple:
    """Newton's step on (u_1 D - N_1, u_2 D - N_2) at (u1, u2) by Cramer's rule: its
    numerators and the Jacobian's determinant, which each loop divides by as it may."""
    k1, k2, c1, c2, b1, b2, e1, e2, kk, xx, xe1, xe2, ek1, ek2, bb1, bb2, eb1, eb2 = constants
    d1, d2 = c1 - b1 * u1, c2 - b2 * u2
    # z = alpha_1 alpha_2 + xi^2, and beta_j = alpha_k E_j + i xi E_k = E_j kappa_k + i n_j
    zr, zi = kk - d1 * d2 + xx, k1 * d2 + d1 * k2
    n1, n2 = e1 * d2 + xe2, e2 * d1 + xe1
    den = zr * zr + zi * zi
    # d alpha_j / d u_j = -i b_j
    den_1, den_2 = bb1 * (zr * d2 - zi * k2), bb2 * (zr * d1 - zi * k1)
    f1, f2 = u1 * den - ek1 - n1 * n1, u2 * den - ek2 - n2 * n2
    j11, j12 = den + u1 * den_1, u1 * den_2 + eb1 * n1
    j21, j22 = u2 * den_1 + eb2 * n2, den + u2 * den_2
    return f1 * j22 - f2 * j12, f2 * j11 - f1 * j21, j11 * j22 - j12 * j21


def _polish(u1, u2, kappa, delta0, b, e, xi):
    """Newton's method on (u_1 D - N_1, u_2 D - N_2) from (u1, u2), in the
    arithmetic of the arguments, with alpha_j = kappa_j + i (delta0_j - b_j u_j)."""
    constants = _newton_constants(kappa, delta0, b, e, xi)
    for _ in range(NEWTON_STEPS):
        num1, num2, det = _newton_step(u1, u2, constants)
        if not det:
            break
        step1, step2 = num1 / det, num2 / det
        u1, u2 = u1 - step1, u2 - step2
        if not abs(step1) + abs(step2) > NEWTON_RTOL * (abs(u1) + abs(u2)):
            break
    return u1, u2


def _scaled(kappa, g, shift, e, xi: float, delta0) -> tuple | None:
    """The photon-number problem of one point in scaled units, or None where no
    cavity has both radiation pressure and photons, or where the shift of the
    largest photon number in the bound rounds away beside kappa_j + |delta0_j|
    in both cavities (the detunings stay bare)."""
    e1, e2 = e
    if not ((g[0] != 0.0 and (e1 != 0.0 or (xi != 0.0 and e2 != 0.0)))
            or (g[1] != 0.0 and (e2 != 0.0 or (xi != 0.0 and e1 != 0.0)))):
        return None
    # U_j = u_j / unit, with rates in units of kappa_1 and drives in units of the larger
    kap, top = kappa[0], max(e)
    try:
        unit = (top / kap) ** 2
    except OverflowError:   # Python's pow raises past float's range: no candidate is finite
        unit = math.inf
    k, es = (1.0, kappa[1] / kap), (e1 / top, e2 / top)
    # kappa_1 u_1 + kappa_2 u_2 = Re(E_1 a_1* + E_2 a_2*) bounds U_1 + U_2
    cap = (es[0] ** 2 + es[1] ** 2) / min(k) ** 2
    # a drive so weak that the shift rounds away beside kappa_j + |delta0_j|:
    # below half an ulp of it, which holds wherever it rounds away beside
    # delta0_j (its scaled shift per photon can underflow to 0, where the
    # polynomials degenerate)
    u_cap = cap * unit
    if (shift[0] * u_cap * 2.0 ** 53 <= kappa[0] + abs(delta0[0])
            and shift[1] * u_cap * 2.0 ** 53 <= kappa[1] + abs(delta0[1])):
        return None
    symmetric = (kappa[0] == kappa[1] and shift[0] == shift[1] and e1 == e2
                 and delta0[0] == delta0[1])
    return (symmetric, k, (delta0[0] / kap, delta0[1] / kap),
            (shift[0] * unit / kap, shift[1] * unit / kap), es, xi / kap, cap, unit)


def _distinct(points) -> list:
    """The distinct fixed points among (residual, a_1, a_2, Delta_1, Delta_2), by |a_1|:
    of the candidates that land on one fixed point the least residual is kept (then
    the least amplitudes), whichever other candidates exist."""
    found = []
    for point in points:
        _, amp1, amp2 = point[:3]
        scale = DUPLICATE_TOL * max(1.0, abs(amp1), abs(amp2))
        same = next((i for i, f in enumerate(found)
                     if max(abs(amp1 - f[1]), abs(amp2 - f[2])) < scale), None)
        if same is None:
            found.append(point)
        elif _order(point) < _order(found[same]):
            found[same] = point
    found.sort(key=lambda f: abs(f[1]))
    return found


def _order(point) -> tuple:   # a total order of (residual, a_1, a_2, ...)
    res, amp1, amp2 = point[:3]
    return res, amp1.real, amp1.imag, amp2.real, amp2.imag


def self_consistent_points(cavity_decay, mech_freq, coupling, drives, hop_strength,
                           detuning) -> WorkingPoints:
    """Every fixed point of the bare-detuning problem (see the module docstring)
    of each point of a batch, as columns with one row per branch.

    The arguments are those of :func:`fixed_detuning_points`, with ``detuning``
    the bare Langevin detunings.  A point's branches are adjacent and sorted by
    |a_1|, numbered in ``branch``; more than one flags optical bistability.  A
    point where no candidate converges, or whose polynomials degenerate, has
    no branch, and its :class:`ConvergenceFailureError` is in ``errors``; a
    point whose drive is too weak to shift its bare detunings takes the
    closed form at them (see :func:`_scaled`).

    The batch's candidates form one table (:func:`_candidates`), polished and
    tested as columns (:func:`_column_branches`) from COLUMN_CANDIDATES of them
    on, else one by one (:func:`_scalar_branches`).  The routes differ only in
    how they polish and test: both share :func:`_newton_step`,
    :func:`_in_bound` and :func:`_shifted`, and hand their tested candidates to
    one assembly (:func:`_branches`); only their loops and the closed form's
    complex arithmetic are their own, so a point's columns do not depend on
    its batch.
    """
    kappa, mech, g = cavity_decay, mech_freq, coupling
    shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])    # detuning per photon
    problems = [_scaled(kappa, g, shift, e, xi, delta0)
                for e, xi, delta0 in zip(drives, hop_strength, detuning)]
    owner, u1, u2 = _candidates(problems)

    # each candidate is polished in the photon numbers u_j in extended precision
    # (every product in _polish then has an extended factor), so that it lands on
    # its correctly rounded value; the starting values convert once
    ext, points = np.longdouble, owner.tolist()
    units = np.array([problems[point][-1] for point in points])
    start1 = (u1 * units).astype(ext)
    # U_2 is U_1 itself when every candidate is an a_1 = a_2 branch
    start2 = start1 if u2 is u1 else (u2 * units).astype(ext)
    branches = _column_branches if len(points) >= COLUMN_CANDIDATES else _scalar_branches
    return branches(kappa, mech, g, shift, drives, hop_strength, detuning, problems, owner,
                    start1, start2)


def _shifted(delta0, g, mech, u1, u2) -> tuple:
    """The detunings delta0_j - g_j^2 u_j / omega_mj at photon numbers u_j."""
    return delta0[0] - g[0] ** 2 * u1 / mech[0], delta0[1] - g[1] ** 2 * u2 / mech[1]


def _tested(kappa, mech, g, problem, e, xi, delta0, u1: float, u2: float):
    """The test of one polished candidate (u1, u2) of a point: None outside the
    bound, else (residual, a_1, a_2, Delta_1, Delta_2) of the closed form at the
    detunings it shifts, the second detunings those of the closed form's photon
    numbers."""
    cap, unit = problem[6:]
    if not (_in_bound(u1 / unit, cap) and _in_bound(u2 / unit, cap)):
        return None
    amp1, amp2, _, _ = _closed_form_amps(kappa, xi, e[0], e[1],
                                         *_shifted(delta0, g, mech, u1, u2))
    d1, d2 = _shifted(delta0, g, mech, abs(amp1) ** 2, abs(amp2) ** 2)
    res = _residual(xi, e[0], e[1], amp1, amp2, complex(kappa[0], d1), complex(kappa[1], d2))
    return res, amp1, amp2, d1, d2


def _bare_branch(kappa, e, xi, delta0) -> list:
    """The one branch, as _tested gives it, of a point whose detunings stay bare."""
    return [(None, *_closed_form_amps(kappa, xi, e[0], e[1], *delta0)[:2], *delta0)]


def _failure(residual: float) -> ConvergenceFailureError:
    return ConvergenceFailureError(
        f"no self-consistent steady state converged (best residual {residual:.3e})",
        best_residual=residual)


def _branches(kappa, mech, g, drives, hop_strength, detuning, problems, tested) -> WorkingPoints:
    """The branches of a batch from its tested candidates, (point, found) in
    candidate order with ``found`` as :func:`_tested` gives it: per point, the
    distinct fixed points (:func:`_distinct`) among those of its candidates in
    the bound that converge, or the failure with the least residual of the
    others."""
    best, converged = {}, {}
    for point, found in tested:
        if found is None:
            continue
        if found[0] < RESIDUAL_TOL:
            converged.setdefault(point, []).append(found)
        else:   # min keeps its first argument over a NaN residual
            best[point] = min(best.get(point, math.inf), found[0])

    amps, detuned, branch, owners, errors = [], [], [], [], {}
    for point, problem in enumerate(problems):
        if problem is None:
            found = _bare_branch(kappa, drives[point], hop_strength[point], detuning[point])
        else:
            found = converged.get(point)
            if not found:
                errors[point] = _failure(best.get(point, math.inf))
                continue
            if len(found) > 1:
                found = _distinct(found)
        for n, (_, amp1, amp2, d1, d2) in enumerate(found):
            amps += amp1, amp2
            detuned.append((d1, d2))
            branch.append(n)
            owners.append(point)
    return _columns(kappa, mech, g, [drives[i] for i in owners], [hop_strength[i] for i in owners],
                    detuned, amps, branch, owners, errors)


def _scalar_branches(kappa, mech, g, shift, drives, hop_strength, detuning, problems, owner,
                     start1, start2) -> WorkingPoints:
    """The branches of a batch from its candidate table (see
    :func:`self_consistent_points`), each candidate polished and tested on its
    own: the route of small batches, and the reference of the columns'.  The
    routes differ only there: :func:`_branches` assembles the tests of both."""
    ext, owner = np.longdouble, owner.tolist()
    precise = (ext(kappa[0]), ext(kappa[1]))
    polished = [_polish(a, b, precise, detuning[point], shift, drives[point], xi)
                for point, a, b, xi in zip(owner, start1, start2, np.array(
                    [hop_strength[point] for point in owner], dtype=ext))]
    return _branches(kappa, mech, g, drives, hop_strength, detuning, problems, [
        (point, _tested(kappa, mech, g, problems[point], drives[point], hop_strength[point],
                        detuning[point], float(u1), float(u2)))
        for point, (u1, u2) in zip(owner, polished)])


@np.errstate(all="ignore")   # a row with det == 0 or a non-finite start divides all the same
def _polish_columns(u1, u2, kappa, delta0, b, e, xi):
    """:func:`_polish` of every row of the columns ``u1``, ``u2``, ``delta0``
    (a pair of columns), ``e`` (a pair) and ``xi`` at once, each row stopping at
    the step where it would stop alone (on det == 0, on NEWTON_RTOL or after
    NEWTON_STEPS).  Rows that stop leave the arrays, so that a few slow rows do
    not carry the rest."""
    constants = _newton_constants(kappa, delta0, b, e, xi)
    out1, out2 = u1.copy(), u2.copy()
    live = np.arange(len(u1))
    for _ in range(NEWTON_STEPS):
        num1, num2, det = _newton_step(u1, u2, constants)
        step1, step2 = num1 / det, num2 / det
        moved = det != 0.0
        u1, u2 = np.where(moved, u1 - step1, u1), np.where(moved, u2 - step2, u2)
        going = moved & (abs(step1) + abs(step2) > NEWTON_RTOL * (abs(u1) + abs(u2)))
        if not going.all():
            done = ~going
            out1[live[done]], out2[live[done]] = u1[done], u2[done]
            live, u1, u2 = live[going], u1[going], u2[going]
            if not len(live):
                return out1, out2
            constants = tuple(c[going] if isinstance(c, np.ndarray) else c for c in constants)
    out1[live], out2[live] = u1, u2
    return out1, out2


def _product(a, b) -> tuple:
    """CPython's product of two complex numbers given as (real, imaginary) pairs
    of columns or floats; a float x enters as (x, 0.0), as CPython widens it."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quotient(a, b) -> tuple:
    """CPython's (Smith's) quotient a / b of complex columns, with the ratio of the
    part of b of smaller size to the other.  A zero b, where CPython raises, gives
    NaN."""
    wide = abs(b[0]) >= abs(b[1])
    ratio = np.where(wide, b[1] / b[0], b[0] / b[1])
    den = np.where(wide, b[0] + b[1] * ratio, b[0] * ratio + b[1])
    return (np.where(wide, a[0] + a[1] * ratio, a[0] * ratio + a[1]) / den,
            np.where(wide, a[1] - a[0] * ratio, a[1] * ratio - a[0]) / den)


def _sum(a, b) -> tuple:
    return a[0] + b[0], a[1] + b[1]


@np.errstate(all="ignore")   # a row that is not finite takes _tested, which raises as Python does
def _tested_columns(kappa, mech, g, e, xi, delta0, u1, u2):
    """:func:`_tested` of the rows of columns, past its bound: the closed-form
    amplitudes, second detunings and residuals as CPython's complex arithmetic
    gives them, term for term.  ``e`` and ``delta0`` are pairs of columns.
    Returns (residual, amplitudes (n, 2), detunings (n, 2)) and which rows are
    finite throughout; only those equal _tested's."""
    (k1, k2), (e1, e2) = kappa, e
    j = (0.0 * xi - 0.0, 0.0 + xi)   # 1j * xi
    d1, d2 = _shifted(delta0, g, mech, u1, u2)
    alpha1, alpha2 = (k1, d1), (k2, d2)
    z = _product(alpha1, alpha2)
    denom = (z[0] + xi * xi, z[1] + 0.0)
    amp1 = _quotient(_sum(_product(alpha2, (e1, 0.0)), _product(j, (e2, 0.0))), denom)
    amp2 = _quotient(_sum(_product(alpha1, (e2, 0.0)), _product(j, (e1, 0.0))), denom)
    # abs(amp) ** 2 is the C library's pow, which is not always amp * amp
    n1 = np.float_power(np.hypot(*amp1), 2.0)
    n2 = np.float_power(np.hypot(*amp2), 2.0)
    d1, d2 = _shifted(delta0, g, mech, n1, n2)
    r1 = _sum(_sum(_product((-k1, -d1), amp1), _product(j, amp2)), (e1, 0.0))
    r2 = _sum(_sum(_product((-k2, -d2), amp2), _product(j, amp1)), (e2, 0.0))
    h1, h2 = np.hypot(*r1), np.hypot(*r2)
    # max(e1, e2, 1e-300) and max(h1, h2) as Python's max takes them
    scale = np.where(e2 > e1, e2, e1)
    res = np.where(h2 > h1, h2, h1) / np.where(1e-300 > scale, 1e-300, scale)
    amp = np.empty((len(res), 2), complex)
    amp.real[:, 0], amp.imag[:, 0], amp.real[:, 1], amp.imag[:, 1] = *amp1, *amp2
    detuned = np.stack([d1, d2], 1)
    # finite detunings need finite photon numbers, and those finite amplitudes
    return res, amp, detuned, np.isfinite(res) & np.isfinite(detuned).all(1)


def _column_branches(kappa, mech, g, shift, drives, hop_strength, detuning, problems, owner,
                     start1, start2) -> WorkingPoints:
    """:func:`_scalar_branches` as columns: one masked Newton iteration polishes
    every candidate (:func:`_polish_columns`), and the candidates in the bound
    are tested as columns (:func:`_tested_columns`); a candidate whose bound or
    test meets a value that is not finite takes :func:`_tested`, where Python
    raises what it raises.  The routes differ only there: :func:`_branches`
    assembles the tests of both."""
    ext = np.longdouble
    e = np.asarray(drives, dtype=float)[owner].T
    delta0 = np.asarray(detuning, dtype=float)[owner].T
    hop = np.asarray(hop_strength, dtype=float)[owner]
    u1, u2 = _polish_columns(start1, start2, (ext(kappa[0]), ext(kappa[1])), delta0, shift,
                             e, hop.astype(ext))
    # (cap, unit) of each candidate's point; a point without a problem has none
    bound = np.array([problem[6:] if problem else (0.0, 1.0) for problem in problems])[owner]
    cap, unit = bound.T
    with np.errstate(all="ignore"):   # float() of a longdouble past float's range is inf
        u1, u2 = u1.astype(float), u2.astype(float)
        t1, t2 = u1 / unit, u2 / unit
    regular = np.isfinite(t1) & np.isfinite(t2)
    rows = (regular & _in_bound(t1, cap) & _in_bound(t2, cap)).nonzero()[0]
    res, amp, detuned, finite = _tested_columns(
        kappa, mech, g, e[:, rows], hop[rows], delta0[:, rows], u1[rows], u2[rows])
    # the tests by candidate, handed on in candidate order; one outside the bound has none
    tested = dict(zip(rows[finite].tolist(), zip(
        res[finite].tolist(), *amp[finite].T.tolist(), *detuned[finite].T.tolist())))
    odd = np.concatenate([rows[~finite], (~regular).nonzero()[0]]).tolist()
    tested.update((k, _tested(kappa, mech, g, problems[point], drives[point], hop_strength[point],
                              detuning[point], u1[k].item(), u2[k].item()))
                  for k, point in zip(odd, owner[odd].tolist()))
    return _branches(kappa, mech, g, drives, hop_strength, detuning, problems,
                     [(point, tested.get(k)) for k, point in enumerate(owner.tolist())])


def solve_self_consistent(params: PhysicalParams, delta01: float,
                          delta02: float) -> list[SteadyState]:
    """Every fixed point of the bare-detuning problem, by |a_1|: the batch of one of
    :func:`self_consistent_points` at the derived single-photon couplings; that
    takes any others (g = 0 for the linear limit) as an input.

    More than one returned branch flags optical bistability.
    """
    g = tuple(derive_coupling(params, j) for j in (1, 2))
    points = self_consistent_points(params.cavity_decay, params.mech_freq, g,
                                    [drive_amps(params)], [params.hop_strength],
                                    [(delta01, delta02)])
    if points.errors:
        raise points.errors[0]
    return [points.steady(i) for i in range(len(points.owner))]
