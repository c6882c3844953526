"""Semiclassical fixed points of the driven coupled cavities.

The working point is the solution of

    0 = -(kappa_j + i Delta_j) a_j + i xi a_k + E_j
    q_j = g_j |a_j|^2 / omega_mj,    p_j = 0

with the effective detuning Delta_j = Delta0_j - g_j^2 |a_j|^2 / omega_mj in
bare mode.  ``fixed_detuning_points`` evaluates the closed form at given
effective detunings for a batch of points that share the cavities, and
``solve_fixed_detuning`` is its single-point case.

``solve_self_consistent`` finds every fixed point of the bare-detuning
problem: the photon numbers u_j = |a_j|^2 are the real, nonnegative common
roots of the polynomials u_j |alpha_1 alpha_2 + xi^2|^2 - |alpha_k E_j + i xi E_k|^2,
alpha_j = kappa_j + i Delta_j.  Identical cavities, detunings, couplings and
drives take the roots of a cubic (the branches with a_1 = a_2) and of a
quartic in u_1 + u_2 (the symmetry-broken pairs); any other input takes the
roots u_1 of the hidden-variable resultant in u_2 (Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 3), eigenvalues of a 15x15 block
companion matrix, each paired with every real root u_2 of the second
polynomial there.  A pair whose relative residual in either polynomial
exceeds ROOT_RTOL is no common root and is dropped.  Newton's method polishes
every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailureError
from .params import PhysicalParams, derive_coupling, drive_amps

RESIDUAL_TOL = 1e-10      # relative to the drive amplitude
DUPLICATE_TOL = 1e-8      # branch dedup threshold on |delta a|
REAL_TOL = 1e-6           # a root whose |imaginary part| is below this times 1 + |root| is real
NEWTON_STEPS, NEWTON_RTOL = 50, 1e-12   # at most, per candidate; the last step's relative size
ROOT_RTOL = 1e-4          # a resultant candidate's photon-number residuals before the polish
SHIFT = -1.0              # the resultant's expansion point, away from the roots U_1 >= 0
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
    """Closed-form working points of a batch as columns, one row per point;
    see :func:`fixed_detuning_points`."""

    cavity_decay: tuple[float, float]
    mech_freq: tuple[float, float]
    coupling: tuple[float, float]   # single-photon couplings g_j
    drives: list                    # per point, the drive amplitudes (|E_1|, |E_2|)
    hop_strength: np.ndarray        # (P,) rad/s
    eff_detuning: np.ndarray        # (P, 2) rad/s, as entering the Langevin drift
    amp: np.ndarray                 # (P, 2) complex amplitudes a_j
    amp_abs: np.ndarray             # (P, 2) |a_j|
    eff_coupling: np.ndarray        # (P, 2) G_j = sqrt(2) g_j |a_j|, rad/s

    def steady(self, i: int) -> SteadyState:
        """The :class:`SteadyState` of row ``i``."""
        amp1, amp2 = self.amp[i].tolist()
        delta1, delta2 = self.eff_detuning[i].tolist()
        kappa = self.cavity_decay
        return _assemble(self.mech_freq, self.hop_strength[i].item(), self.coupling,
                         self.drives[i], amp1, amp2, delta1, delta2,
                         complex(kappa[0], delta1), complex(kappa[1], delta2))


def fixed_detuning_points(cavity_decay, mech_freq, coupling, drives, hop_strength,
                          detuning) -> WorkingPoints:
    """Closed-form working points of a batch at given effective detunings, as
    columns.

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
    amp = np.array(amps, dtype=complex).reshape(len(drives), 2)
    # |a_j| as abs() gives it, and G_j = sqrt(2) g_j |a_j| as effective_coupling
    amp_abs = np.hypot(amp.real, amp.imag)
    root2 = math.sqrt(2.0)
    return WorkingPoints(
        cavity_decay, mech_freq, coupling, drives, np.asarray(hop_strength, dtype=float),
        np.asarray(detuning, dtype=float).reshape(len(drives), 2), amp, amp_abs,
        amp_abs * np.array([root2 * coupling[0], root2 * coupling[1]]),
    )


def solve_fixed_detuning(params: PhysicalParams, delta1: float, delta2: float) -> SteadyState:
    """Closed-form working point at given effective detunings (rad/s); see
    :func:`fixed_detuning_points`."""
    return fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)], [params.hop_strength], [(delta1, delta2)],
    ).steady(0)


def _real(roots, cap: float) -> list[float]:   # the real roots in [0, cap], to REAL_TOL
    return [r.real for r in roots
            if abs(r.imag) <= REAL_TOL * (1.0 + abs(r)) and -REAL_TOL <= r.real <= cap + REAL_TOL]


def _symmetric_candidates(c: float, b: float, x: float, cap: float) -> list[tuple]:
    """(U, U) for each root of the a_1 = a_2 cubic, and (U_1, U_2) both ways for each
    root s = U_1 + U_2 of the symmetry-broken quartic, with U_1 U_2 = p(s)."""
    m, q, bb = c - x, c + x, b * b
    comp = _COMPANIONS.copy()
    comp[0, 0, :3] = 2.0 * m / b, -(1.0 + m * m) / bb, 1.0 / bb
    comp[1, 0] = ((6.0 * c + 4.0 * x) / b, -(13.0 * c * c + 16.0 * c * x + 4.0 * x * x + 1.0) / bb,
                  (12.0 * c ** 3 + 20.0 * c * c * x + 8.0 * c * x * x + 4.0 * c - b) / (b * bb),
                  -2.0 * (2.0 * c * c * q * q + 2.0 * c * c - b * q) / (bb * bb))
    cubic, quartic = np.linalg.eigvals(comp).tolist()
    found = [(u, u) for u in _real(cubic, cap)]
    for s in _real(quartic, cap):   # U_1 and U_2 are the roots of t^2 - s t + p(s)
        r = math.sqrt(max(s * s - 4.0 * (s * s - 2.0 * s * q / b + (q * q + 1.0) / bb), 0.0))
        found += [(0.5 * (s - r), 0.5 * (s + r)), (0.5 * (s + r), 0.5 * (s - r))] if r else []
    return found


def _general_candidates(k, c, b, e, x: float, cap: float) -> list[tuple]:
    """(U_1, U_2) of any input: each real root U_1 of the resultant in U_2 of both
    photon-number equations, with each real root U_2 of the second one there."""
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
    pairs = [(a, u2) for a, roots in zip(u1.tolist(), np.linalg.eigvals(comp).tolist())
             for u2 in _real(roots, cap)]
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
    mu = np.linalg.eigvals(comp)
    return np.array(_real((SHIFT + 1.0 / mu[abs(mu) * (cap - SHIFT) > 0.5]).tolist(), cap))


def _polish(u1, u2, kappa, delta0, b, e, xi):
    """Newton's method on (u_1 D - N_1, u_2 D - N_2) from (u1, u2), in the
    arithmetic of the arguments, with alpha_j = kappa_j + i (delta0_j - b_j u_j)."""
    for _ in range(NEWTON_STEPS):
        d1, d2 = delta0[0] - b[0] * u1, delta0[1] - b[1] * u2
        # z = alpha_1 alpha_2 + xi^2, and beta_j = alpha_k E_j + i xi E_k = E_j kappa_k + i n_j
        zr, zi = kappa[0] * kappa[1] - d1 * d2 + xi * xi, kappa[0] * d2 + d1 * kappa[1]
        n1, n2 = e[0] * d2 + xi * e[1], e[1] * d1 + xi * e[0]
        den = zr * zr + zi * zi
        # d alpha_j / d u_j = -i b_j
        den_1 = 2.0 * b[0] * (zr * d2 - zi * kappa[1])
        den_2 = 2.0 * b[1] * (zr * d1 - zi * kappa[0])
        f1 = u1 * den - (e[0] * kappa[1]) ** 2 - n1 * n1
        f2 = u2 * den - (e[1] * kappa[0]) ** 2 - n2 * n2
        j11, j12 = den + u1 * den_1, u1 * den_2 + 2.0 * e[0] * b[1] * n1
        j21, j22 = u2 * den_1 + 2.0 * e[1] * b[0] * n2, den + u2 * den_2
        det = j11 * j22 - j12 * j21
        if not det:
            break
        step1, step2 = (f1 * j22 - f2 * j12) / det, (f2 * j11 - f1 * j21) / det
        u1, u2 = u1 - step1, u2 - step2
        if not abs(step1) + abs(step2) > NEWTON_RTOL * (abs(u1) + abs(u2)):
            break
    return u1, u2


def solve_self_consistent(params: PhysicalParams, delta01: float, delta02: float,
                          coupling: tuple[float, float] | None = None) -> list[SteadyState]:
    """Every fixed point of the bare-detuning problem (see the module docstring), by |a_1|.

    More than one returned branch flags optical bistability.  ``coupling``
    overrides the derived single-photon couplings (useful for probing the
    linear limit).
    """
    g = coupling if coupling is not None else tuple(derive_coupling(params, j) for j in (1, 2))
    e, kappa, xi = drive_amps(params), params.cavity_decay, params.hop_strength
    mech = params.mech_freq

    if all(g[j] == 0.0 or (e[j] == 0.0 and (xi == 0.0 or e[1 - j] == 0.0)) for j in (0, 1)):
        # no cavity has both radiation pressure and photons: the detunings stay bare
        amp1, amp2, a1, a2 = _closed_form_amps(kappa, xi, e[0], e[1], delta01, delta02)
        return [_assemble(mech, xi, g, e, amp1, amp2, delta01, delta02, a1, a2)]

    def detunings(u1, u2):
        return delta01 - g[0] ** 2 * u1 / mech[0], delta02 - g[1] ** 2 * u2 / mech[1]

    # U_j = u_j / unit, with rates in units of kappa_1 and drives in units of the larger
    shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])    # detuning per photon
    kap, unit = kappa[0], (max(e) / kappa[0]) ** 2
    k, c = (1.0, kappa[1] / kap), (delta01 / kap, delta02 / kap)
    b, es = (shift[0] * unit / kap, shift[1] * unit / kap), (e[0] / max(e), e[1] / max(e))
    # kappa_1 u_1 + kappa_2 u_2 = Re(E_1 a_1* + E_2 a_2*) bounds U_1 + U_2
    cap = (es[0] ** 2 + es[1] ** 2) / min(k) ** 2
    symmetric = params.is_symmetric and delta01 == delta02 and g[0] == g[1] and e[0] == e[1]
    candidates = (_symmetric_candidates(c[0], b[0], xi / kap, cap) if symmetric
                  else _general_candidates(k, c, b, es, xi / kap, cap))

    # each candidate is polished in the photon numbers u_j in extended precision
    # (every product in _polish then has an extended factor), so that it lands on
    # its correctly rounded value
    ext = np.longdouble
    precise = ((ext(kappa[0]), ext(kappa[1])), (delta01, delta02), shift, e, ext(xi))
    found, best = [], math.inf   # _assemble's arguments of each distinct branch; least residual
    for u1, u2 in candidates:
        u1, u2 = map(float, _polish(ext(u1 * unit), ext(u2 * unit), *precise))
        if not all(-REAL_TOL <= u / unit <= cap + REAL_TOL for u in (u1, u2)):
            continue
        amp1, amp2, _, _ = _closed_form_amps(kappa, xi, e[0], e[1], *detunings(u1, u2))
        d1, d2 = detunings(abs(amp1) ** 2, abs(amp2) ** 2)
        alpha = (complex(kappa[0], d1), complex(kappa[1], d2))
        res = _residual(xi, e[0], e[1], amp1, amp2, *alpha)
        best = min(best, res)
        scale = DUPLICATE_TOL * max(1.0, abs(amp1), abs(amp2))
        if res < RESIDUAL_TOL and all(max(abs(amp1 - f[0]), abs(amp2 - f[1])) >= scale
                                      for f in found):
            found.append((amp1, amp2, d1, d2, *alpha))

    if not found:
        raise ConvergenceFailureError(f"no self-consistent steady state converged "
                                      f"(best residual {best:.3e})", best_residual=best)
    found.sort(key=lambda f: abs(f[0]))
    return [_assemble(mech, xi, g, e, *f, branch) for branch, f in enumerate(found)]
