"""Semiclassical fixed points of the driven coupled cavities.

The working point is the solution of

    0 = -(kappa_j + i Delta_j) a_j + i xi a_k + E_j
    q_j = g_j |a_j|^2 / omega_mj,    p_j = 0

with the effective detuning Delta_j = Delta0_j - g_j^2 |a_j|^2 / omega_mj in
bare mode.  ``fixed_detuning_points`` evaluates the closed form at given
effective detunings for a batch of points that share the cavities, and
``solve_fixed_detuning`` is its single-point case.  ``solve_self_consistent``
finds the branches of the nonlinear bare-detuning problem: from a scalar
photon-number equation when the two cavities, detunings, couplings and drives
are identical (every branch with a_1 = a_2), otherwise by a seeded damped
iteration, which can miss branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailureError, DegenerateConfigurationError
from .params import PhysicalParams, derive_coupling, drive_amps

RESIDUAL_TOL = 1e-10      # relative to the drive amplitude
DUPLICATE_TOL = 1e-8      # branch dedup threshold on |delta a|
N_SEEDS = 8
DAMPING = 0.5


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


# a closed form whose denominator |alpha1 alpha2 + xi^2| is below this times
# kappa1 kappa2 is singular
DEGENERATE_RTOL = 1e-12


def _closed_form_amps(kappa, xi, e1, e2, delta1, delta2):
    a1 = complex(kappa[0], delta1)
    a2 = complex(kappa[1], delta2)
    denom = a1 * a2 + xi * xi
    if abs(denom) < DEGENERATE_RTOL * kappa[0] * kappa[1]:
        raise DegenerateConfigurationError(
            f"singular steady-state denominator |alpha1*alpha2 + xi^2| = {abs(denom):.3e}"
        )
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
    see :func:`fixed_detuning_points`.  Rows listed in ``errors`` hold no
    working point."""

    cavity_decay: tuple[float, float]
    mech_freq: tuple[float, float]
    coupling: tuple[float, float]   # single-photon couplings g_j
    drives: list                    # per point, the drive amplitudes (|E_1|, |E_2|)
    hop_strength: np.ndarray        # (P,) rad/s
    eff_detuning: np.ndarray        # (P, 2) rad/s, as entering the Langevin drift
    amp: np.ndarray                 # (P, 2) complex amplitudes a_j
    amp_abs: np.ndarray             # (P, 2) |a_j|
    eff_coupling: np.ndarray        # (P, 2) G_j = sqrt(2) g_j |a_j|, rad/s
    errors: list                    # per row: None, or the error of a singular closed form

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
    and ``hop_strength`` one value per point.  A point whose closed form is
    singular gets its error instead of a working point (and NaN amplitudes).

    The amplitudes are Python's complex arithmetic point by point: a NumPy
    version must spell out Python's complex product and Smith quotient in
    real arithmetic to give the same bits, and its three dozen array calls
    cost a batch of one several times the per-point closed form.
    """
    amps = []
    errors = []
    for e, xi, (delta1, delta2) in zip(drives, hop_strength, detuning):
        try:
            amp1, amp2, _, _ = _closed_form_amps(cavity_decay, xi, e[0], e[1], delta1, delta2)
            errors.append(None)
        except DegenerateConfigurationError as exc:
            amp1 = amp2 = complex(math.nan, math.nan)
            errors.append(exc)
        amps += (amp1, amp2)
    amp = np.array(amps, dtype=complex).reshape(len(errors), 2)
    # |a_j| as abs() gives it, and G_j = sqrt(2) g_j |a_j| as effective_coupling
    amp_abs = np.hypot(amp.real, amp.imag)
    root2 = math.sqrt(2.0)
    return WorkingPoints(
        cavity_decay, mech_freq, coupling, drives, np.asarray(hop_strength, dtype=float),
        np.asarray(detuning, dtype=float).reshape(len(errors), 2), amp, amp_abs,
        amp_abs * np.array([root2 * coupling[0], root2 * coupling[1]]), errors,
    )


def solve_fixed_detuning(params: PhysicalParams, delta1: float, delta2: float) -> SteadyState:
    """Closed-form working point at given effective detunings (rad/s); see
    :func:`fixed_detuning_points`."""
    points = fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)], [params.hop_strength], [(delta1, delta2)],
    )
    if points.errors[0] is not None:
        raise points.errors[0]
    return points.steady(0)


def solve_self_consistent(
    params: PhysicalParams,
    delta01: float,
    delta02: float,
    coupling: tuple[float, float] | None = None,
) -> list[SteadyState]:
    """Fixed points of the bare-detuning problem, sorted by |a_1|.

    More than one returned branch flags optical bistability.  ``coupling``
    overrides the derived single-photon couplings (useful for probing the
    linear limit).
    """
    # imported here: only this solver needs SciPy, so importing hopcav does not load it
    from scipy import optimize

    g = coupling if coupling is not None else tuple(derive_coupling(params, j) for j in (1, 2))
    e = drive_amps(params)
    kappa = params.cavity_decay
    xi = params.hop_strength

    if e[0] == 0.0 and e[1] == 0.0:
        a1 = complex(kappa[0], delta01)
        a2 = complex(kappa[1], delta02)
        return [_assemble(params.mech_freq, xi, g, e, 0j, 0j, delta01, delta02, a1, a2)]

    def detunings(u1, u2):
        return (
            delta01 - g[0] ** 2 * u1 / params.mech_freq[0],
            delta02 - g[1] ** 2 * u2 / params.mech_freq[1],
        )

    def amps_at(u1, u2):
        d1, d2 = detunings(u1, u2)
        return _closed_form_amps(kappa, xi, e[0], e[1], d1, d2)

    symmetric = (
        params.is_symmetric
        and delta01 == delta02
        and g[0] == g[1]
        and e[0] == e[1]
    )

    u_cap = (max(e) / min(params.cavity_decay)) ** 2  # |a|^2 cannot exceed resonance
    candidates: list[tuple[complex, complex]] = []

    if symmetric:
        # scalar photon-number equation h(u) = u (kappa^2 + (d0 - b u - xi)^2) - E^2,
        # scanned for exact zeros and sign changes in grid order
        kap = kappa[0]
        b = g[0] ** 2 / params.mech_freq[0]

        def h(u):
            d = delta01 - b * u - xi
            return u * (kap * kap + d * d) - e[0] ** 2

        grid = np.linspace(0.0, 1.05 * u_cap, 4001)
        vals = h(grid)
        roots = [
            grid[i] if vals[i] == 0.0
            else optimize.brentq(h, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-15)
            for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
        ]
        if vals[-1] == 0.0:
            roots.append(grid[-1])
        candidates = [amps_at(u, u)[:2] for u in roots]
    else:
        # damped fixed-point iteration from seeds spanning [0, u_cap], followed
        # by a multivariate root refinement
        def fun(v):
            c1 = complex(v[0], v[1])
            c2 = complex(v[2], v[3])
            d1, d2 = detunings(abs(c1) ** 2, abs(c2) ** 2)
            al1 = complex(kappa[0], d1)
            al2 = complex(kappa[1], d2)
            r1 = -al1 * c1 + 1j * xi * c2 + e[0]
            r2 = -al2 * c2 + 1j * xi * c1 + e[1]
            return [r1.real, r1.imag, r2.real, r2.imag]

        for u0 in np.linspace(0.0, u_cap, N_SEEDS):
            try:
                amp1, amp2, _, _ = amps_at(u0, u0)
                for _ in range(400):
                    n1, n2, _, _ = amps_at(abs(amp1) ** 2, abs(amp2) ** 2)
                    step = max(abs(n1 - amp1), abs(n2 - amp2))
                    amp1 = (1.0 - DAMPING) * amp1 + DAMPING * n1
                    amp2 = (1.0 - DAMPING) * amp2 + DAMPING * n2
                    if step < 1e-13 * max(1.0, abs(amp1), abs(amp2)):
                        break
            except DegenerateConfigurationError:
                continue
            sol = optimize.root(fun, [amp1.real, amp1.imag, amp2.real, amp2.imag], method="hybr")
            if sol.success:
                candidates.append((complex(sol.x[0], sol.x[1]), complex(sol.x[2], sol.x[3])))
            else:
                candidates.append((amp1, amp2))

    branches: list[SteadyState] = []
    best = math.inf
    for amp1, amp2 in candidates:
        d1, d2 = detunings(abs(amp1) ** 2, abs(amp2) ** 2)
        al1 = complex(kappa[0], d1)
        al2 = complex(kappa[1], d2)
        res = _residual(xi, e[0], e[1], amp1, amp2, al1, al2)
        best = min(best, res)
        if res >= RESIDUAL_TOL:
            continue
        dup = any(
            max(abs(amp1 - s.amp[0]), abs(amp2 - s.amp[1]))
            < DUPLICATE_TOL * max(1.0, abs(amp1), abs(amp2))
            for s in branches
        )
        if not dup:
            branches.append(_assemble(params.mech_freq, xi, g, e, amp1, amp2, d1, d2, al1, al2))

    if not branches:
        raise ConvergenceFailureError(
            f"no self-consistent steady state converged (best residual {best:.3e})",
            best_residual=best,
        )
    branches.sort(key=lambda s: abs(s.amp[0]))
    return [replace(s, branch=i) for i, s in enumerate(branches)]
