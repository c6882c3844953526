"""Linearized fluctuation dynamics: the 8x8 drift and diffusion matrices and
the 4x4 collective-mode reduction.

Quadrature ordering (fixed everywhere):

    u = (q1, p1, x1, y1, q2, p2, x2, y2)

with (q, p) the mechanical and (x, y) the optical quadratures of each cavity.

Two opposite detuning sign conventions circulate for the optical rows of the
drift; the ``detuning_sign`` flag selects between them.  With ``"positive"``
(default) a positive detuning sits on the cooling / entangling side, which is
the convention in which the standard curves peak at detuning ~ +omega_m.  The
two conventions map onto each other by negating the detunings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnphysicalBathError
from .params import PhysicalParams
from .squeezed import SqueezedBath, ideal_correlation
from .steady_state import SteadyState

QUADRATURE_LABELS = ("q1", "p1", "x1", "y1", "q2", "p2", "x2", "y2")

DETUNING_SIGNS = ("positive", "negative")


def _sign(detuning_sign: str) -> float:
    if detuning_sign not in DETUNING_SIGNS:
        raise ConfigError(f"detuning_sign must be one of {DETUNING_SIGNS}, got {detuning_sign!r}")
    return 1.0 if detuning_sign == "positive" else -1.0


# the drift's 12 point-dependent entries, as flat indices of the 8x8 matrix:
# the radiation-pressure couplings, the optical detunings and the hopping
_DRIFT_ENTRIES = np.ravel_multi_index(np.array([
    (1, 2), (3, 0), (2, 3), (3, 2),     # cavity 1: g1, g1, s d1, -s d1
    (5, 6), (7, 4), (6, 7), (7, 6),     # cavity 2: g2, g2, s d2, -s d2
    (2, 7), (3, 6), (6, 3), (7, 2),     # hopping: -xi, xi, -xi, xi
]).T, (8, 8))
# which of the columns (g1, g2, d1, d2, xi) each entry takes
_DRIFT_SOURCES = np.array([0, 0, 2, 2, 1, 1, 3, 3, 4, 4, 4, 4])


@functools.lru_cache(maxsize=16)
def _drift_template(mech_freq, mech_damping, cavity_decay):
    """The drift's entries that do not depend on the point (read-only)."""
    a = np.zeros((8, 8))
    for i, o in enumerate((0, 4)):
        a[o + 0, o + 1] = mech_freq[i]
        a[o + 1, o + 0] = -mech_freq[i]
        a[o + 1, o + 1] = -mech_damping[i]
        a[o + 2, o + 2] = -cavity_decay[i]
        a[o + 3, o + 3] = -cavity_decay[i]
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4)
def _drift_signs(s: float) -> np.ndarray:
    return np.array([1.0, 1.0, s, -s, 1.0, 1.0, s, -s, -1.0, 1.0, -1.0, 1.0])


def _fill(template: np.ndarray, entries: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Copies of ``template``, one per row of ``values``, with that row stored
    at the flat indices ``entries``."""
    count, n = len(values), len(template)
    stack = template[None].repeat(count, axis=0)
    stack.reshape(count, n * n)[:, entries] = values
    return stack


def drift_stack(mech_freq, mech_damping, cavity_decay, coupling, detuning,
                hop_strength, detuning_sign: str = "positive") -> np.ndarray:
    """Assemble P drift matrices, shape (P, 8, 8).

    ``mech_freq``, ``mech_damping`` and ``cavity_decay`` are per-cavity pairs
    shared by the stack; ``coupling`` and ``detuning`` hold one pair per
    matrix and ``hop_strength`` one value per matrix (sequences or arrays).

    The sparsity pattern has 22 structural entries: two mechanical 2x2 blocks,
    two optical 2x2 blocks, the radiation-pressure couplings, and the four
    hopping entries connecting opposite optical quadratures.  The 10 that the
    rates fix come from one cached template; the other 12 are stored with one
    indexed assignment.
    """
    signs = _drift_signs(_sign(detuning_sign))
    columns = np.empty((len(hop_strength), 5))
    columns[:, :2] = coupling
    columns[:, 2:4] = detuning
    columns[:, 4] = hop_strength
    template = _drift_template(tuple(mech_freq), tuple(mech_damping), tuple(cavity_decay))
    return _fill(template, _DRIFT_ENTRIES, columns.take(_DRIFT_SOURCES, axis=1) * signs)


def build_drift(params: PhysicalParams, steady: SteadyState,
                detuning_sign: str = "positive") -> np.ndarray:
    """Drift matrix at a working point, placing the steady state's effective
    detunings and couplings into the selected sign convention."""
    return drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                       [steady.eff_coupling], [steady.eff_detuning],
                       [params.hop_strength], detuning_sign)[0]


def figure_drift(params: PhysicalParams, steady: SteadyState,
                 detuning_sign: str = "positive") -> np.ndarray:
    """Drift matrix for a sweep point quoted in the figure convention.

    Sweep detunings are quoted positive on the cooling side, while the
    steady-state solver runs with the opposite-signed Langevin detunings (the
    convention in which the intracavity amplitude decreases monotonically with
    detuning and hopping).  This helper negates the stored detunings before
    placing them, so that the default flag reproduces the standard curves.
    """
    return drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                       [steady.eff_coupling],
                       [(-steady.eff_detuning[0], -steady.eff_detuning[1])],
                       [params.hop_strength], detuning_sign)[0]


def build_diffusion(params: PhysicalParams, bath: SqueezedBath, nbar: float) -> np.ndarray:
    """Symmetrized noise-correlation matrix of the mirror and field inputs.

    Diagonal: no position diffusion, gamma_m (2 nbar + 1) on the momenta,
    kappa (2N + 1) on the optical quadratures.  The squeezed correlations put
    +/- 2 sqrt(kappa1 kappa2) M on the (x1, x2) and (y1, y2) cross entries.
    """
    if nbar < 0.0:
        raise UnphysicalBathError(f"thermal occupation must be nonnegative, got {nbar}")
    n = bath.photon_number
    m = bath.correlation
    if m > ideal_correlation(n) * (1.0 + 1e-12) + 1e-300:
        raise UnphysicalBathError("bath correlation exceeds the quantum bound")
    k1, k2 = params.cavity_decay
    kgeo = np.sqrt(k1 * k2)
    q = np.zeros((8, 8))
    q[1, 1] = params.mech_damping[0] * (2.0 * nbar + 1.0)
    q[5, 5] = params.mech_damping[1] * (2.0 * nbar + 1.0)
    q[2, 2] = q[3, 3] = k1 * (2.0 * n + 1.0)
    q[6, 6] = q[7, 7] = k2 * (2.0 * n + 1.0)
    q[2, 6] = q[6, 2] = 2.0 * kgeo * m
    q[3, 7] = q[7, 3] = -2.0 * kgeo * m
    return q


@dataclass(frozen=True)
class ReducedModel:
    """Collective single-cavity model with effective detuning delta + xi."""

    drift: np.ndarray       # 4x4, ordering (Q, P, X, Y)
    diffusion: np.ndarray   # 4x4
    eff_detuning: float     # rad/s


# the collective drift's point-dependent entries: g, g, s dp, -s dp
_REDUCED_ENTRIES = np.ravel_multi_index(np.array([(1, 2), (3, 0), (2, 3), (3, 2)]).T, (4, 4))


@functools.lru_cache(maxsize=16)
def _reduced_template(omega_m: float, gamma_m: float, kappa: float) -> np.ndarray:
    """The collective drift's entries that do not depend on the point (read-only)."""
    a = np.zeros((4, 4))
    a[0, 1] = omega_m
    a[1, 0] = -omega_m
    a[1, 1] = -gamma_m
    a[2, 2] = a[3, 3] = -kappa
    a.flags.writeable = False
    return a


def reduced_drift_stack(omega_m: float, gamma_m: float, kappa: float, coupling,
                        eff_detuning, detuning_sign: str = "positive") -> np.ndarray:
    """Collective-mode drifts, shape (P, 4, 4) in the ordering (Q, P, X, Y),
    for P couplings and P modified detunings delta + xi."""
    s = _sign(detuning_sign)
    values = np.empty((len(eff_detuning), 4))
    values[:, 0] = values[:, 1] = coupling
    np.multiply.outer(eff_detuning, (s, -s), out=values[:, 2:])
    return _fill(_reduced_template(omega_m, gamma_m, kappa), _REDUCED_ENTRIES, values)


def build_reduced(params: PhysicalParams, coupling: float, delta: float,
                  bath: SqueezedBath | None = None, nbar: float = 0.0,
                  detuning_sign: str = "positive") -> ReducedModel:
    """Collective-mode model of two identical cavities.

    The collective quadratures obey single-cavity dynamics with the modified
    detuning delta' = delta + hop_strength; its spectrum is a 4-eigenvalue
    subset of the full drift's.  Asymmetric parameters are rejected.
    """
    if not params.is_symmetric:
        raise ConfigError("the reduced collective model requires identical cavities")
    gamma_m = params.mech_damping[0]
    kappa = params.cavity_decay[0]
    dp = delta + params.hop_strength
    drift = reduced_drift_stack(params.mech_freq[0], gamma_m, kappa, [coupling], [dp],
                                detuning_sign)[0]
    if bath is None:
        bath = SqueezedBath.vacuum()
    n = bath.photon_number
    m = bath.correlation
    diffusion = np.diag([
        0.0,
        2.0 * gamma_m * (2.0 * nbar + 1.0),
        2.0 * kappa * (2.0 * n + 1.0 + 2.0 * m),
        2.0 * kappa * (2.0 * n + 1.0 - 2.0 * m),
    ])
    return ReducedModel(drift=drift, diffusion=diffusion, eff_detuning=dp)
