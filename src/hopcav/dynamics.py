"""Linearized fluctuation dynamics: the 8x8 drift and diffusion matrices and
the 4x4 exchange blocks of an exchange-symmetric drift, the collective-mode
drift among them.

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
from .squeezed import SqueezedBath
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
    count = len(columns)
    stack = template[None].repeat(count, axis=0)
    stack.reshape(count, 64)[:, _DRIFT_ENTRIES] = columns.take(_DRIFT_SOURCES, axis=1) * signs
    return stack


def figure_drift(params: PhysicalParams, steady: SteadyState,
                 detuning_sign: str = "positive") -> np.ndarray:
    """Drift matrix for a sweep point quoted in the figure convention.

    Sweep detunings are quoted positive on the cooling side, while the
    steady-state solver runs with the opposite-signed Langevin detunings (the
    convention in which the intracavity amplitude decreases monotonically with
    detuning and hopping).  This helper negates the stored detunings before
    placing them, so that the default flag reproduces the standard curves.
    The drift with the stored detunings placed as they are is this drift under
    the other ``detuning_sign``.
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
    if not 0.0 <= nbar < np.inf:
        raise UnphysicalBathError(f"thermal occupation must be finite and nonnegative, got {nbar}")
    n = bath.photon_number
    m = bath.correlation
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


def collective_drifts(drifts: np.ndarray, detuning_sign: str) -> np.ndarray:
    """The collective-mode drifts A11 - s A12, shape (P, 4, 4) in the ordering
    (Q, P, X, Y), of a (P, 8, 8) stack of drifts of identical cavities at equal
    couplings and detunings delta; s = +1 (-1) in the positive (negative) sign
    convention.

    Under u -> ((u1 + u2)/sqrt2, (u1 - u2)/sqrt2) such a drift splits into the
    blocks A11 + A12 and A11 - A12.  The one returned carries the modified
    detuning delta + xi: the (u1 - u2) sector under the positive sign, the
    (u1 + u2) sector under the negative one.  It is the first half of
    :func:`exchange_blocks`, bit for bit.
    """
    diagonal, hopping = drifts[:, :4, :4], drifts[:, :4, 4:]
    # s = -1 adds the hopping block: (-1) h is exactly -h
    return diagonal - hopping if _sign(detuning_sign) > 0.0 else diagonal + hopping


# the collective drift's point-dependent entries, as flat indices of the 4x4
# matrix: the couplings G (twice) and the modified detunings, and which cell
# of (G, A[2, 3], A[3, 2]) each takes
_COLLECTIVE_ENTRIES = np.ravel_multi_index(np.array([(1, 2), (3, 0), (2, 3), (3, 2)]).T, (4, 4))
_COLLECTIVE_SOURCES = np.array([0, 0, 1, 2])


def collective_cells(coupling, detuning, hop_strength, detuning_sign: str) -> np.ndarray:
    """The cells that define the collective drifts (:func:`collective_drifts`)
    of drifts of identical cavities at equal couplings G and equal detunings
    delta (as :func:`drift_stack` places them): one row (G, A[2, 3], A[3, 2])
    per block, shape (P, 3).

    ``coupling`` holds one G per block; ``detuning`` and ``hop_strength``
    broadcast to one value per block in row-major order (a grid's delta
    values as a column and its xi values as a row).  The two detuning
    entries are s delta + s xi and -s delta - s xi, the drift's own
    operations on its entries s delta, -s delta and -+xi (a product with
    s = +-1 is exact, and a - b is a + (-b)), so they are the block's entries
    bit for bit, and they are two cells: the signs of zero do not make one
    the negative of the other.
    """
    s = _sign(detuning_sign)
    cells = np.empty((len(coupling), 3))
    cells[:, 0] = coupling
    cells[:, 1] = (s * detuning + s * hop_strength).ravel()
    cells[:, 2] = (-s * detuning - s * hop_strength).ravel()
    return cells


def collective_stack(mech_freq, mech_damping, cavity_decay, cells) -> np.ndarray:
    """The collective drifts of identical cavities with the rates of the first
    of the per-cavity pairs, shape (P, 4, 4), from their cells
    (:func:`collective_cells`): for a nonnegative G, the blocks of
    :func:`collective_drifts` bit for bit (under the negative sign that
    function adds the hopping block's 0.0 to a G of -0.0)."""
    count = len(cells)
    template = _drift_template(tuple(mech_freq), tuple(mech_damping), tuple(cavity_decay))
    stack = template[:4, :4][None].repeat(count, axis=0)
    stack.reshape(count, 16)[:, _COLLECTIVE_ENTRIES] = cells.take(_COLLECTIVE_SOURCES, axis=1)
    return stack


def exchange_blocks(drifts: np.ndarray, detuning_sign: str) -> np.ndarray:
    """Both exchange blocks of a (P, 8, 8) stack of drifts of identical
    cavities at equal couplings and detunings, as one (2P, 4, 4) stack: the
    collective drifts A11 - s A12 (:func:`collective_drifts`), then the
    blocks A11 + s A12, the same model at modified detuning delta - xi.  Each
    drift is orthogonally similar to the direct sum of its two blocks, so its
    spectrum is the union of theirs.
    """
    diagonal, hopping = drifts[:, :4, :4], _sign(detuning_sign) * drifts[:, :4, 4:]
    return np.concatenate([diagonal - hopping, diagonal + hopping])


@dataclass(frozen=True)
class ReducedModel:
    """Collective single-cavity model with effective detuning delta + xi."""

    drift: np.ndarray       # 4x4, ordering (Q, P, X, Y)
    eff_detuning: float     # rad/s


def build_reduced(params: PhysicalParams, coupling: float, delta: float,
                  detuning_sign: str = "positive") -> ReducedModel:
    """Collective-mode model of two identical cavities: the collective block
    (:func:`collective_drifts`) of the full drift at couplings (G, G) and
    detunings (delta, delta), a single-cavity drift at the modified detuning
    delta + hop_strength.  Asymmetric parameters are rejected.
    """
    if not params.is_symmetric:
        raise ConfigError("the reduced collective model requires identical cavities")
    drifts = drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                         [(coupling, coupling)], [(delta, delta)], [params.hop_strength],
                         detuning_sign)
    return ReducedModel(drift=collective_drifts(drifts, detuning_sign)[0],
                        eff_detuning=delta + params.hop_strength)
