"""Linearized fluctuation dynamics: the 8x8 drift and diffusion matrices,
each assembled as a stack with a batch of one beside it, the drift's
Frobenius norm from its entries, and the 4x4 exchange blocks of an
exchange-symmetric drift, the collective-mode drift among them.  This is the
one module that knows which entries the two matrices hold.

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


@functools.lru_cache(maxsize=16)
def drift_rates(mech_freq, mech_damping, cavity_decay) -> tuple[float, bool]:
    """The sum of the squares of a drift's rate entries (each mechanical
    frequency and decay rate twice, each damping once), and whether the two
    cavities' rates are equal."""
    squares = sum(2.0 * w * w + g * g + 2.0 * k * k
                  for w, g, k in zip(mech_freq, mech_damping, cavity_decay))
    return squares, all(rate[0] == rate[1] for rate in (mech_freq, mech_damping, cavity_decay))


def drift_norms(rate_squares: float, coupling, detuning, hops) -> np.ndarray:
    """The Frobenius norm of each branch's figure-convention 8x8 drift, as
    ``drift_stack`` places it, from the stability gate's columns and the sum
    of the squares of its rate entries (:func:`drift_rates`): the drift holds
    each G_j and Delta_j twice and xi four times, so ||A||_F^2 is
    sum(rates^2) + 2 (G_1^2 + G_2^2) + 2 (Delta_1^2 + Delta_2^2) + 4 xi^2.

    A column of one value holds an equal pair.  The sum is taken in another
    order than :func:`hopcav.lyapunov.hurwitz_margins` takes it, so the norm
    can differ from that one in its last bits; it overflows to inf where that
    one does."""
    squares = (rate_squares + np.vecdot(coupling, coupling) * (4.0 / coupling.shape[1])
               + np.vecdot(detuning, detuning) * (4.0 / detuning.shape[1]) + 4.0 * hops * hops)
    return np.sqrt(squares)


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


# the diffusion's 10 nonzero entries, as flat indices of the 8x8 matrix: the
# momenta, the optical quadratures, and the squeezed correlations +M, +M, -M, -M
_DIFFUSION_ENTRIES = np.ravel_multi_index(([1, 5, 2, 3, 6, 7, 2, 6, 3, 7],
                                           [1, 5, 2, 3, 6, 7, 6, 2, 7, 3]), (8, 8))
# which of the noise rows (2 nbar + 1, 2N + 1, M) each takes
_DIFFUSION_SOURCES = np.array([0, 0, 1, 1, 1, 1, 2, 2, 2, 2])


def diffusion_stack(mech_damping, cavity_decay, nbar, photon_number, correlation) -> np.ndarray:
    """Assemble P symmetrized noise-correlation matrices of the mirror and
    field inputs, shape (P, 8, 8).

    ``mech_damping`` and ``cavity_decay`` are per-cavity pairs shared by the
    stack; ``nbar``, ``photon_number`` (N) and ``correlation`` (M) hold one
    value per matrix.  Diagonal: no position diffusion, gamma_m (2 nbar + 1)
    on the momenta, kappa (2N + 1) on the optical quadratures.  The squeezed
    correlations put +/- 2 sqrt(kappa1 kappa2) M on the (x1, x2) and
    (y1, y2) cross entries, all stored with one indexed assignment.
    """
    k1, k2 = cavity_decay
    cross = 2.0 * np.sqrt(k1 * k2)
    noise = np.array([nbar, photon_number, correlation], dtype=float)
    # an occupation or bath near the largest float overflows its entries to
    # inf without a warning, as float arithmetic does: only the solve of a
    # stable row reads them
    with np.errstate(over="ignore"):
        noise[:2] = 2.0 * noise[:2] + 1.0
        entries = noise.take(_DIFFUSION_SOURCES, axis=0).T * np.array(
            [mech_damping[0], mech_damping[1], k1, k1, k2, k2, cross, cross, -cross, -cross])
    stack = np.zeros((len(entries), 8, 8))
    stack.reshape(-1, 64)[:, _DIFFUSION_ENTRIES] = entries
    return stack


def build_diffusion(params: PhysicalParams, bath: SqueezedBath, nbar: float) -> np.ndarray:
    """The diffusion matrix of one thermal occupation and squeezed bath: the
    batch of one of :func:`diffusion_stack`."""
    if not 0.0 <= nbar < np.inf:
        raise UnphysicalBathError(f"thermal occupation must be finite and nonnegative, got {nbar}")
    return diffusion_stack(params.mech_damping, params.cavity_decay, [nbar],
                           [bath.photon_number], [bath.correlation])[0]


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
