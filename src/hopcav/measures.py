"""Bipartite reductions of the covariance matrix and the Gaussian measures
computed from them: logarithmic negativity and coherent-state teleportation
fidelity.

The quadrature normalization puts the vacuum variance at 1/2, so a two-mode
state is separable iff the smallest symplectic eigenvalue of its partial
transpose is >= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConventionError, HopcavError, InvalidStateError

# numerically-invalid-state threshold, relative to chi^2
DISCRIMINANT_RTOL = 1e-10


class BipartitePair(Enum):
    """The four mode pairs cut out of the 8x8 covariance matrix."""

    F1M1 = (0, 1, 2, 3)
    F2M2 = (4, 5, 6, 7)
    M1M2 = (0, 1, 4, 5)
    F1F2 = (2, 3, 6, 7)

    @property
    def indices(self) -> tuple[int, int, int, int]:
        return self.value


@dataclass(frozen=True)
class EntanglementResult:
    theta_minus: float  # smallest symplectic eigenvalue of the partial transpose
    log_neg: float      # max(0, -ln(2 theta_minus))
    chi: float          # det W1 + det W2 - 2 det Wc


# flat indices (row 8 + column) of the four pairs' 4x4 covariances in an 8x8
# covariance, pairs in BipartitePair order
_PAIR_ENTRIES = np.array([[[8 * r + c for c in pair.indices] for r in pair.indices]
                          for pair in BipartitePair])
# flat indices (row 4 + column) of the 2x2 blocks W1, W2 and Wc of a pair
# covariance, in that order; then of W1, Wc and Wc^T, which enter Z
_BLOCK_ENTRIES = np.array([[[0, 1], [4, 5]], [[10, 11], [14, 15]], [[2, 3], [6, 7]]])
_Z_ENTRIES = np.array([[[0, 1], [4, 5]], [[2, 3], [6, 7]], [[2, 6], [3, 7]]])
# S W1 S, S Wc and Wc^T S with S = diag(1, -1), entry by entry
_Z_SIGNS = np.array([[[1.0, -1.0], [-1.0, 1.0]], [[1.0, 1.0], [-1.0, -1.0]],
                     [[1.0, -1.0], [1.0, -1.0]]])
_IDENTITY_2 = np.eye(2)
_F1F2 = list(BipartitePair).index(BipartitePair.F1F2)


def pair_stack(w: np.ndarray, pair: BipartitePair) -> np.ndarray:
    """The (P, 4, 4) covariances of one mode pair cut out of a (P, 8, 8) stack,
    order preserved."""
    idx = list(pair.indices)
    return w[:, idx][:, :, idx]


def extract_pair(w: np.ndarray, pair: BipartitePair) -> np.ndarray:
    """The 4x4 covariance of one mode pair, rows and columns in order."""
    w = np.asarray(w, dtype=float)
    if w.shape != (8, 8):
        raise HopcavError(f"expected an 8x8 covariance matrix, got {w.shape}")
    return pair_stack(w[None], pair)[0]


def _as_pair_matrix(pair_cov) -> np.ndarray:
    m = np.asarray(pair_cov, dtype=float)
    if m.shape != (4, 4):
        raise HopcavError(f"expected a 4x4 pair covariance, got {m.shape}")
    return m


def _determinants(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det W1, det W2 and det Wc along a new last axis, and det W, for pair
    covariances stacked in any leading axes."""
    blocks = m.reshape(m.shape[:-2] + (16,)).take(_BLOCK_ENTRIES, axis=-1)
    return np.linalg.det(blocks), np.linalg.det(m)


def _entanglement(det_blocks: np.ndarray, det_w: np.ndarray):
    """theta_minus, log_neg and chi of pair covariances stacked in any leading
    axes, from their determinant invariants, and the errors.

    Returns theta_minus and chi as arrays, log_neg as a flat list and the
    errors as (flat index, :class:`InvalidStateError`) pairs for the
    covariances that fail: chi^2 significantly below 4 det W, else a
    nonpositive squared symplectic eigenvalue.  Each value equals, bit for bit,
    the float arithmetic of one covariance (``math.log`` per element, since
    ``np.log`` can round differently).
    """
    chi = (det_blocks[..., 0] + det_blocks[..., 1]) - 2.0 * det_blocks[..., 2]
    chi_sq = chi * chi
    disc = chi_sq - 4.0 * det_w
    invalid = disc < -DISCRIMINANT_RTOL * np.maximum(1.0, chi_sq)
    theta_sq = 0.5 * (chi - np.sqrt(np.maximum(0.0, disc)))
    nonpositive = theta_sq <= 0.0
    # a failing covariance takes the placeholder 1 and is reported instead
    theta = np.sqrt(np.where(nonpositive, 1.0, theta_sq))
    log_neg = [max(0.0, -math.log(x)) for x in (2.0 * theta).ravel().tolist()]
    errors = []
    for i in np.ravel(invalid | nonpositive).nonzero()[0].tolist():
        if invalid.flat[i]:
            errors.append((i, InvalidStateError(
                f"chi^2 - 4 det(W_R) = {disc.flat[i]:.3e} < 0; "
                "covariance is not a valid two-mode state")))
        else:
            errors.append((i, InvalidStateError(
                f"nonpositive squared symplectic eigenvalue {theta_sq.flat[i]:.3e}")))
    return theta, log_neg, chi, errors


def log_negativity(pair_cov) -> EntanglementResult:
    """Logarithmic negativity of a two-mode covariance matrix.

    theta_minus is evaluated from the determinant invariants of the 2x2
    blocks; states with chi^2 significantly below 4 det(W_R) are rejected as
    numerically invalid.
    """
    theta, log_neg, chi, errors = _entanglement(*_determinants(_as_pair_matrix(pair_cov)))
    if errors:
        raise errors[0][1]
    return EntanglementResult(theta_minus=theta.item(), log_neg=log_neg[0], chi=chi.item())


def _fidelities(m: np.ndarray, w_in: np.ndarray):
    """Teleportation fidelities of the pair covariances of a (P, 4, 4) stack,
    and the (index, :class:`ConventionError`) pairs of the nonpositive
    determinants.

    Z = S W1 S + S Wc + Wc^T S + W2 is summed entry by entry in the order of
    the matrix expression; with S = diag(1, -1) each product is one signed
    entry, so Z equals the matrix products' result.
    """
    signed = m.reshape(len(m), 16).take(_Z_ENTRIES, axis=1) * _Z_SIGNS
    z = ((signed[:, 0] + signed[:, 1]) + signed[:, 2]) + m[:, 2:, 2:]
    arg = np.linalg.det(2.0 * w_in + z)
    nonpositive = arg <= 0.0
    errors = [
        (k, ConventionError(f"nonpositive fidelity determinant {arg[k]:.3e}; Z = {z[k].tolist()}"))
        for k in nonpositive.nonzero()[0].tolist()
    ]
    return 2.0 / np.sqrt(np.where(nonpositive, 1.0, arg)), errors


def teleportation_fidelity(pair_cov, w_in: np.ndarray | None = None) -> float:
    """Fidelity for teleporting a single-mode Gaussian state through the
    two-mode channel:  F = 2 / sqrt(det(2 W_in + Z)) with
    Z = S W1 S + S Wc + Wc^T S + W2 and S = diag(1, -1).

    ``w_in`` defaults to the 2x2 identity (coherent-state input in the
    unit-variance convention); pass 0.5 * I for the vacuum-variance-1/2
    convention.
    """
    m = _as_pair_matrix(pair_cov)
    if w_in is None:
        w_in = np.eye(2)
    w_in = np.asarray(w_in, dtype=float)
    if w_in.shape != (2, 2):
        raise HopcavError(f"w_in must be 2x2, got {w_in.shape}")
    fidelity, errors = _fidelities(m[None], w_in)
    if errors:
        raise errors[0][1]
    return fidelity.item()


class PairMeasures(NamedTuple):
    """The recorded measures of a (P, 8, 8) covariance stack as columns."""

    columns: tuple   # 10 lists of P floats, in ``MEASURES`` order
    errors: list     # per covariance: None, or the error of its first failing measure


# the measure columns: E_N of the four pairs in BipartitePair order, theta_minus
# of the four, the teleportation fidelity of F1F2 and its bound
MEASURES = (
    "en_f1m1", "en_f2m2", "en_m1m2", "en_f1f2",
    "theta_f1m1", "theta_f2m2", "theta_m1m2", "theta_f1f2",
    "fidelity", "fidelity_bound",
)


def pair_measures(w: np.ndarray) -> PairMeasures:
    """Every recorded measure of each covariance of a (P, 8, 8) stack, as
    columns in ``MEASURES`` order.

    A covariance whose measures fail gets the error that the first failing
    measure raises, in the order :func:`log_negativity` over the pairs,
    :func:`teleportation_fidelity` and :func:`fidelity_bound`; its column
    entries are then meaningless.  Every entry equals what the single-pair
    functions give.
    """
    pairs = len(BipartitePair)
    m = w.reshape(len(w), 64).take(_PAIR_ENTRIES, axis=1)
    theta, log_neg, _, pair_errors = _entanglement(*_determinants(m))
    fidelity, fidelity_errors = _fidelities(m[:, _F1F2], _IDENTITY_2)
    log_negs = [log_neg[q::pairs] for q in range(pairs)]
    errors = [None] * len(w)
    for i, error in pair_errors:
        # flat indices run pair by pair within a covariance: the first is the
        # first failing pair
        if errors[i // pairs] is None:
            errors[i // pairs] = error
    for k, error in fidelity_errors:
        if errors[k] is None:
            errors[k] = error
    bounds = [fidelity_bound(x) for x in log_negs[_F1F2]]
    return PairMeasures((*log_negs, *theta.T.tolist(), fidelity.tolist(), bounds), errors)


def fidelity_bound(log_neg: float) -> float:
    """Optimal teleportation fidelity reachable over a channel of given
    logarithmic negativity: 1 / (1 + exp(-E_N))."""
    if log_neg < 0.0:
        raise HopcavError(f"logarithmic negativity must be nonnegative, got {log_neg}")
    return 1.0 / (1.0 + math.exp(-log_neg))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for (x, y) ordered quadrature pairs."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j)


def symplectic_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n covariance matrix: the n distinct
    moduli of the eigenvalues of i Omega W, sorted ascending."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2:
        raise HopcavError(f"covariance must be square of even order, got {w.shape}")
    n = w.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ w)
    # eigenvalues come in +/- pairs; keep one representative of each
    return np.sort(np.abs(ev))[::2][:n]


def partial_transpose(pair_cov) -> np.ndarray:
    """Covariance of the partially transposed state: the second mode's
    momentum-like quadrature changes sign."""
    m = _as_pair_matrix(pair_cov)
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return p @ m @ p
