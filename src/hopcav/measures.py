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
    blocks = np.stack((m[..., :2, :2], m[..., 2:, 2:], m[..., :2, 2:]), axis=-3)
    return np.linalg.det(blocks), np.linalg.det(m)


def _entanglement(det_w1: float, det_w2: float, det_wc: float,
                  det_w: float) -> tuple[float, float, float]:
    """theta_minus, log_neg and chi from the determinant invariants."""
    chi = det_w1 + det_w2 - 2.0 * det_wc
    disc = chi * chi - 4.0 * det_w
    if disc < -DISCRIMINANT_RTOL * max(1.0, chi * chi):
        raise InvalidStateError(
            f"chi^2 - 4 det(W_R) = {disc:.3e} < 0; covariance is not a valid two-mode state"
        )
    disc = max(disc, 0.0)
    theta_sq = 0.5 * (chi - math.sqrt(disc))
    if theta_sq <= 0.0:
        raise InvalidStateError(
            f"nonpositive squared symplectic eigenvalue {theta_sq:.3e}"
        )
    theta = math.sqrt(theta_sq)
    return theta, max(0.0, -math.log(2.0 * theta)), chi


def log_negativity(pair_cov) -> EntanglementResult:
    """Logarithmic negativity of a two-mode covariance matrix.

    theta_minus is evaluated from the determinant invariants of the 2x2
    blocks; states with chi^2 significantly below 4 det(W_R) are rejected as
    numerically invalid.
    """
    blocks, det_w = _determinants(_as_pair_matrix(pair_cov))
    theta, log_neg, chi = _entanglement(*blocks.tolist(), float(det_w))
    return EntanglementResult(theta_minus=theta, log_neg=log_neg, chi=chi)


def _fidelities(m: np.ndarray, w_in: np.ndarray) -> list:
    """Teleportation fidelity of each pair covariance of a (P, 4, 4) stack, or
    the :class:`ConventionError` of a nonpositive determinant."""
    s = np.diag([1.0, -1.0])
    w1 = m[:, :2, :2]
    w2 = m[:, 2:, 2:]
    wc = m[:, :2, 2:]
    z = s @ w1 @ s + s @ wc + wc.transpose(0, 2, 1) @ s + w2
    out = []
    for k, arg in enumerate(np.linalg.det(2.0 * w_in + z).tolist()):
        if arg <= 0.0:
            out.append(ConventionError(
                f"nonpositive fidelity determinant {arg:.3e}; Z = {z[k].tolist()}"
            ))
        else:
            out.append(2.0 / math.sqrt(arg))
    return out


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
    (fidelity,) = _fidelities(m[None], w_in)
    if isinstance(fidelity, HopcavError):
        raise fidelity
    return fidelity


def pair_measures(w: np.ndarray) -> list:
    """Every recorded measure of each covariance of a (P, 8, 8) stack.

    For each covariance: the tuple (E_N of the four pairs in
    :class:`BipartitePair` order, theta_minus of the four, the teleportation
    fidelity of F1F2 and its bound), or the error that the first failing
    measure raises, in the order :func:`log_negativity` over the pairs,
    :func:`teleportation_fidelity` and :func:`fidelity_bound`.
    """
    m = np.stack([pair_stack(w, pair) for pair in BipartitePair], axis=1)
    blocks, det_w = _determinants(m)
    opt = list(BipartitePair).index(BipartitePair.F1F2)
    fidelities = _fidelities(m[:, opt], np.eye(2))
    out = []
    for point_blocks, point_dets, fidelity in zip(blocks.tolist(), det_w.tolist(), fidelities):
        try:
            ent = [_entanglement(*b, d) for b, d in zip(point_blocks, point_dets)]
            if isinstance(fidelity, HopcavError):
                raise fidelity
            log_negs = [e[1] for e in ent]
            out.append((*log_negs, *(e[0] for e in ent), fidelity, fidelity_bound(log_negs[opt])))
        except HopcavError as exc:
            out.append(exc)
    return out


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
