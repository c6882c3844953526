"""Small dense kernels: Hurwitz test and the continuous Lyapunov equation
A W + W A^T = -Q, solved directly through the Kronecker-sum linear system.

The kernels work on stacks of matrices, shape (P, n, n), with one LAPACK call
per stack (or per group of Kronecker systems): a stacked call returns, matrix
by matrix, exactly what the call on that one matrix returns.  ``is_hurwitz``
and ``solve_lyapunov`` are their single-matrix cases.  An eigenvalue verdict
takes its eigenvalues from :func:`spectral_abscissae` and its bound from
:func:`hurwitz_margins`: :func:`hurwitz_gate` on the matrices themselves.
The gate of sweeps and stability maps
(:func:`hopcav.stability.gate_branches`) decides a drift that has 4x4
exchange blocks from the signs of their Routh-Hurwitz scalars, and takes
:func:`hurwitz_gate` on the 8x8 drift where a scalar is too close to 0 for
its sign to match it, and on every other drift; a stability map adds the
verdict of :func:`hurwitz_gate` on each distinct collective block, one
stacked call per map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HopcavError, StabilityError

MAX_ORDER = 16
# stability margin relative to the matrix scale
ABSCISSA_RTOL = 1e-12
RESIDUAL_GATE = 1e-9
# grid points per batch of the stacked kernels' callers: bounds the memory of
# a batch's arrays and working points
CHUNK_POINTS = 256
# Kronecker systems per solve call: 16 systems of order 64 take 0.5 MB
LYAPUNOV_GROUP = 16


@dataclass(frozen=True)
class LyapunovSolution:
    """Stationary second-moment matrix and its relative residual
    ||A W + W A^T + Q||_F / ||Q||_F."""

    w: np.ndarray
    residual_norm: float


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, summed in the order
    ``np.linalg.norm`` sums a single matrix."""
    flat = m.reshape(m.shape[0], m.shape[1] * m.shape[2])
    return np.sqrt(np.vecdot(flat, flat))


def spectral_abscissae(a: np.ndarray) -> np.ndarray:
    """The spectral abscissa (largest real part of an eigenvalue) of each
    matrix of a stack, from one stacked eigenvalue call; raises
    :class:`HopcavError` when the solver fails."""
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise HopcavError(f"eigenvalue solver failed: {exc}") from exc
    return np.maximum.reduce(ev.real, axis=-1)


@np.errstate(over="ignore")
def hurwitz_margins(a: np.ndarray) -> np.ndarray:
    """The bound each matrix of a stack must keep its spectral abscissa below
    to pass the Hurwitz gate: minus ``ABSCISSA_RTOL`` times its Frobenius norm.

    A norm whose sum of squares overflows (entries past about 1e154) is inf,
    so its margin is -inf, which no spectral abscissa is below."""
    return -ABSCISSA_RTOL * _frobenius_norms(a)


def hurwitz_gate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hurwitz verdicts and spectral abscissae of a stack of square matrices.

    A matrix passes when its spectral abscissa is below its margin
    (:func:`hurwitz_margins`).
    """
    a = np.asarray(a, dtype=float)
    _check_stack(a)
    absc = spectral_abscissae(a)
    return absc < hurwitz_margins(a), absc


def lyapunov_stack(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric solutions W and relative residuals of A W + W A^T = -Q for
    stacks of Hurwitz A (not checked) and symmetric Q.

    The order-n^2 Kronecker-sum systems are filled a group at a time, in
    place, and solved with dense pivoted elimination (deterministic).
    """
    count, n = a.shape[0], a.shape[1]
    size = n * n
    group = max(1, min(LYAPUNOV_GROUP, count))
    system = np.zeros((group, size, size))
    # strided views of the group's systems (strides in entries, times the
    # entry size): left[p, i, j, k] is entry (i n + k, j n + k), which
    # kron(A, I) sets to A[i, j]; right[p, i, j, k] is entry (i n + j, i n + k),
    # which kron(I, A) sets to A[j, k]; both meet on the diagonal, diag[p, i, k]
    # at (i n + k, i n + k), which holds A[i, i] + A[k, k]
    strides = [size * size, n * size, n, size + 1], [size * size, n * size + n, size, 1]
    left, right = (np.ndarray((group, n, n, n), system.dtype, system, 0,
                              [s * system.itemsize for s in st]) for st in strides)
    diag = np.ndarray((group, n, n), system.dtype, system, 0,
                      [s * system.itemsize for s in (size * size, n * size + n, size + 1)])
    w = np.empty((count, n, n))
    for start in range(0, count, group):
        ag = a[start:start + group]
        g = len(ag)
        # every group writes the same entries, so none is left from the group before
        left[:g] = ag[..., None]
        right[:g] = ag[:, None]
        diag[:g] += ag.diagonal(axis1=1, axis2=2)[..., None]
        rhs = -q[start:start + g].reshape(g, size, 1)
        w[start:start + g] = np.linalg.solve(system[:g], rhs).reshape(g, n, n)
    w = 0.5 * (w + w.transpose(0, 2, 1))

    qnorm = _frobenius_norms(q)
    r = a @ w + w @ a.transpose(0, 2, 1) + q
    # a zero Q leaves the absolute residual
    return w, _frobenius_norms(r) / np.where(qnorm == 0.0, 1.0, qnorm)


def is_hurwitz(a: np.ndarray) -> tuple[bool, float]:
    """Whether all eigenvalues sit strictly in the left half-plane, together
    with the spectral abscissa; see :func:`hurwitz_gate`."""
    a = np.asarray(a, dtype=float)
    _check_square(a)
    ok, absc = hurwitz_gate(a[None])
    return bool(ok[0]), float(absc[0])


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> LyapunovSolution:
    """Unique symmetric solution of A W + W A^T = -Q for a Hurwitz A: the
    batch of one of :func:`lyapunov_stack`, behind the Hurwitz gate.

    Raises :class:`StabilityError` when A is not Hurwitz, so callers treat the
    point as having no steady state.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_square(a)
    if q.shape != a.shape:
        raise HopcavError(f"shape mismatch: A {a.shape} vs Q {q.shape}")
    if not np.allclose(q, q.T, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(q))):
        raise HopcavError("Q must be symmetric")
    ok, absc = is_hurwitz(a)
    if not ok:
        raise StabilityError(
            f"drift is not Hurwitz (spectral abscissa {absc:.6e}); no steady state"
        )
    w, residual = lyapunov_stack(a[None], q[None])
    return LyapunovSolution(w=w[0], residual_norm=float(residual[0]))


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HopcavError(f"expected a square matrix, got shape {a.shape}")
    _check_stack(a[None])


def _check_stack(a: np.ndarray) -> None:
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise HopcavError(f"expected a stack of square matrices, got shape {a.shape}")
    if a.shape[1] > MAX_ORDER:
        raise HopcavError(
            f"kernel is sized for order <= {MAX_ORDER}, got {a.shape[1]}"
        )
