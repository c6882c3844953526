"""Stability analysis: the two sign conditions of the collective-mode model,
the one stability gate of sweeps and maps (:func:`gate_branches`), and grid
maps comparing the conditions against eigenvalue tests.

For the collective quartic with positive rates, the two nontrivial
Routh-Hurwitz conditions are

    s1 = omega_m (kappa^2 + d'^2) - G^2 d'
    s2 = 2 gamma_m kappa { [kappa^2 + (omega_m - d')^2][kappa^2 + (omega_m + d')^2]
         + gamma_m [ (gamma_m + 2 kappa)(kappa^2 + d'^2) + 2 kappa omega_m^2 ] }
         + d' omega_m G^2 (gamma_m + 2 kappa)^2

with d' = s (delta + xi), the modified detuning times s = +1 (-1) in the
positive (negative) sign convention.  Of the characteristic polynomial
lambda^4 + a1 lambda^3 + a2 lambda^2 + a3 lambda + a4, a4 = omega_m s1 and
the third Hurwitz determinant is s2, while a1, a2, a3 and the second
determinant are sums of positive terms (``tests/test_model_symbolic.py``);
so (s1 > 0 and s2 > 0) is exactly equivalent to the collective drift being
Hurwitz (DeJesus & Kaufman, PRA 35, 5288 (1987)).  A violation of s1
signals bistability, a violation of s2 self-oscillation.  Only
exchange-symmetric drifts (equal rates, couplings and detunings) have this
model.

Such a drift is orthogonally similar to the direct sum of its collective
block and the same model at delta - xi (Vitali et al., PRL 98, 030405
(2007)).  A sweep's gate therefore decides it from the four scalars at
delta + xi and delta - xi, and it reads everything it decides from the
working point's columns: exchange symmetry from equal per-cavity rates,
couplings and detunings, and the band of each scalar from the drift's
Frobenius norm, a sum of the columns' squares.  Where a scalar is too close
to 0 for its sign to give the verdict of the eigenvalue test and its margin
(:data:`BAND_MARGINS`), and for every drift without a collective model, the
gate takes :func:`hopcav.lyapunov.hurwitz_gate` on the 8x8 drift, which it
assembles for those rows alone: the one eigenvalue route, so every verdict is
that of ``is_hurwitz``.  A stability map, which exists to compare the sign
conditions with eigenvalue tests, takes its full verdicts and scalars from
that gate and adds the eigenvalue verdict of each point's collective block.
The map is one columnar pass (:func:`map_columns`): working points factored
by axis, the gate on chunks of its points, and one dict of the map's
distinct collective blocks.  A block depends on delta + xi alone, so it
recurs across a grid's rows; the dict is keyed by the three cells that
define a block (G and its two modified-detuning entries), and the map
assembles each distinct block and takes its eigenvalues once, in one call
(:func:`_collective_verdicts`, with no Python per block).  The ``hopcav
stability`` CSV is written from these columns by the sweep CSV's cell
formatters (:func:`hopcav.engine.stability_csv`, which formats each distinct
s1 and s2 cell once); :func:`stability_map` gives a library caller the map's
rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .dynamics import collective_cells, collective_stack, drift_stack
from .errors import ConfigError, HopcavError
from .lyapunov import ABSCISSA_RTOL, CHUNK_POINTS, hurwitz_gate
from .params import (PhysicalParams, checked_detuning, checked_hop_strength, derive_coupling,
                     drive_amps)

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the map assembles its working points and drifts as batches instead
from .dynamics import build_reduced, figure_drift  # noqa: F401
from .lyapunov import is_hurwitz  # noqa: F401
from .steady_state import solve_fixed_detuning  # noqa: F401


# The band around 0 in which a scalar's sign does not decide a row, in Hurwitz
# margins m = ABSCISSA_RTOL ||A||_F of the row's 8x8 drift; such a row takes
# the eigenvalues of that drift.  The signs and the eigenvalue gate disagree
# only where a block's spectral abscissa alpha lies within the margin of 0,
# give or take the eigenvalue solver's error (the 8x8 eigenvalues and a
# block's round apart by at most 6e-4 margins on rows bisected onto a
# boundary, tests/test_stability.py TestBlockGate).  To
# first order in alpha near a root, a scalar relative to the sum of its terms'
# magnitudes is below 3.2 rho |alpha|, rho = 1/min(gamma_m, kappa) +
# gamma_m/omega_m^2 (a sensitivity, not a small number: 1e5/omega_m at the
# presets' gamma_m = 1e-5 omega_m):
# - at a real root alpha, omega_m s1 = a4 = -alpha a3 + O(alpha^2), so the
#   relative s1 is |alpha| (gamma_m/(2 omega_m^2) + kappa/(kappa^2 + d'^2));
# - at a complex pair alpha +- i Omega, s2 is the product of the six pair
#   sums of the eigenvalues (Orlando's formula): -2 alpha (a1 + 2 alpha)
#   times |p'(i Omega)|^2/(4 Omega^2) = a1 a3 + (a2 - 2 a3/a1)^2 =: E at
#   first order, and its terms sum to twice its positive part P there; a1 E/P
#   tends to 1/gamma_m as gamma_m/kappa -> 0 and is at most
#   (19/6)/min(gamma_m, kappa) over all positive rates.
# A row is decided by its signs only where every scalar clears 4 rho times
# 16 margins: the margin itself and an eigenvalue error of up to 15 more.  No
# preset row falls in the band (TestClosedFormGate in tests/test_stability.py):
# the smallest relative scalar, on fig3a, is 39 times its band.
BAND_MARGINS = 64.0

# grid points per gate call of a stability map.  The gate assembles no drift
# for a row that its signs decide, so a map's chunk holds only the gate's
# column temporaries, about 0.3 kB a point; in chunks of this size they stay
# in a core's cache, and the gate over the fig5 map took 1.5 ms against 2.7 ms
# in chunks of CHUNK_POINTS (one x86 core; 512 and 2 048 points took 2.0 and
# 1.8 ms)
MAP_CHUNK_POINTS = 4 * CHUNK_POINTS


def routh_hurwitz_reduced(omega_m: float, gamma_m: float, kappa: float,
                          coupling, delta_eff):
    """The two stability scalars (s1, s2) of the collective model at modified
    detuning ``delta_eff``; ``coupling`` and ``delta_eff`` are floats or
    arrays of one value per point."""
    cavity, pulled, damped, pushed = _routh_hurwitz_terms(omega_m, gamma_m, kappa, coupling,
                                                          delta_eff)
    return cavity - pulled, damped + pushed


def _routh_hurwitz_terms(omega_m, gamma_m, kappa, coupling, delta_eff):
    """The terms of the scalars of :func:`routh_hurwitz_reduced`: s1 is the
    first minus the second, s2 the third plus the fourth; the first and the
    third are positive."""
    g2 = coupling * coupling
    d2 = delta_eff * delta_eff
    k2 = kappa * kappa
    k2_d2 = k2 + d2
    cavity, pulled = omega_m * k2_d2, g2 * delta_eff
    # k2 + (omega_m -+ delta_eff)^2 along a last axis
    shifted = omega_m + np.multiply.outer(delta_eff, (-1.0, 1.0))
    sides = k2 + shifted * shifted
    damped = 2.0 * gamma_m * kappa * (
        sides[..., 0] * sides[..., 1]
        + gamma_m * ((gamma_m + 2.0 * kappa) * k2_d2 + 2.0 * kappa * omega_m * omega_m)
    )
    pushed = delta_eff * omega_m * g2 * (gamma_m + 2.0 * kappa) ** 2
    return cavity, pulled, damped, pushed


class StabilityReport(NamedTuple):
    """Per-point stability verdicts, one stability-map CSV row; detunings
    quoted in omega_m units using the positive-on-the-cooling-side axis
    convention."""

    delta: float
    xi: float
    s1: float
    s2: float
    hurwitz_reduced: bool
    hurwitz_full: bool
    agree: bool


class Gate(NamedTuple):
    """The stability gate of a batch of branches, one entry per branch."""

    verdicts: list       # Hurwitz verdicts (False where the gate failed)
    s1: list             # stability scalars where the drift has a collective model, else None
    s2: list
    errors: list         # None, or the error that the gate raised for the branch


def gate_branches(params: PhysicalParams, coupling, detuning, hops, detuning_sign: str) -> Gate:
    """The stability gate of a batch of branches: the Hurwitz verdicts of
    their figure-convention 8x8 drifts, the scalars (s1, s2) of the
    collective model of the branches that have one, and the errors.

    ``params`` gives the cavities' rates; the columns ``coupling`` (G_j) and
    ``detuning`` (Langevin convention, rad/s), shape (B, 2) or, for pairs of
    equal values, (B, 1), and ``hops`` (rad/s) hold one working point and
    hopping strength per branch.  A branch has a collective model exactly
    when its drift is exchange-symmetric: equal
    mechanical frequencies, dampings and decay rates, G_1 == G_2 and
    Delta_1 == Delta_2 (false on NaN).  Such a drift is decided in closed
    form, from one scalar computation over both of its exchange blocks: it is
    Hurwitz when s1 and s2 at delta + xi and at delta - xi are all positive.
    Every other drift (an asymmetric one, or a symmetric one with a scalar
    that is not finite or lies within the band of 0, :data:`BAND_MARGINS`)
    takes :func:`hurwitz_gate` on its 8x8 drift, in one stacked call, so every
    verdict is that of :func:`hurwitz_gate` (and ``is_hurwitz``) on the
    branch's drift, margin included; the gate assembles those drifts, and no
    other, in one call.  When that call raises, its branches are redone one
    by one, so that only a failing branch carries its error (with a false
    verdict, and no scalars).
    """
    hops = np.asarray(hops, dtype=float)
    count = len(hops)
    omega_m, gamma_m, kappa = params.mech_freq[0], params.mech_damping[0], params.cavity_decay[0]
    # exchange-symmetric: equal rates, couplings and detunings, where the
    # drift's two diagonal blocks are equal (its hopping blocks always are)
    rate_squares, equal_rates = _rates(params.mech_freq, params.mech_damping, params.cavity_decay)
    collective = (coupling[:, 0] == coupling[:, -1]) & (detuning[:, 0] == detuning[:, -1])
    collective &= equal_rates
    # delta + xi, then the other block's delta - xi, in the figure convention
    # (bare mode too, shift absorbed); the negative sign's collective block
    # (collective_drifts) is the model at -(delta + xi)
    shifts = np.array([hops, -hops])
    modified = shifts - detuning[:, 0] if detuning_sign == "positive" else detuning[:, 0] - shifts
    # a working point can overflow the scalars or the drift's norm, or hold
    # NaN; such a row is not decided by the scalars
    with np.errstate(over="ignore", invalid="ignore"):
        # BAND_MARGINS Hurwitz margins (ABSCISSA_RTOL ||A||_F) times rho
        rho = 1.0 / min(gamma_m, kappa) + gamma_m / (omega_m * omega_m)
        band = _drift_norms(rate_squares, coupling, detuning, hops) * (
            ABSCISSA_RTOL * BAND_MARGINS * rho)
        cavity, pulled, damped, pushed = _routh_hurwitz_terms(omega_m, gamma_m, kappa,
                                                              coupling[:, 0], modified)
        # (s1, s2) by block, each a positive term plus a signed one, against
        # the sum of its terms' magnitudes; false where a scalar or its terms
        # are not finite
        positive, signed = np.array([cavity, damped]), np.array([-pulled, pushed])
        scalars = positive + signed
        decided = abs(scalars) > (positive + abs(signed)) * band
    verdicts = (scalars > 0.0).all((0, 1))
    errors = [None] * count
    # a Python test: a one-point map pays for each NumPy call
    done = (decided.all((0, 1)) & collective).tolist()
    if not all(done):
        rest = [j for j, d in enumerate(done) if not d]
        routed = drift_stack(
            params.mech_freq, params.mech_damping, params.cavity_decay, coupling[rest],
            # the figure convention: negated Langevin detunings (see figure_drift)
            -detuning[rest], hops[rest], detuning_sign)
        try:
            verdicts[rest] = hurwitz_gate(routed)[0]
        except HopcavError:
            for i, j in enumerate(rest):
                try:
                    verdicts[j] = hurwitz_gate(routed[i:i + 1])[0][0]
                except HopcavError as exc:
                    # a failing branch keeps no scalars
                    verdicts[j], errors[j], collective[j] = False, exc, False
    marked = collective.tolist()
    s1, s2 = scalars[0, 0].tolist(), scalars[1, 0].tolist()
    if not all(marked):
        s1, s2 = ([x if c else None for x, c in zip(column, marked)] for column in (s1, s2))
    return Gate(verdicts.tolist(), s1, s2, errors)


@functools.lru_cache(maxsize=16)
def _rates(mech_freq, mech_damping, cavity_decay) -> tuple[float, bool]:
    """The sum of the squares of a drift's rate entries (each mechanical
    frequency and decay rate twice, each damping once), and whether the two
    cavities' rates are equal."""
    squares = sum(2.0 * w * w + g * g + 2.0 * k * k
                  for w, g, k in zip(mech_freq, mech_damping, cavity_decay))
    return squares, all(rate[0] == rate[1] for rate in (mech_freq, mech_damping, cavity_decay))


def _drift_norms(rate_squares: float, coupling, detuning, hops) -> np.ndarray:
    """The Frobenius norm of each branch's figure-convention 8x8 drift
    (:func:`hopcav.dynamics.drift_stack`), from the gate's columns and the
    sum of the squares of its rate entries (:func:`_rates`): the drift holds
    each G_j and Delta_j twice and xi four times, so ||A||_F^2 is
    sum(rates^2) + 2 (G_1^2 + G_2^2) + 2 (Delta_1^2 + Delta_2^2) + 4 xi^2.

    A column of one value holds an equal pair.  The sum is taken in another
    order than :func:`hopcav.lyapunov.hurwitz_margins` takes it, so the norm
    can differ from that one in its last bits; it overflows to inf where that
    one does."""
    squares = (rate_squares + np.vecdot(coupling, coupling) * (4.0 / coupling.shape[1])
               + np.vecdot(detuning, detuning) * (4.0 / detuning.shape[1]) + 4.0 * hops * hops)
    return np.sqrt(squares)


def _collective_verdicts(params: PhysicalParams, cells: np.ndarray) -> list:
    """The Hurwitz verdicts of the collective blocks of a stack of cells
    (:func:`hopcav.dynamics.collective_cells`, one row (G, A[2, 3], A[3, 2])
    per block), each 4x4 block with its own margin, as :func:`hurwitz_gate`
    gives it, and each distinct block taken once.

    A stability map passes the cells of all of its points: a point's
    collective block is the collective model at delta + xi, whose coupling G
    and modified detuning both follow delta + xi, so on a grid of equal delta
    and xi steps it repeats along every line of constant delta + xi (1 223
    distinct blocks in the 10 201 points of the fig5 map).  The three cells
    are the entries in which blocks of the same rates differ, so one dict,
    keyed by a row's 24 bytes (one item of a void array), -0.0 included,
    holds the distinct blocks.  Only they are assembled
    (:func:`hopcav.dynamics.collective_stack`), and one stacked eigenvalue
    call takes them; a stacked call gives each matrix the eigenvalues of its
    own call, so every block gets the verdict of its own eigenvalues, bit for
    bit.  No Python runs per block.
    """
    keys = np.frombuffer(cells.tobytes(), f"V{3 * cells.itemsize}").tolist()
    # each distinct row, first occurrence first, with one of its points; when
    # every row is distinct the keys are in point order
    distinct = dict(zip(keys, range(len(keys))))
    taken = cells if len(distinct) == len(keys) else cells[list(distinct.values())]
    blocks = collective_stack(params.mech_freq, params.mech_damping, params.cavity_decay, taken)
    verdicts = dict(zip(distinct, hurwitz_gate(blocks)[0].tolist()))
    return list(map(verdicts.__getitem__, keys))


class MapColumns(NamedTuple):
    """A stability map as columns: its two axes (omega_m units), and the
    cells of :class:`StabilityReport` after them with one entry per point, in
    row-major grid order (delta the slow axis)."""

    delta: list
    xi: list
    s1: list
    s2: list
    hurwitz_reduced: list
    hurwitz_full: list
    agree: list

    def per_point(self, by_delta: list, by_xi: list) -> tuple[list, list]:
        """Items of the map's delta and xi values (``by_delta``, ``by_xi``, in
        axis order) as two columns of one entry per point."""
        return [item for item in by_delta for _ in self.xi], by_xi * len(self.delta)

    def reports(self) -> list[StabilityReport]:
        """The map's rows, one :class:`StabilityReport` per point, each one
        ``tuple.__new__`` over one ``zip`` of the columns."""
        return list(map(tuple.__new__, itertools.repeat(StabilityReport),
                        zip(*self.per_point(self.delta, self.xi), *self[2:])))


def stability_point(params: PhysicalParams, delta: float, xi: float,
                    detuning_sign: str = "positive") -> StabilityReport:
    """Evaluate both stability routes at one (delta, xi) point given in
    omega_m units: the 1 x 1 map, whose columns hold one cell each."""
    return StabilityReport._make([column[0] for column in
                                  map_columns(params, (delta,), (xi,), detuning_sign)])


def stability_map(params: PhysicalParams, delta_values, xi_values,
                  detuning_sign: str = "positive") -> list[StabilityReport]:
    """Rectangular stability map over (delta, xi) grids in omega_m units, one
    report per point in row-major grid order; see :func:`map_columns`."""
    return map_columns(params, delta_values, xi_values, detuning_sign).reports()


def map_columns(params: PhysicalParams, delta_values, xi_values,
                detuning_sign: str = "positive") -> MapColumns:
    """Rectangular stability map over (delta, xi) grids in omega_m units, as
    columns.

    The whole map is one columnar pass: the closed-form working points
    factored by axis, the gate (:func:`gate_branches`) from their columns on
    chunks of ``MAP_CHUNK_POINTS`` points, which bounds the memory of its
    temporaries and of the 8x8 drifts of the rows it cannot decide by sign,
    and one table of the collective blocks' verdicts keyed by each block's
    three defining cells, so each distinct block is assembled, and its
    eigenvalues taken, once (see :func:`_collective_verdicts`).  No other 8x8
    drift or 4x4 block is assembled.  Unstable points are data, not errors.
    Cavities that are not identical, or bare detunings, raise
    :class:`ConfigError`; a point that cannot be evaluated raises its own
    error.
    """
    deltas, xis = [float(d) for d in delta_values], [float(x) for x in xi_values]
    langs, hops = _checked_axes(params, deltas, xis)
    # the working points' couplings G_j = sqrt(2) g_j |a_j| that the gate
    # reads; identical cavities (_checked_axes) have equal decay rates, drives
    # and detunings, so a_2 is a_1 bit for bit and G_2 is G_1: the columns
    # hold one value of each pair, which the gate broadcasts
    amps = np.array(_grid_amps(params.cavity_decay[0], *drive_amps(params), langs, hops))
    coupling = np.hypot(amps.real, amps.imag) * (math.sqrt(2.0) * derive_coupling(params, 1))
    # the figure convention's detunings, as the drift places them (the
    # negated Langevin ones), by delta, against the hopping strengths by xi
    langs, by_xi = np.array(langs), np.array(hops)
    cells = collective_cells(coupling, -langs[:, None], by_xi, detuning_sign)
    coupling, detuning = coupling[:, None], langs.repeat(len(xis))[:, None]
    hops = np.tile(by_xi, len(deltas))
    s1, s2, full = [], [], []
    for start in range(0, len(hops), MAP_CHUNK_POINTS):
        rows = slice(start, start + MAP_CHUNK_POINTS)
        gate = gate_branches(params, coupling[rows], detuning[rows], hops[rows], detuning_sign)
        for error in gate.errors:
            if error is not None:
                raise error
        s1 += gate.s1
        s2 += gate.s2
        full += gate.verdicts
    reduced = _collective_verdicts(params, cells)
    # a zip of Python floats: cheaper than their arrays' comparisons on a map
    # of any size
    agree = [(a > 0.0 and b > 0.0) == red for a, b, red in zip(s1, s2, reduced)]
    return MapColumns(deltas, xis, s1, s2, reduced, full, agree)


def _grid_amps(kappa: float, e1: float, e2: float, langs, hops) -> list[complex]:
    """The closed-form amplitude a_1 of identical cavities
    (:func:`hopcav.steady_state._closed_form_amps` with equal decay rates
    ``kappa`` and equal detunings) at every point of a grid of Langevin
    detunings ``langs`` and hopping strengths ``hops`` (rad/s), row-major.

    On the grid, alpha = kappa + i Delta and its products follow Delta alone,
    and xi^2 and i xi E_2 follow xi alone, so each axis value's factors are
    taken once, and a point takes (alpha E_1 + i xi E_2) / (alpha^2 + xi^2):
    the closed form's operations on the same operands, so the same bits.
    """
    by_delta = [(alpha * e1, alpha * alpha) for alpha in [complex(kappa, lang) for lang in langs]]
    by_xi = [(1j * hop * e2, hop * hop) for hop in hops]
    return [(drive + hopped) / (square + hop2)
            for drive, square in by_delta for hopped, hop2 in by_xi]


def _checked_axes(params: PhysicalParams, delta_values,
                  xi_values) -> tuple[list[float], list[float]]:
    """The Langevin detunings and hopping strengths (rad/s) of delta and xi
    values in omega_m units, each checked once as a sweep checks its axes,
    for a model the map takes: identical cavities at effective detunings."""
    if not params.is_symmetric:
        raise ConfigError("the reduced collective model requires identical cavities")
    if params.detuning.mode != "effective":
        raise ConfigError("the stability map takes effective detunings; "
                          f"got detuning mode {params.detuning.mode!r}")
    omega_m = params.mech_freq[0]
    # the Langevin solver runs with the opposite-signed detunings
    return ([-checked_detuning((delta * omega_m,) * 2)[0] for delta in delta_values],
            [checked_hop_strength(xi * omega_m) for xi in xi_values])
