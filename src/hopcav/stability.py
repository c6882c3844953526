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
positive (negative) sign convention.  (s1 > 0 and s2 > 0) is exactly
equivalent to the collective drift being Hurwitz; a violation of s1 signals
bistability, a violation of s2 self-oscillation.  Only exchange-symmetric
drifts (equal rates, couplings and detunings) have this model.

Such a drift is orthogonally similar to the direct sum of its collective
block and the same model at delta - xi (Vitali et al., PRL 98, 030405
(2007)), so the gate takes its Hurwitz verdict from the eigenvalues of those
two 4x4 blocks, and the collective model's verdict from the same call; only
the other drifts take an 8x8 eigenvalue problem.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import drift_stack, exchange_blocks
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, hurwitz_margins, spectral_abscissae
from .params import (PhysicalParams, checked_detuning, checked_hop_strength, derive_coupling,
                     drive_amps)
from .steady_state import fixed_detuning_points

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the map assembles its working points and drifts as batches instead
from .dynamics import build_reduced, figure_drift  # noqa: F401
from .lyapunov import is_hurwitz  # noqa: F401
from .steady_state import solve_fixed_detuning  # noqa: F401


def routh_hurwitz_reduced(omega_m: float, gamma_m: float, kappa: float,
                          coupling, delta_eff):
    """The two stability scalars (s1, s2) of the collective model at modified
    detuning ``delta_eff``; ``coupling`` and ``delta_eff`` are floats or
    arrays of one value per point."""
    g2 = coupling * coupling
    d2 = delta_eff * delta_eff
    k2 = kappa * kappa
    k2_d2 = k2 + d2
    s1 = omega_m * k2_d2 - g2 * delta_eff
    # k2 + (omega_m -+ delta_eff)^2 along a last axis; float_power squares
    # through the C library's pow, as ``x ** 2`` does on a float (``**`` on an
    # array multiplies, which rounds differently)
    sides = k2 + np.float_power(omega_m + np.multiply.outer(delta_eff, (-1.0, 1.0)), 2.0)
    s2 = 2.0 * gamma_m * kappa * (
        sides[..., 0] * sides[..., 1]
        + gamma_m * ((gamma_m + 2.0 * kappa) * k2_d2 + 2.0 * kappa * omega_m * omega_m)
    ) + delta_eff * omega_m * g2 * (gamma_m + 2.0 * kappa) ** 2
    return s1, s2


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

    drifts: np.ndarray   # (B, 8, 8) figure-convention drifts
    verdicts: list       # Hurwitz verdicts (False where the gate failed)
    collective: list     # where the drift has a collective model, the Hurwitz verdict of its
                         # collective block (hurwitz_gate of collective_drifts), else None
    s1: list             # stability scalars where the drift has a collective model, else None
    s2: list
    errors: list         # None, or the error that the gate raised for the branch


def gate_branches(params: PhysicalParams, coupling, detuning, hops, detuning_sign: str) -> Gate:
    """The stability gate of a batch of branches: the figure-convention 8x8
    drifts, their Hurwitz verdicts, the verdicts and scalars (s1, s2) of the
    collective model of the branches that have one, and the errors.

    ``params`` gives the cavities' rates; the columns ``coupling`` (G_j) and
    ``detuning`` (Langevin convention, rad/s), shape (B, 2), and ``hops``
    (rad/s) hold one working point and hopping strength per branch.  A branch
    has a collective model exactly when its drift is exchange-symmetric: equal
    mechanical frequencies, dampings and decay rates, G_1 == G_2 and
    Delta_1 == Delta_2.  Such a drift is gated on its two 4x4 exchange blocks
    (see :func:`_hurwitz`), any other on its 8x8 eigenvalues.  When the
    stacked gate raises, the branches are redone one by one, so that only a
    failing branch carries its error (with a false verdict, and no collective
    verdict or scalars).
    """
    hops = np.asarray(hops, dtype=float)
    drifts = drift_stack(
        params.mech_freq, params.mech_damping, params.cavity_decay, coupling,
        # the figure convention: negated Langevin detunings (see figure_drift)
        -detuning, hops, detuning_sign,
    )
    # exchange-symmetric: the cavities' diagonal blocks are equal (the hopping
    # blocks always are)
    collective = (drifts[:, :4, :4] == drifts[:, 4:, 4:]).reshape(-1, 16).all(1)
    try:
        verdicts, reduced = _hurwitz(drifts, collective, detuning_sign)
    except HopcavError as exc:
        if len(hops) == 1:
            return Gate(drifts, [False], [None], [None], [None], [exc])
        parts = [gate_branches(params, coupling[j:j + 1], detuning[j:j + 1], hops[j:j + 1],
                               detuning_sign) for j in range(len(hops))]
        return Gate(drifts, *([x for part in parts for x in part[i]] for i in range(1, 6)))
    # delta + xi in the figure convention (bare mode too, shift absorbed); the
    # negative sign's collective block (collective_drifts) is the model at -(delta + xi)
    modified = hops - detuning[:, 0] if detuning_sign == "positive" else detuning[:, 0] - hops
    s1, s2 = routh_hurwitz_reduced(params.mech_freq[0], params.mech_damping[0],
                                   params.cavity_decay[0], coupling[:, 0], modified)
    s1, s2 = s1.tolist(), s2.tolist()
    if reduced.count(None):
        s1 = [None if r is None else s for s, r in zip(s1, reduced)]
        s2 = [None if r is None else s for s, r in zip(s2, reduced)]
    return Gate(drifts, verdicts, reduced, s1, s2, [None] * len(hops))


def _hurwitz(drifts: np.ndarray, collective: np.ndarray, detuning_sign: str) -> tuple[list, list]:
    """The Hurwitz verdicts of a stack of 8x8 drifts, and those of the
    collective blocks of the rows marked ``collective`` (None on the others).

    An exchange-symmetric drift is orthogonally similar to the direct sum of
    its two exchange blocks (:func:`hopcav.dynamics.exchange_blocks`), so its
    spectral abscissa is the larger of theirs: the marked rows take the
    eigenvalues of both 4x4 blocks, in one stacked call, and only the others
    those of the 8x8 drift.  Each drift's verdict has the 8x8 drift's margin
    and each collective verdict its block's own, as :func:`hurwitz_gate`
    gives them.
    """
    every = collective.all()
    symmetric = drifts if every else drifts[collective]
    count = len(symmetric)
    blocks = exchange_blocks(symmetric, detuning_sign)
    pairs = spectral_abscissae(blocks).reshape(2, count)
    reduced = (pairs[0] < hurwitz_margins(blocks[:count])).tolist()
    if every:
        absc = pairs.max(axis=0)
    else:
        absc = np.empty(len(drifts))
        absc[collective] = pairs.max(axis=0)
        absc[~collective] = spectral_abscissae(drifts[~collective])
        marked = iter(reduced)
        reduced = [next(marked) if c else None for c in collective.tolist()]
    return (absc < hurwitz_margins(drifts)).tolist(), reduced


def stability_point(params: PhysicalParams, delta: float, xi: float,
                    detuning_sign: str = "positive") -> StabilityReport:
    """Evaluate both stability routes at one (delta, xi) point given in
    omega_m units, as a batch of one point."""
    (lang,), (hop,) = _checked_axes(params, (delta,), (xi,))
    return _reports(params, [(delta, xi, lang, hop)], detuning_sign)[0]


def stability_map(params: PhysicalParams, delta_values, xi_values,
                  detuning_sign: str = "positive") -> list[StabilityReport]:
    """Rectangular stability map over (delta, xi) grids in omega_m units.

    Points are evaluated in chunks of ``CHUNK_POINTS`` and returned in
    row-major grid order; unstable points are data, not errors.  Cavities
    that are not identical, or bare detunings, raise :class:`ConfigError`; a
    point that cannot be evaluated raises its own error.
    """
    deltas, xis = [float(d) for d in delta_values], [float(x) for x in xi_values]
    langs, hops = _checked_axes(params, deltas, xis)
    points = [(d, x, lang, h) for d, lang in zip(deltas, langs) for x, h in zip(xis, hops)]
    return [
        report
        for start in range(0, len(points), CHUNK_POINTS)
        for report in _reports(params, points[start:start + CHUNK_POINTS], detuning_sign)
    ]


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


def _reports(params: PhysicalParams, points, detuning_sign: str) -> list[StabilityReport]:
    """Working points of a batch of checked (delta, xi, Langevin detuning,
    hopping strength) points and their reports, all read off the shared gate."""
    working = fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)] * len(points), [h for *_, h in points],
        [(lang, lang) for _, _, lang, _ in points],
    )
    gate = gate_branches(params, working.eff_coupling, working.eff_detuning, working.hop_strength,
                         detuning_sign)
    for error in gate.errors:
        if error is not None:
            raise error
    return [
        StabilityReport(delta, xi, s1, s2, red, ful, agree=(s1 > 0.0 and s2 > 0.0) == red)
        for (delta, xi, *_), s1, s2, red, ful
        in zip(points, gate.s1, gate.s2, gate.collective, gate.verdicts)
    ]
