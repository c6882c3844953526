"""Stability analysis: the two sign conditions of the collective-mode model,
the one stability gate of sweeps and maps (:func:`gate_branches`), and grid
maps comparing the conditions against eigenvalue tests.

For the collective quartic with positive rates, the two nontrivial
Routh-Hurwitz conditions are

    s1 = omega_m (kappa^2 + d'^2) - G^2 d'
    s2 = 2 gamma_m kappa { [kappa^2 + (omega_m - d')^2][kappa^2 + (omega_m + d')^2]
         + gamma_m [ (gamma_m + 2 kappa)(kappa^2 + d'^2) + 2 kappa omega_m^2 ] }
         + d' omega_m G^2 (gamma_m + 2 kappa)^2

with d' the modified detuning delta + xi.  (s1 > 0 and s2 > 0) is exactly
equivalent to the collective drift (positive sign convention) being Hurwitz;
a violation of s1 signals bistability, a violation of s2 self-oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import drift_stack, reduced_drift_stack
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, hurwitz_gate
from .params import PhysicalParams, checked_hop_strength, derive_coupling, drive_amps
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


@dataclass(frozen=True)
class StabilityReport:
    """Per-point stability verdicts; detunings quoted in omega_m units using
    the positive-on-the-cooling-side axis convention."""

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
    s1: list             # stability scalars of the symmetric branches, else None
    s2: list
    errors: list         # None, or the error that the gate raised for the branch


def gate_branches(params: PhysicalParams, coupling, detuning, hops, symmetric,
                  detuning_sign: str) -> Gate:
    """The stability gate of a batch of branches: the figure-convention 8x8
    drifts, their Hurwitz verdicts, the scalars (s1, s2) of the symmetric
    branches and the errors.

    ``params`` gives the cavities' rates; the columns ``coupling`` (G_j) and
    ``detuning`` (Langevin convention, rad/s), shape (B, 2), ``hops`` (rad/s)
    and ``symmetric`` hold one working point, hopping strength and symmetry
    flag per branch.  When the stacked gate raises, the branches are redone
    one by one, so that only a failing branch carries its error (with a false
    verdict and no scalars).
    """
    hops = np.asarray(hops, dtype=float)
    drifts = drift_stack(
        params.mech_freq, params.mech_damping, params.cavity_decay, coupling,
        # the figure convention: negated Langevin detunings (see figure_drift)
        -detuning, hops, detuning_sign,
    )
    try:
        verdicts = hurwitz_gate(drifts)[0].tolist()
    except HopcavError as exc:
        if len(hops) == 1:
            return Gate(drifts, [False], [None], [None], [exc])
        parts = [gate_branches(params, coupling[j:j + 1], detuning[j:j + 1], hops[j:j + 1],
                               symmetric[j:j + 1], detuning_sign) for j in range(len(hops))]
        return Gate(drifts, *([x for part in parts for x in part[i]] for i in range(1, 5)))
    omega_m, gamma_m, kappa = params.mech_freq[0], params.mech_damping[0], params.cavity_decay[0]
    # the figure-convention modified detuning delta + xi, also valid in bare
    # mode where the shift has been absorbed
    s1, s2 = routh_hurwitz_reduced(omega_m, gamma_m, kappa, coupling[:, 0],
                                   hops - detuning[:, 0])
    s1, s2 = s1.tolist(), s2.tolist()
    if not all(symmetric):
        s1 = [s if sym else None for s, sym in zip(s1, symmetric)]
        s2 = [s if sym else None for s, sym in zip(s2, symmetric)]
    return Gate(drifts, verdicts, s1, s2, [None] * len(hops))


def stability_point(params: PhysicalParams, delta: float, xi: float,
                    detuning_sign: str = "positive") -> StabilityReport:
    """Evaluate both stability routes at one (delta, xi) point given in
    omega_m units, as a batch of one point."""
    (hop,) = _checked_hops(params, (xi,))
    return _reports(params, [(delta, xi, hop)], detuning_sign)[0]


def stability_map(params: PhysicalParams, delta_values, xi_values,
                  detuning_sign: str = "positive") -> list[StabilityReport]:
    """Rectangular stability map over (delta, xi) grids in omega_m units.

    Points are evaluated in chunks of ``CHUNK_POINTS`` and returned in
    row-major grid order; unstable points are data, not errors.  Cavities
    that are not identical, or bare detunings, raise :class:`ConfigError`; a
    point that cannot be evaluated raises its own error.
    """
    xis = [float(x) for x in xi_values]
    hops = _checked_hops(params, xis)
    points = [(float(d), x, h) for d in delta_values for x, h in zip(xis, hops)]
    return [
        report
        for start in range(0, len(points), CHUNK_POINTS)
        for report in _reports(params, points[start:start + CHUNK_POINTS], detuning_sign)
    ]


def _checked_hops(params: PhysicalParams, xi_values) -> list[float]:
    """The hopping strengths (rad/s) of xi values in omega_m units, each
    checked once by the hopping-strength validation of the parameters, for a
    model the map takes: identical cavities at effective detunings."""
    if not params.is_symmetric:
        raise ConfigError("the reduced collective model requires identical cavities")
    if params.detuning.mode != "effective":
        raise ConfigError("the stability map takes effective detunings; "
                          f"got detuning mode {params.detuning.mode!r}")
    omega_m = params.mech_freq[0]
    return [checked_hop_strength(xi * omega_m) for xi in xi_values]


def _reports(params: PhysicalParams, points, detuning_sign: str) -> list[StabilityReport]:
    """Working points of a batch of (delta, xi, checked hopping strength)
    points, the shared gate of the full drifts, then the Hurwitz gate of the
    stacked collective (4x4) drifts."""
    omega_m = params.mech_freq[0]
    hops = [h for _, _, h in points]
    working = fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)] * len(points), hops,
        [(-delta * omega_m, -delta * omega_m) for delta, _, _ in points],
    )
    for error in working.errors:
        if error is not None:
            raise error
    gate = gate_branches(params, working.eff_coupling, working.eff_detuning, working.hop_strength,
                         [True] * len(points), detuning_sign)
    for error in gate.errors:
        if error is not None:
            raise error
    reduced = reduced_drift_stack(
        omega_m, params.mech_damping[0], params.cavity_decay[0], working.eff_coupling[:, 0],
        working.hop_strength - working.eff_detuning[:, 0], detuning_sign,
    )
    return [
        StabilityReport(delta, xi, s1, s2, red, ful, agree=(s1 > 0.0 and s2 > 0.0) == red)
        for (delta, xi, _), s1, s2, red, ful
        in zip(points, gate.s1, gate.s2, hurwitz_gate(reduced)[0].tolist(), gate.verdicts)
    ]
