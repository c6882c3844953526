"""Stability analysis: the two sign conditions of the collective-mode model
and grid maps comparing them against eigenvalue tests.

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

import math
from dataclasses import dataclass, replace

from .dynamics import drift_stack, reduced_drift_stack
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, hurwitz_gate
from .params import PhysicalParams, derive_coupling, drive_amps
from .steady_state import fixed_detuning_points

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the map assembles its working points and drifts as batches instead
from .dynamics import build_reduced, figure_drift  # noqa: F401
from .lyapunov import is_hurwitz  # noqa: F401
from .steady_state import solve_fixed_detuning  # noqa: F401


def routh_hurwitz_reduced(omega_m: float, gamma_m: float, kappa: float,
                          coupling: float, delta_eff: float) -> tuple[float, float]:
    """The two stability scalars (s1, s2) of the collective model at modified
    detuning ``delta_eff``."""
    g2 = coupling * coupling
    d2 = delta_eff * delta_eff
    k2 = kappa * kappa
    s1 = omega_m * (k2 + d2) - g2 * delta_eff
    s2 = 2.0 * gamma_m * kappa * (
        (k2 + (omega_m - delta_eff) ** 2) * (k2 + (omega_m + delta_eff) ** 2)
        + gamma_m * ((gamma_m + 2.0 * kappa) * (k2 + d2) + 2.0 * kappa * omega_m * omega_m)
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


def stability_point(params: PhysicalParams, delta: float, xi: float,
                    detuning_sign: str = "positive") -> StabilityReport:
    """Evaluate both stability routes at one (delta, xi) point given in
    omega_m units, as a batch of one point."""
    return _reports(params, [(delta, xi)], detuning_sign, {})[0]


def stability_map(params: PhysicalParams, delta_values, xi_values,
                  detuning_sign: str = "positive") -> list[StabilityReport]:
    """Rectangular stability map over (delta, xi) grids in omega_m units.

    Points are evaluated in chunks of ``CHUNK_POINTS`` and returned in
    row-major grid order; unstable points are data, not errors.  Cavities
    that are not identical, or bare detunings, raise :class:`ConfigError`.
    """
    points = [(float(d), float(x)) for d in delta_values for x in xi_values]
    checked_hops: dict = {}
    return [
        report
        for start in range(0, len(points), CHUNK_POINTS)
        for report in _reports(params, points[start:start + CHUNK_POINTS], detuning_sign,
                               checked_hops)
    ]


def _reports(params: PhysicalParams, points, detuning_sign: str,
             checked_hops: dict) -> list[StabilityReport]:
    """Working points of the batch, then both Hurwitz gates on the stacked
    collective (4x4) and full (8x8) drifts.  ``checked_hops`` caches the
    checked hopping strength of each distinct xi across the batches of one
    map."""
    if not params.is_symmetric:
        raise ConfigError("the reduced collective model requires identical cavities")
    if params.detuning.mode != "effective":
        raise ConfigError("the stability map takes effective detunings; "
                          f"got detuning mode {params.detuning.mode!r}")
    omega_m = params.mech_freq[0]
    hops = []
    for _, xi in points:
        # 0.0 and -0.0 are one dict key, but their drifts differ
        key = (xi, xi == 0 and math.copysign(1.0, xi))
        if key not in checked_hops:
            checked_hops[key] = replace(params, hop_strength=xi * omega_m).hop_strength
        hops.append(checked_hops[key])
    detuning = [delta * omega_m for delta, _ in points]
    steadies = fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)] * len(points), hops, [(-d, -d) for d in detuning],
    )
    scalars = []
    for (delta, xi), d, h, steady in zip(points, detuning, hops, steadies):
        if isinstance(steady, HopcavError):
            raise steady
        dp = d + h
        s1, s2 = routh_hurwitz_reduced(
            omega_m, params.mech_damping[0], params.cavity_decay[0], steady.eff_coupling[0], dp
        )
        scalars.append((delta, xi, s1, s2, dp))
    try:
        reduced = reduced_drift_stack(
            omega_m, params.mech_damping[0], params.cavity_decay[0],
            [st.eff_coupling[0] for st in steadies], [c[4] for c in scalars], detuning_sign,
        )
        hur_red = hurwitz_gate(reduced)[0].tolist()
        full = drift_stack(
            params.mech_freq, params.mech_damping, params.cavity_decay,
            [st.eff_coupling for st in steadies],
            # the figure convention: negated Langevin detunings (see figure_drift)
            [(-st.eff_detuning[0], -st.eff_detuning[1]) for st in steadies],
            hops, detuning_sign,
        )
        hur_full = hurwitz_gate(full)[0].tolist()
    except HopcavError:
        if len(points) == 1:
            raise
        # point by point, so that the first failing point raises its own error
        return [_reports(params, [pt], detuning_sign, checked_hops)[0] for pt in points]
    return [
        StabilityReport(
            delta=delta,
            xi=xi,
            s1=s1,
            s2=s2,
            hurwitz_reduced=red,
            hurwitz_full=ful,
            agree=(s1 > 0.0 and s2 > 0.0) == red,
        )
        for (delta, xi, s1, s2, _), red, ful in zip(scalars, hur_red, hur_full)
    ]
