import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopcav import engine, lyapunov, stability, steady_state
from hopcav.dynamics import (
    DETUNING_SIGNS,
    build_reduced,
    collective_cells,
    collective_drifts,
    collective_stack,
    drift_norms,
    drift_rates,
    drift_stack,
    exchange_blocks,
    figure_drift,
)
from hopcav.engine import AxisSpec, SweepConfig, csv_text, run_point, run_sweep
from hopcav.errors import ConfigError, HopcavError
from hopcav.lyapunov import (CHUNK_POINTS, hurwitz_gate, hurwitz_margins, is_hurwitz,
                             spectral_abscissae)
from hopcav.params import Detuning, PhysicalParams, derive_coupling, drive_amps
from hopcav.presets import PRESET_NAMES, fig_preset
from hopcav.stability import (
    StabilityReport,
    gate_branches,
    routh_hurwitz_reduced,
    stability_map,
    stability_point,
)
from hopcav.steady_state import fixed_detuning_points, solve_fixed_detuning

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def make_params(xi=0.0, power=0.05):
    return PhysicalParams(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi,
        detuning=Detuning("effective", (0.0, 0.0)),
    )


def gate_columns(params, detunings, xis):
    """The gate's columns (G_j, Langevin detunings, hopping strengths) of
    closed-form working points at figure-convention detuning pairs and
    hopping strengths, in omega_m units."""
    omega_m = params.mech_freq[0]
    working = fixed_detuning_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [drive_amps(params)] * len(xis), [xi * omega_m for xi in xis],
        [(-d1 * omega_m, -d2 * omega_m) for d1, d2 in detunings],
    )
    return working.eff_coupling, working.eff_detuning, working.hop_strength


def column_drifts(params, coupling, detuning, hops, detuning_sign):
    """The figure-convention 8x8 drifts of the gate's columns, as the gate
    and a sweep assemble them."""
    return drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay, coupling,
                       -np.asarray(detuning), np.asarray(hops, dtype=float), detuning_sign)


def cells_of(blocks):
    """The cells (G, A[2, 3], A[3, 2]) of a stack of collective blocks."""
    return blocks[:, (1, 2, 3), (2, 3, 2)]


def recorded_eigvals(monkeypatch, shapes):
    """Record the shape of every stack the eigenvalue kernel of the Hurwitz
    gate takes."""
    eigvals = lyapunov._eigvals

    def recorded(a, **kwargs):
        shapes.append(np.shape(a))
        return eigvals(a, **kwargs)

    monkeypatch.setattr(lyapunov, "_eigvals", recorded)


class TestRouthHurwitzFormulas:
    def test_zero_coupling(self):
        gm = TWO_PI * 100.0
        kap = TWO_PI * 14e6
        for dp in (-2.0 * WM, 0.0, 0.7 * WM, 3.0 * WM):
            s1, _ = routh_hurwitz_reduced(WM, gm, kap, 0.0, dp)
            assert s1 == pytest.approx(WM * (kap * kap + dp * dp), rel=1e-14)
            assert s1 > 0.0

    def test_zero_detuning_reduction(self):
        gm = TWO_PI * 100.0
        kap = TWO_PI * 14e6
        coupling = 3e7
        s1, s2 = routh_hurwitz_reduced(WM, gm, kap, coupling, 0.0)
        assert s1 == pytest.approx(WM * kap * kap, rel=1e-14)
        expected = 2.0 * gm * kap * (
            (kap * kap + WM * WM) ** 2
            + gm * ((gm + 2 * kap) * kap * kap + 2 * kap * WM * WM)
        )
        assert s2 == pytest.approx(expected, rel=1e-14)
        assert s2 > 0.0

    def test_agreement_at_operating_point(self):
        p = make_params()
        ss = solve_fixed_detuning(p, -WM, -WM)
        coupling = ss.eff_coupling[0]
        s1, s2 = routh_hurwitz_reduced(WM, p.mech_damping[0], p.cavity_decay[0], coupling, WM)
        red = build_reduced(p, coupling, WM)
        hur, _ = is_hurwitz(red.drift)
        assert (s1 > 0 and s2 > 0) == hur
        assert hur  # this point is stable

    def test_sign_conditions_match_eigenvalues_random(self):
        # the two scalars are exactly the nontrivial stability conditions of
        # the collective quartic; no mismatches are tolerated
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(2000):
            wm, gm, kap, coupling, dp = rng.uniform(0.1, 3.0, 5)
            dp = dp * rng.choice([-1.0, 1.0])
            s1, s2 = routh_hurwitz_reduced(wm, gm, kap, coupling, dp)
            drift = np.array([
                [0.0, wm, 0.0, 0.0],
                [-wm, -gm, coupling, 0.0],
                [0.0, 0.0, -kap, dp],
                [coupling, 0.0, -dp, -kap],
            ])
            absc = np.linalg.eigvals(drift).real.max()
            if abs(absc) < 1e-9:  # skip points within rounding of the boundary
                continue
            checked += 1
            assert (s1 > 0 and s2 > 0) == (absc < 0), (wm, gm, kap, coupling, dp)
        assert checked > 1900


class TestStabilityMap:
    def test_undriven_map_is_entirely_stable(self):
        p = make_params(power=0.0)
        reports = stability_map(p, np.linspace(0, 2, 5), np.linspace(0, 2, 5))
        assert len(reports) == 25
        for r in reports:
            assert r.s1 > 0 and r.s2 > 0
            assert r.hurwitz_reduced
            assert r.agree

    def test_reference_grid_structure(self):
        p = make_params(power=0.05)
        deltas = np.linspace(0.0, 2.0, 21)
        xis = np.linspace(0.0, 2.0, 21)
        reports = stability_map(p, deltas, xis)
        # row-major order
        assert [r.delta for r in reports[:21]] == [0.0] * 21
        assert reports[1].xi == pytest.approx(0.1)
        # the collective conditions hold wherever hopping dominates detuning
        for r in reports:
            if r.xi >= r.delta:
                assert r.s1 > 0 and r.s2 > 0
        # formula signs and the eigenvalue verdict agree at every grid point
        assert all(r.agree for r in reports)

    def test_full_stability_implies_reduced(self):
        p = make_params(power=0.05)
        reports = stability_map(p, np.linspace(0, 2, 11), np.linspace(0, 2, 11))
        for r in reports:
            if r.hurwitz_full:
                assert r.hurwitz_reduced

    def test_point_helper_matches_map(self):
        p = make_params(power=0.05)
        single = stability_point(p, 1.0, 0.5)
        grid = stability_map(p, [1.0, 2.0], [0.5, 1.5])
        assert grid[0] == single

    def test_asymmetric_rejected(self):
        p = make_params()
        p = dataclasses.replace(p, cavity_decay=(TWO_PI * 14e6, TWO_PI * 7e6))
        with pytest.raises(ConfigError):
            stability_map(p, [0.0, 1.0], [0.0, 1.0])

    def test_map_equals_point_by_point_oracle(self):
        # 75 mW: the grid crosses the bistability (s1) and the
        # self-oscillation (s2) boundaries; xi starts at 0
        p = make_params(power=0.075)
        deltas = np.linspace(-1.5, 2.0, 15)
        xis = np.linspace(0.0, 1.5, 7)
        oracle = []
        for delta in deltas:
            for xi in xis:
                q = dataclasses.replace(p, hop_strength=float(xi) * WM)
                d = float(delta) * WM
                steady = solve_fixed_detuning(q, -d, -d)
                coupling = steady.eff_coupling[0]
                s1, s2 = routh_hurwitz_reduced(WM, q.mech_damping[0], q.cavity_decay[0],
                                               coupling, d + q.hop_strength)
                red = is_hurwitz(build_reduced(q, coupling, d).drift)[0]
                full = is_hurwitz(figure_drift(q, steady))[0]
                oracle.append(StabilityReport(float(delta), float(xi), s1, s2, red, full,
                                              (s1 > 0.0 and s2 > 0.0) == red))
        reports = stability_map(p, deltas, xis)
        assert reports == oracle
        assert any(r.s1 < 0 for r in reports) and any(r.s2 < 0 for r in reports)
        assert any(r.hurwitz_full for r in reports)

    def test_map_checks_each_hopping_value_once(self, monkeypatch):
        config = fig_preset("fig5")
        axes = {a.name: a.values for a in config.axes}
        calls = []
        post_init = PhysicalParams.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(PhysicalParams, "__post_init__", counted)
        reports = stability_map(config.params, axes["delta"], axes["xi"])
        assert len(reports) == 101 * 101
        assert len(calls) <= 1 + len(set(axes["delta"])) + len(set(axes["xi"]))

    @pytest.mark.parametrize("xi", [0.3, -0.0, -0.5, math.inf, math.nan])
    def test_hopping_check_is_the_parameters_check(self, xi):
        # the map checks xi as PhysicalParams checks its hop_strength field
        from hopcav.params import checked_hop_strength

        params = make_params()
        try:
            want = dataclasses.replace(params, hop_strength=xi * WM).hop_strength
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                checked_hop_strength(xi * WM)
            assert str(info.value) == str(exc)
        else:
            assert checked_hop_strength(xi * WM) == want

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 1e308])
    def test_nonfinite_detuning_is_rejected(self, delta):
        # the map checks delta as a sweep checks its delta axis; 1e308 omega_m
        # overflows to an infinite detuning
        params = make_params()
        with pytest.raises(ConfigError, match="detuning value must be finite"):
            stability_point(params, delta, 0.5)
        with pytest.raises(ConfigError, match="detuning value must be finite"):
            stability_map(params, [0.0, delta], [0.0, 0.5])

    def test_negative_hopping_is_rejected(self):
        with pytest.raises(ConfigError, match="hop_strength must be nonnegative"):
            stability_map(make_params(), [0.5, 1.0], [0.5, -0.5])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_drift_norms_warn_nothing(self):
        # at delta = 1e150 omega_m the drift's entries pass 1e154, so the sum
        # of squares of its Frobenius norm overflows: its margin is -inf, so
        # neither its drift nor its collective block passes the eigenvalue
        # gate, while the infinite scalars are positive
        params = fig_preset("fig5").params
        far = StabilityReport(1e150, 0.5, math.inf, math.inf, False, False, False)
        assert stability_point(params, 1e150, 0.5) == far
        near = stability_point(params, 0.5, 0.5)
        assert near.hurwitz_full and near.agree
        assert stability_map(params, [0.5, 1e150], [0.5]) == [near, far]
        (record,) = run_point(fig_preset("fig6b"), {"delta": 1e150, "xi": 0.5}).records
        assert (record.stable, record.s1, record.s2, record.error) == (False, math.inf,
                                                                      math.inf, "")


# draws of a row at a stability boundary of the collective model, as
# boundary_row takes them
BOUNDARY_ROWS = dict(detuning_sign=st.sampled_from(DETUNING_SIGNS), damping=st.floats(-5.0, -3.0),
                     xi=st.floats(0.0, 2.0), boundary=st.sampled_from(("s1", "s2")),
                     half=st.sampled_from((0, 1)))


def boundary_row(detuning_sign, damping, xi, boundary, half, power=None):
    """Parameters with gamma_m = 10^damping omega_m, a function from
    figure-convention delta values (omega_m units) to their 8x8 drifts at
    G = 2 omega_m and the given xi, and the largest stable-side delta at the
    chosen boundary of the chosen block, bisected to the last float.

    At G = 2 omega_m the model at modified detuning d' self-oscillates
    (s2 < 0) below a d' of -8e-6 to -8e-4 omega_m, as gamma_m/omega_m runs
    from 1e-5 to 1e-3, and is bistable (s1 < 0) above about 0.57 omega_m;
    the detuning is bisected to where the block (half 0 at d' =
    s (delta + xi), half 1 at s (delta - xi)) crosses the margin of the 8x8
    drift, where the signs still call it stable.

    With a drive ``power`` (W), the drifts are instead those of the
    closed-form working points at that power, as a stability map and a sweep
    take them, and the power is doubled until the model is bistable at
    d' = 1 omega_m, or self-oscillates at d' = -0.5 omega_m (at d' = 0 it is
    stable at any coupling).
    """
    params = dataclasses.replace(make_params(), mech_damping=10.0 ** damping * WM)
    s = 1.0 if detuning_sign == "positive" else -1.0
    shift = -xi if half == 0 else xi

    def drifts(deltas):
        count = len(deltas)
        if power is not None:
            return column_drifts(params, *gate_columns(params, [(d, d) for d in deltas],
                                                       [xi] * count), detuning_sign)
        return drift_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                           np.full((count, 2), 2.0 * WM), np.outer(deltas, (WM, WM)),
                           np.full(count, xi * WM), detuning_sign)

    def stable(delta):
        drift = drifts([delta])
        block = spectral_abscissae(exchange_blocks(drift, detuning_sign))[half]
        return block < hurwitz_margins(drift)[0]

    far = -0.5 if boundary == "s2" else (2.0 if power is None else 1.0)
    a, b = (s * d + shift for d in (0.0, far))
    if power is not None:
        for _ in range(40):
            params = dataclasses.replace(params, drive_power=power)
            if not stable(b):
                break
            power *= 2.0
    assert stable(a) and not stable(b)
    while math.nextafter(a, b) != b:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if stable(mid) else (a, mid)
    return params, drifts, a


class TestSharedGate:
    """The sweep and the map gate their working points through one stage."""

    def test_map_matches_sweep_records(self):
        config = fig_preset("fig5")
        grid = np.linspace(0.0, 2.0, 11)
        config = dataclasses.replace(config, axes=(AxisSpec("delta", grid), AxisSpec("xi", grid)))
        records = run_sweep(config).records
        reports = stability_map(config.params, grid, grid, config.detuning_sign)
        assert [(r.s1, r.s2, r.hurwitz_full) for r in reports] == [
            (rec.s1, rec.s2, rec.stable) for rec in records
        ]
        assert any(r.hurwitz_full for r in reports) and not all(r.hurwitz_full for r in reports)

    @settings(max_examples=40, deadline=None)
    @given(**BOUNDARY_ROWS)
    def test_map_matches_sweep_records_at_the_margins(self, detuning_sign, damping, xi, boundary,
                                                      half):
        # working points bisected onto a block's margin, and 1 and 2 ulp
        # either side: their scalars lie within the band, so both take the
        # eigenvalues of their 8x8 drifts
        params, drifts, a = boundary_row(detuning_sign, damping, xi, boundary, half, power=0.075)
        deltas = [a + k * math.ulp(a) for k in range(-2, 3)]
        with mock.patch.object(stability, "hurwitz_gate", wraps=hurwitz_gate) as spy:
            reports = stability_map(params, deltas, [xi], detuning_sign)
        assert [call.args[0].shape for call in spy.call_args_list
                if call.args[0].shape[1:] == (8, 8)] == [(5, 8, 8)]
        config = SweepConfig(dataclasses.replace(params, hop_strength=xi * WM),
                             axes=(AxisSpec("delta", deltas),), detuning_sign=detuning_sign)
        records = run_sweep(config).records
        assert [(r.s1, r.s2, r.hurwitz_full) for r in reports] == [
            (rec.s1, rec.s2, rec.stable) for rec in records]
        # the full verdicts are hurwitz_gate's on the 8x8 drifts, and the
        # collective verdicts hurwitz_gate's on the collective blocks
        rows = drifts(deltas)
        assert [r.hurwitz_full for r in reports] == hurwitz_gate(rows)[0].tolist()
        assert [r.hurwitz_reduced for r in reports] == hurwitz_gate(
            collective_drifts(rows, detuning_sign))[0].tolist()

    def test_failing_branch_alone_carries_the_error(self):
        # 1e300 W overflows the drive amplitude: its drifts cannot be gated,
        # so the stacked gate raises and the branches are redone one by one
        config = fig_preset("fig5")
        config = dataclasses.replace(
            config, axes=(AxisSpec("power", (0.05, 1e300)), AxisSpec("delta", (0.5, 1.0))),
        )
        records = run_sweep(config).records
        assert [r.error.startswith("eigenvalue solver failed") for r in records] == [
            False, False, True, True,
        ]
        assert all(r.stable for r in records[:2])
        # the amplitudes are NaN, so the rows compare as CSV text
        singles = [rec for r in records[2:]
                   for rec in run_point(config, {"power": r.power, "delta": r.delta}).records]
        assert csv_text(singles) == csv_text(records[2:])

    def test_map_raises_the_failing_points_error(self):
        config = fig_preset("fig5")
        (rec,) = run_point(config, {"power": 1e300, "delta": 0.5}).records
        params = dataclasses.replace(config.params, drive_power=1e300)
        with pytest.raises(HopcavError) as info:
            stability_map(params, [0.5, 1.0], [0.0, 0.5])
        assert str(info.value) == rec.error


class TestCollectiveRule:
    """The gate gives (s1, s2) exactly to the branches whose drift is
    exchange-symmetric, at the modified detuning of the sector it gates."""

    @pytest.mark.parametrize("detuning_sign", DETUNING_SIGNS)
    def test_scalars_exactly_on_exchange_symmetric_branches(self, detuning_sign):
        rng = np.random.default_rng(5)
        count = 12
        coupling = np.repeat(rng.uniform(0.1, 2.0, (count, 1)) * WM, 2, axis=1)
        detuning = np.repeat(rng.uniform(-2.0, 2.0, (count, 1)) * WM, 2, axis=1)
        hops = rng.uniform(0.0, 2.0, count) * WM
        coupling[1::4, 1] = np.nextafter(coupling[1::4, 1], np.inf)   # G_1 != G_2
        detuning[2::4, 1] += 0.3 * WM                                  # Delta_1 != Delta_2
        broken = [j % 4 in (1, 2) for j in range(count)]
        p = make_params()
        gm, kap = p.mech_damping[0], p.cavity_decay[0]
        sign = 1.0 if detuning_sign == "positive" else -1.0
        scalars = [tuple(float(s) for s in routh_hurwitz_reduced(
            WM, gm, kap, coupling[j, 0], sign * (hops[j] - detuning[j, 0]))) for j in range(count)]
        cases = [
            (p, True),
            # lengths, masses and drive powers do not enter the drift
            (dataclasses.replace(p, cavity_length=(1e-3, 2e-3), mirror_mass=(5e-12, 7e-12),
                                 drive_power=(0.05, 0.04)), True),
            (dataclasses.replace(p, mech_freq=(WM, 1.1 * WM)), False),
            (dataclasses.replace(p, mech_damping=(gm, 2.0 * gm)), False),
            (dataclasses.replace(p, cavity_decay=(kap, 0.5 * kap)), False),
        ]
        for params, equal_rates in cases:
            gate = gate_branches(params, coupling, detuning, hops, detuning_sign)
            want = [pair if equal_rates and not off else (None, None)
                    for pair, off in zip(scalars, broken)]
            assert list(zip(gate.s1, gate.s2)) == want

    @pytest.mark.parametrize("detunings, scalars", [((1.0, 1.3), False), ((1.0, 1.0), True)])
    def test_point_scalars_need_equal_detunings(self, detunings, scalars):
        detuning = Detuning("effective", tuple(d * WM for d in detunings))
        params = dataclasses.replace(make_params(xi=0.5 * WM), detuning=detuning)
        (rec,) = run_point(SweepConfig(params)).records
        assert rec.stable
        if scalars:
            assert type(rec.s1) is float and type(rec.s2) is float
        else:
            assert rec.s1 is None and rec.s2 is None

    def test_negative_sign_map_gates_the_mirrored_detuning(self):
        # under the negative sign the collective block is the model at
        # -(delta + xi): every point agrees, with the scalars taken there
        p = make_params(power=0.075)
        deltas = np.linspace(-1.5, 2.0, 15)
        xis = np.linspace(0.0, 1.5, 7)
        reports = stability_map(p, deltas, xis, "negative")
        assert all(r.agree for r in reports)
        for r in reports:
            q = dataclasses.replace(p, hop_strength=r.xi * WM)
            d = r.delta * WM
            coupling = solve_fixed_detuning(q, -d, -d).eff_coupling[0]
            s1, s2 = routh_hurwitz_reduced(WM, q.mech_damping[0], q.cavity_decay[0], coupling,
                                           -(d + q.hop_strength))
            assert (r.s1, r.s2) == (s1, s2)
        assert any(r.hurwitz_reduced for r in reports)
        assert not all(r.hurwitz_reduced for r in reports)

    @settings(max_examples=200, deadline=None)
    @given(delta=st.floats(-0.5, 2.5), xi=st.floats(0.0, 2.5), power=st.floats(0.010, 0.080),
           detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_conditions_match_the_eigenvalues(self, delta, xi, power, detuning_sign):
        report = stability_point(make_params(power=power), delta, xi, detuning_sign)
        assert report.agree
        if report.hurwitz_full:
            assert report.s1 > 0.0 and report.s2 > 0.0


class TestBlockGate:
    """The verdicts of exchange-symmetric drifts are those of their two 4x4
    exchange blocks, and of their 8x8 eigenvalues."""

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-0.5, 2.5), st.floats(0.0, 2.5)),
                           min_size=1, max_size=6),
           power=st.floats(0.010, 0.080), detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_block_verdicts_are_the_full_verdicts(self, points, power, detuning_sign):
        params = make_params(power=power)
        columns = gate_columns(params, [(d, d) for d, _ in points], [xi for _, xi in points])
        gate = gate_branches(params, *columns, detuning_sign)
        drifts = column_drifts(params, *columns, detuning_sign)
        assert None not in gate.s1
        ok, absc = hurwitz_gate(drifts)
        scale = np.linalg.norm(drifts, axis=(1, 2))
        blocks = spectral_abscissae(exchange_blocks(drifts, detuning_sign))
        assert np.all(np.abs(blocks.reshape(2, -1).max(axis=0) - absc) <= 1e-13 * scale)
        clear = np.abs(absc) > 1e-9 * scale
        assert np.array_equal(np.array(gate.verdicts)[clear], ok[clear])

    # Near the margin the two 4x4 blocks' eigenvalues and the 8x8 drift's
    # round apart: on the bisected rows below, their abscissae differed by at
    # most 6e-4 margins (900 bisections, both signs, boundaries and blocks), and
    # their verdicts only on rows within 2e-4 margins of the 8x8 threshold.
    ROUNDING_BAND = 0.01   # margins

    @settings(max_examples=100, deadline=None)
    @given(**BOUNDARY_ROWS)
    def test_block_verdicts_near_the_margin(self, detuning_sign, damping, xi, boundary, half):
        # rows 0, 1, 2, 4, ..., 2^44 floats either side of a boundary: the
        # near ones straddle the 8x8 threshold within rounding, the far ones
        # clear it by many margins
        params, drifts, a = boundary_row(detuning_sign, damping, xi, boundary, half)
        deltas = [a + k * math.ulp(a) for k in (0, *(sgn * 2.0 ** j for j in range(45)
                                                     for sgn in (-1, 1)))]
        count = len(deltas)
        columns = (np.full((count, 2), 2.0 * WM), -np.outer(deltas, (WM, WM)),
                   np.full(count, xi * WM))
        gate = gate_branches(params, *columns, detuning_sign)
        rows = column_drifts(params, *columns, detuning_sign)
        assert np.array_equal(rows, drifts(deltas)) and None not in gate.s1
        # every verdict is hurwitz_gate's on the 8x8 drift, within the band
        # and outside it
        full, absc = hurwitz_gate(rows)
        assert gate.verdicts == full.tolist()
        # the blocks' eigenvalues give the same verdicts, and the same
        # abscissae within rounding, away from the margin: the data behind
        # the band
        pair = spectral_abscissae(exchange_blocks(rows, detuning_sign)).reshape(2, -1)
        blocks = pair.max(axis=0)
        margin = hurwitz_margins(rows)
        assert np.all(np.abs(blocks - absc) <= self.ROUNDING_BAND * -margin)
        clear = np.abs(absc - margin) > self.ROUNDING_BAND * -margin
        assert np.array_equal((blocks < margin)[clear], full[clear])
        # rows clear of the band on both sides of the boundary, and of both
        # verdicts unless the other block is unstable there
        assert clear[1::2].any() and clear[2::2].any()
        other = spectral_abscissae(exchange_blocks(rows[:1], detuning_sign))[1 - half]
        if other < margin[0]:
            assert full[clear].any() and not full[clear].all()

    @pytest.mark.parametrize("detuning_sign", DETUNING_SIGNS)
    def test_collective_verdicts_are_the_collective_blocks_gate(self, detuning_sign):
        # 75 mW: the grid crosses both boundaries of the collective model
        params = make_params(power=0.075)
        delta_values, xi_values = np.linspace(-1.5, 2.0, 15), np.linspace(0.0, 1.5, 7)
        reports = stability_map(params, delta_values, xi_values, detuning_sign)
        deltas, xis = np.meshgrid(delta_values, xi_values, indexing="ij")
        drifts = column_drifts(params, *gate_columns(params, zip(deltas.flat, deltas.flat),
                                                     xis.ravel()), detuning_sign)
        want = hurwitz_gate(collective_drifts(drifts, detuning_sign))[0].tolist()
        assert [r.hurwitz_reduced for r in reports] == want
        assert any(want) and not all(want)

    def test_collective_verdict_takes_the_blocks_own_margin(self):
        # bisect delta across a collective boundary (xi = 0.5) to a block
        # abscissa between the 8x8 drift's margin and the block's own, less
        # negative one: only the block's own margin passes it
        params = make_params(power=0.075)

        def probe(delta):
            drifts = column_drifts(params, *gate_columns(params, [(delta, delta)], [0.5]),
                                   "positive")
            block = collective_drifts(drifts, "positive")
            return (stability_point(params, delta, 0.5), spectral_abscissae(block)[0],
                    hurwitz_margins(block)[0], hurwitz_margins(drifts)[0])

        stable, unstable = 1.1, 1.0
        assert probe(stable)[0].hurwitz_reduced and not probe(unstable)[0].hurwitz_reduced
        for _ in range(200):
            delta = 0.5 * (stable + unstable)
            report, absc, own, full = probe(delta)
            if full <= absc < own:
                break
            if absc < full:
                stable = delta
            else:
                unstable = delta
        else:
            pytest.fail("no abscissa between the two margins")
        assert report.hurwitz_reduced and not report.hurwitz_full
        # the signs call that row stable: it lies within the band, so the gate
        # took the eigenvalues of its 8x8 drift, and the collective verdict
        # those of its block
        with mock.patch.object(stability, "hurwitz_gate", wraps=hurwitz_gate) as spy:
            assert stability_point(params, delta, 0.5) == report
        assert sorted(call.args[0].shape for call in spy.call_args_list) == [(1, 4, 4),
                                                                            (1, 8, 8)]

    def test_mixed_stack_gates_each_row_as_its_batch_of_one(self):
        params = make_params(power=0.075)
        detunings = [(0.5, 0.5), (1.0, 1.3), (1.2, 1.2), (-0.4, 0.1), (1.6, 1.6)]
        xis = [0.5, 0.5, 0.2, 1.0, 0.0]
        rows = [gate_columns(params, detunings, xis),
                # 1e300 W overflows the drive amplitude: its drift cannot be gated
                gate_columns(dataclasses.replace(params, drive_power=1e300), [(0.5, 0.5)], [0.5])]
        for columns in (rows[0], [np.concatenate(c) for c in zip(*rows)]):
            gate = gate_branches(params, *columns, "positive")
            assert [c is None for c in gate.s1[:5]] == [False, True, False, True, False]
            for j in range(len(columns[2])):
                single = gate_branches(params, *(c[j:j + 1] for c in columns), "positive")
                assert [part[j] for part in gate[:3]] == [part[0] for part in single[:3]]
                assert str(gate.errors[j]) == str(single.errors[0])
            assert [str(e).startswith("eigenvalue solver failed") for e in gate.errors] == [
                False] * 5 + [True] * (len(columns[2]) - 5)
        assert gate.verdicts[-1] is False and gate.s1[-1] is None

    def test_symmetric_rows_solve_no_8x8_eigenvalue_problem(self, monkeypatch):
        shapes = []
        recorded_eigvals(monkeypatch, shapes)
        grid = np.linspace(0.0, 2.0, 11)
        config = fig_preset("fig5")
        assert len(stability_map(config.params, grid, grid, config.detuning_sign)) == 121
        # the map takes the eigenvalues of its collective blocks
        assert shapes and all(shape[1:] == (4, 4) for shape in shapes)
        shapes.clear()
        config = dataclasses.replace(fig_preset("fig6b"),
                                     axes=(AxisSpec("delta", grid), AxisSpec("xi", grid)))
        assert len(run_sweep(config).records) == 121
        # the sweep decides every point from the signs of its scalars
        assert shapes == []


def points_of(params, deltas, xis, detuning_sign):
    """The reports of a (delta, xi) grid, point by point."""
    return [stability_point(params, float(d), float(x), detuning_sign)
            for d in deltas for x in xis]


class TestBlockTable:
    """A map takes each distinct collective block's eigenvalues once, from
    one table over all of its chunks, and its reports are those of its
    points."""

    @settings(max_examples=8, deadline=None)
    @given(start=st.integers(-48, 96), xi_start=st.integers(0, 64), step=st.integers(1, 6),
           rows=st.integers(16, 20), power=st.floats(0.010, 0.080),
           detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_equal_steps(self, start, xi_start, step, rows, power, detuning_sign):
        # dyadic delta and xi steps of one size: a collective block recurs
        # along each line of constant delta + xi, across more than a sweep chunk
        deltas = (start + step * np.arange(rows)) / 32.0
        xis = (xi_start + step * np.arange(17)) / 32.0
        params = make_params(power=power)
        reports = stability_map(params, deltas, xis, detuning_sign)
        assert len(reports) > CHUNK_POINTS
        assert reports == points_of(params, deltas, xis, detuning_sign)

    @settings(max_examples=8, deadline=None)
    @given(start=st.floats(-0.5, 2.0), xi_start=st.floats(0.0, 1.0), step=st.floats(0.01, 0.15),
           ratio=st.floats(0.3, 3.0), power=st.floats(0.010, 0.080),
           detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_incommensurate_steps(self, start, xi_start, step, ratio, power, detuning_sign):
        deltas = start + step * np.arange(19)
        xis = xi_start + step * (ratio * math.sqrt(2.0)) * np.arange(15)
        params = make_params(power=power)
        reports = stability_map(params, deltas, xis, detuning_sign)
        assert len(reports) > CHUNK_POINTS
        assert reports == points_of(params, deltas, xis, detuning_sign)

    @settings(max_examples=60, deadline=None)
    @given(**BOUNDARY_ROWS)
    def test_rows_at_the_margin_from_the_table(self, detuning_sign, damping, xi, boundary, half):
        # rows bisected onto a block's margin, and 1 and 2 ulp either side,
        # gated and their collective blocks verdicted in both orders: each
        # row keeps the verdicts of its batch of one, and its collective
        # verdict is hurwitz_gate's on its block alone
        params, drifts, a = boundary_row(detuning_sign, damping, xi, boundary, half)
        deltas = [a + k * math.ulp(a) for k in range(-2, 3)]
        columns = (np.full((5, 2), 2.0 * WM), -np.outer(deltas, (WM, WM)), np.full(5, xi * WM))
        blocks = collective_drifts(drifts(deltas), detuning_sign)
        singles = [gate_branches(params, *(c[j:j + 1] for c in columns), detuning_sign)
                   for j in range(5)]
        alone = [hurwitz_gate(blocks[j:j + 1])[0].tolist() for j in range(5)]
        for order in (slice(None), slice(None, None, -1)):
            gate = gate_branches(params, *(c[order] for c in columns), detuning_sign)
            assert [part[j] for j in range(5) for part in gate] == [
                part[0] for single in singles[order] for part in single]
            assert np.array_equal(collective_drifts(column_drifts(
                params, *(c[order] for c in columns), detuning_sign), detuning_sign), blocks[order])
            assert [[v] for v in stability._collective_verdicts(
                params, cells_of(blocks[order]))] == alone[order]

    def test_map_takes_each_distinct_collective_block_once(self, monkeypatch):
        # 21 x 21 points at equal steps of 0.1 omega_m
        params = make_params(power=0.075)
        grid = np.linspace(0.0, 2.0, 21)
        deltas, xis = np.meshgrid(grid, grid, indexing="ij")
        drifts = column_drifts(params, *gate_columns(params, zip(deltas.flat, deltas.flat),
                                                     xis.ravel()), "positive")
        distinct = len({block.tobytes() for block in collective_drifts(drifts, "positive")})
        shapes = []
        recorded_eigvals(monkeypatch, shapes)
        reports = stability_map(params, grid, grid)
        count = len(reports)
        assert count == 441 > CHUNK_POINTS and distinct < count
        # each distinct collective block once; the signs decide every row
        assert all(shape[1:] == (4, 4) for shape in shapes)
        assert sum(shape[0] for shape in shapes) == distinct
        # working points bisected onto a block's margin, and 1 and 2 ulp
        # either side, all five within the band: each distinct collective
        # block once, and each row's 8x8 drift once
        for detuning_sign in DETUNING_SIGNS:
            params, drifts, a = boundary_row(detuning_sign, -3.0, 0.5, "s1", 1, power=0.075)
            deltas = [a + k * math.ulp(a) for k in range(-2, 3)]
            distinct = len({block.tobytes()
                            for block in collective_drifts(drifts(deltas), detuning_sign)})
            shapes.clear()
            assert len(stability_map(params, deltas, [0.5], detuning_sign)) == 5
            assert sum(shape[0] for shape in shapes if shape[1:] == (4, 4)) == distinct
            assert sum(shape[0] for shape in shapes if shape[1:] == (8, 8)) == 5
            assert all(shape[1:] in ((4, 4), (8, 8)) for shape in shapes)

    def test_table_of_distinct_reversed_and_repeated_blocks(self):
        # stable and unstable collective blocks across delta; each stack's
        # verdicts are hurwitz_gate's on each block alone, a -0.0 copy's
        # included
        params = make_params(power=0.075)
        deltas = np.linspace(-1.0, 2.0, 13)
        drifts = column_drifts(params, *gate_columns(params, zip(deltas, deltas), [0.5] * 13),
                               "positive")
        distinct = collective_drifts(drifts, "positive")
        # at delta = -0.5 the modified detuning delta + xi is 0: a copy of that
        # block with -0.0 in its detuning cells
        signed = distinct[2].copy()
        assert signed[2, 3] == signed[3, 2] == 0.0
        signed[signed == 0.0] = -0.0
        repeated = np.concatenate([distinct[[0, 3, 3, 12, 0, 7, 2]], signed[None], distinct[2:3]])
        assert len({block.tobytes() for block in distinct}) == 13
        for blocks in (distinct, distinct[::-1], repeated):
            alone = [hurwitz_gate(block[None])[0][0] for block in blocks]
            assert stability._collective_verdicts(params, cells_of(blocks)) == alone
            assert sorted(set(alone)) == [False, True]
        # the -0.0 copy is keyed apart from its 0.0 block, with the same verdict
        assert cells_of(repeated[-2:-1]).tobytes() != cells_of(repeated[-1:]).tobytes()
        assert alone[-2] == alone[-1]

    def test_failed_blocks_stay_out_of_the_table(self):
        # 1e300 W overflows the drive amplitude: its block cannot be gated, so
        # the stacked call over both rows' blocks raises; the row that passes
        # alone gets its block's own verdict
        params = make_params(power=0.075)
        rows = [gate_columns(params, [(0.5, 0.5)], [0.5]),
                gate_columns(dataclasses.replace(params, drive_power=1e300), [(0.5, 0.5)], [0.5])]
        columns = [np.concatenate(c) for c in zip(*rows)]
        gate = gate_branches(params, *columns, "positive")
        assert gate.errors[0] is None and str(gate.errors[1]).startswith("eigenvalue solver failed")
        blocks = collective_drifts(column_drifts(params, *columns, "positive"), "positive")
        with pytest.raises(HopcavError, match="eigenvalue solver failed"):
            stability._collective_verdicts(params, cells_of(blocks))
        want = hurwitz_gate(blocks[:1])[0].tolist()
        assert stability._collective_verdicts(params, cells_of(blocks[:1])) == want


# finite axis values in rad/s, of both signs and of tiny and huge magnitudes
RAD_S_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1e300, 1.7976931348623157e308,
                     WM, -0.5 * WM]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestColumns:
    """A map is evaluated as columns; its amplitudes are the closed form's,
    factored by axis, and its reports are those of its points."""

    @settings(max_examples=200, deadline=None)
    @given(langs=st.lists(RAD_S_VALUES, min_size=1, max_size=5),
           hops=st.lists(RAD_S_VALUES, min_size=1, max_size=5), power=st.floats(0.0, 0.1))
    def test_factored_amplitudes_are_the_closed_form(self, langs, hops, power):
        params = make_params(power=power)
        e1, e2 = drive_amps(params)
        got = stability._grid_amps(params.cavity_decay[0], e1, e2, langs, hops)
        want = [steady_state._closed_form_amps(params.cavity_decay, hop, e1, e2, lang, lang)[:2]
                for lang in langs for hop in hops]

        def bits(z):
            return z.real.hex(), z.imag.hex()

        assert [bits(z) for z in got] == [bits(a1) for a1, _ in want]
        # identical cavities: a_2 is a_1, bit for bit
        assert [bits(a2) for _, a2 in want] == [bits(a1) for a1, _ in want]

    @settings(max_examples=25, deadline=None)
    @given(deltas=st.lists(st.one_of(st.just(-0.0), st.floats(-3.0, 3.0)), min_size=1,
                           max_size=5),
           xis=st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 3.0)), min_size=1, max_size=5),
           power=st.floats(0.010, 0.080), detuning_sign=st.sampled_from(DETUNING_SIGNS))
    def test_map_is_its_points(self, deltas, xis, power, detuning_sign):
        params = make_params(power=power)
        columns = stability.map_columns(params, deltas, xis, detuning_sign)
        reports = stability_map(params, deltas, xis, detuning_sign)
        assert reports == columns.reports() == points_of(params, deltas, xis, detuning_sign)
        assert [r.xi for r in reports] == xis * len(deltas)


class TestClosedFormGate:
    """A sweep's gate decides an exchange-symmetric row from the signs of s1
    and s2 at delta + xi and at delta - xi, and takes the eigenvalues of its
    8x8 drift where a scalar lies within the band of 0."""

    @settings(max_examples=150, deadline=None)
    @given(**BOUNDARY_ROWS)
    def test_signs_give_the_eigenvalue_verdicts_at_the_boundaries(self, detuning_sign, damping,
                                                                  xi, boundary, half):
        params, drifts, a = boundary_row(detuning_sign, damping, xi, boundary, half)
        s = 1.0 if detuning_sign == "positive" else -1.0
        shift = -xi if half == 0 else xi
        root = abs(s * (a - shift))
        deltas = [a, *(math.nextafter(a, sgn * math.inf) for sgn in (-1, 1)),
                  *(math.nextafter(math.nextafter(a, sgn * math.inf), sgn * math.inf)
                    for sgn in (-1, 1)),
                  a - 0.05 * root, a + 0.05 * root]
        columns = np.full((7, 2), 2.0 * WM), -np.outer(deltas, (WM, WM)), np.full(7, xi * WM)
        with mock.patch.object(stability, "hurwitz_gate", wraps=hurwitz_gate) as spy:
            gate = gate_branches(params, *columns, detuning_sign)
        rows = column_drifts(params, *columns, detuning_sign)
        assert np.array_equal(rows, drifts(deltas))
        # the five rows at the boundary lie within the band and take the
        # eigenvalues of their 8x8 drifts; of the two rows 5% of d' away, at
        # least one is decided by the signs (the other block may sit near a
        # root)
        assert spy.call_count == 1
        routed = spy.call_args.args[0]
        assert np.array_equal(routed[:5], rows[:5])
        decided = [j for j in (5, 6)
                   if not any(np.array_equal(rows[j], r) for r in routed[5:])]
        assert decided
        # every row has the verdict of hurwitz_gate on its 8x8 drift, and a
        # row decided by the signs has, at delta + xi, that of hurwitz_gate on
        # its collective block
        assert gate.verdicts == hurwitz_gate(rows)[0].tolist()
        assert list(zip(gate.s1, gate.s2)) == [tuple(float(x) for x in routh_hurwitz_reduced(
            WM, params.mech_damping[0], params.cavity_decay[0], 2.0 * WM, s * (d * WM + xi * WM)))
            for d in deltas]
        full = hurwitz_gate(rows)[0]
        block = hurwitz_gate(collective_drifts(rows, detuning_sign))[0]
        for j in decided:
            assert (gate.verdicts[j], gate.s1[j] > 0.0 and gate.s2[j] > 0.0) == (full[j], block[j])

    def test_no_preset_row_falls_in_the_band(self):
        # the signs decide every row of every figure preset's grid
        with mock.patch.object(stability, "hurwitz_gate", wraps=hurwitz_gate) as spy:
            for name in PRESET_NAMES:
                assert run_sweep(fig_preset(name)).records
        assert spy.call_count == 0


def bits(column):
    """The cells of a gate column as texts: floats by their bits (NaN
    included), errors by their messages."""
    return [x.hex() if isinstance(x, float) else x if x is None or isinstance(x, bool)
            else str(x) for x in column]


# one gate row: its kind, G_1, delta_1 (figure convention) and xi in omega_m
# units, and the offsets of G_2 and delta_2 in an asymmetric row
GATE_ROWS = st.tuples(st.sampled_from(("symmetric", "asymmetric", "nan", "overflow")),
                      st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 2.5),
                      st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# a per-cavity rate made unequal, by a factor on the second cavity's
UNEQUAL_RATES = st.sampled_from((None, ("mech_freq", 1.1), ("mech_damping", 0.5),
                                 ("cavity_decay", 0.5)))


class TestColumnGate:
    """The gate reads exchange symmetry, the band and the scalars from the
    working point's columns; its verdicts are those of the eigenvalues of the
    8x8 drifts that the columns assemble."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(GATE_ROWS, min_size=1, max_size=6), unequal=UNEQUAL_RATES,
           boundary=st.one_of(st.none(), st.fixed_dictionaries(
               {k: v for k, v in BOUNDARY_ROWS.items() if k != "detuning_sign"})),
           detuning_sign=st.sampled_from(DETUNING_SIGNS), narrow=st.booleans())
    def test_gate_from_columns_is_the_drifts_gate(self, rows, unequal, boundary, detuning_sign,
                                                  narrow):
        params = make_params()
        if boundary is not None:
            # five rows bisected onto a block's boundary, and 1 and 2 ulp
            # either side: their scalars lie within the band
            params, _, a = boundary_row(detuning_sign, **boundary)
            rows = [*rows, *(("symmetric", 2.0, a + k * math.ulp(a), boundary["xi"], 0.0, 0.0)
                             for k in range(-2, 3))]
        if unequal is not None:
            name, factor = unequal
            rate = getattr(params, name)[0]
            params = dataclasses.replace(params, **{name: (rate, factor * rate)})
        coupling, delta = [], []
        for kind, g, d, _, dg, dd in rows:
            if kind == "nan":
                g = math.nan
            elif kind == "overflow":
                # squares past the largest float: the norm and the scalars overflow
                g = 1e200
            coupling.append((g, abs(g + dg) if kind == "asymmetric" else g))
            delta.append((d, d + dd if kind == "asymmetric" else d))
        coupling = np.array(coupling) * WM
        # the gate's detunings are the Langevin ones, the figure's negated
        detuning = -np.array(delta) * WM
        hops = np.array([row[3] for row in rows]) * WM
        paired = (coupling[:, 0] == coupling[:, 1]) | np.isnan(coupling).all(1)
        if narrow and paired.all() and (detuning[:, 0] == detuning[:, 1]).all():
            # columns of one value per equal pair, as the map passes them
            coupling, detuning = coupling[:, :1], detuning[:, :1]
        drifts = column_drifts(params, coupling, detuning, hops, detuning_sign)
        gate = gate_branches(params, coupling, detuning, hops, detuning_sign)

        equal_rates = all(r[0] == r[1] for r in (params.mech_freq, params.mech_damping,
                                                 params.cavity_decay))
        omega_m, gamma_m, kappa = (params.mech_freq[0], params.mech_damping[0],
                                   params.cavity_decay[0])
        for j in range(len(rows)):
            # each row's verdict is hurwitz_gate's on its own drift
            try:
                want, error = bool(hurwitz_gate(drifts[j:j + 1])[0][0]), None
            except HopcavError as exc:
                want, error = False, str(exc)
            assert gate.verdicts[j] is want
            assert (None if gate.errors[j] is None else str(gate.errors[j])) == error
            # the scalars exactly where the drift is exchange-symmetric
            symmetric = (equal_rates and coupling[j, 0] == coupling[j, -1]
                         and detuning[j, 0] == detuning[j, -1] and error is None)
            if not symmetric:
                assert (gate.s1[j], gate.s2[j]) == (None, None)
                continue
            modified = (hops[j] - detuning[j, 0] if detuning_sign == "positive"
                        else detuning[j, 0] - hops[j])
            with np.errstate(over="ignore", invalid="ignore"):
                cavity, pulled, damped, pushed = stability._routh_hurwitz_terms(
                    omega_m, gamma_m, kappa, coupling[j, 0], modified)
                pair = float(cavity - pulled), float(damped + pushed)
            assert bits([gate.s1[j], gate.s2[j]]) == bits(pair)

        # the norms behind the band are the drifts' norms, to rounding
        with np.errstate(over="ignore", invalid="ignore"):
            rate_squares = drift_rates(params.mech_freq, params.mech_damping,
                                       params.cavity_decay)[0]
            norms = drift_norms(rate_squares, coupling, detuning, hops)
            want = lyapunov._frobenius_norms(drifts)
            close = np.abs(norms - want) <= 1e-15 * want
        same = (norms == want) | (np.isnan(norms) & np.isnan(want))
        assert np.all(same | close)


class TestGateAssembly:
    """The map assembles no 8x8 drift and no block per row; a sweep assembles
    each chunk's drifts once, and its gate only the drifts of the rows it
    routes to the eigenvalues."""

    @staticmethod
    def fig5_axes():
        config = fig_preset("fig5")
        axes = {a.name: a.values for a in config.axes}
        return config.params, axes["delta"], axes["xi"]

    def test_map_assembles_no_drift_and_each_distinct_block_once(self, monkeypatch):
        params, deltas, xis = self.fig5_axes()
        d, x = np.meshgrid(deltas, xis, indexing="ij")
        columns = gate_columns(params, zip(d.flat, d.flat), x.ravel())
        assembled = []

        def refused(*args, **kwargs):
            raise AssertionError("a drift was assembled")

        def recorded(mech_freq, mech_damping, cavity_decay, cells):
            assembled.append(len(cells))
            return collective_stack(mech_freq, mech_damping, cavity_decay, cells)

        for detuning_sign in DETUNING_SIGNS:
            drifts = column_drifts(params, *columns, detuning_sign)
            distinct = len({block.tobytes() for block in collective_drifts(drifts, detuning_sign)})
            with monkeypatch.context() as patch:
                patch.setattr(stability, "drift_stack", refused)
                patch.setattr(stability, "collective_stack", recorded)
                assembled.clear()
                columns_of_map = stability.map_columns(params, deltas, xis, detuning_sign)
            assert len(columns_of_map.s1) == 101 * 101
            assert assembled == [distinct] and distinct < 101 * 101 / 8

    @pytest.mark.parametrize("detuning_sign", DETUNING_SIGNS)
    def test_table_verdicts_are_each_rows_block_gate(self, detuning_sign):
        # every row's collective verdict is hurwitz_gate's on its own
        # collective_drifts block, which the block assembled from its cells is,
        # bit for bit
        params, deltas, xis = self.fig5_axes()
        d, x = np.meshgrid(deltas, xis, indexing="ij")
        coupling, detuning, hops = gate_columns(params, zip(d.flat, d.flat), x.ravel())
        blocks = collective_drifts(column_drifts(params, coupling, detuning, hops, detuning_sign),
                                   detuning_sign)
        cells = collective_cells(coupling[:, 0], -detuning[:, 0], hops, detuning_sign)
        assert collective_stack(params.mech_freq, params.mech_damping, params.cavity_decay,
                                cells).tobytes() == blocks.tobytes()
        reduced = stability.map_columns(params, deltas, xis, detuning_sign).hurwitz_reduced
        assert reduced == hurwitz_gate(blocks)[0].tolist()
        assert any(reduced)

    @pytest.mark.parametrize("detuning_sign", DETUNING_SIGNS)
    def test_point_is_its_row_of_the_full_map(self, detuning_sign):
        params, deltas, xis = self.fig5_axes()
        reports = stability_map(params, deltas, xis, detuning_sign)
        rows = np.random.default_rng(9).choice(len(reports), 150, replace=False)
        for k in sorted({0, len(reports) - 1, *rows.tolist()}):
            delta, xi = deltas[k // len(xis)], xis[k % len(xis)]
            assert stability_point(params, delta, xi, detuning_sign) == reports[k]

    def test_sweep_assembles_each_chunks_drifts_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            drifts = drift_stack(*args, **kwargs)
            calls.append(len(drifts))
            return drifts

        monkeypatch.setattr(engine, "drift_stack", counted)
        monkeypatch.setattr(stability, "drift_stack", counted)
        grid = np.linspace(0.0, 2.0, 21)
        config = dataclasses.replace(fig_preset("fig6b"),
                                     axes=(AxisSpec("delta", grid), AxisSpec("xi", grid)))
        assert len(run_sweep(config).records) == 441 > CHUNK_POINTS
        assert calls == [CHUNK_POINTS, 441 - CHUNK_POINTS]
        # a point in the band, whose gate takes the eigenvalues of its 8x8
        # drift: the batch's one call, whose drift the point returns, then
        # the gate's own call for the row it routes
        params, drifts, a = boundary_row("positive", -3.0, 0.5, "s1", 1, power=0.075)
        config = SweepConfig(dataclasses.replace(params, hop_strength=0.5 * WM))
        calls.clear()
        with mock.patch.object(stability, "hurwitz_gate", wraps=hurwitz_gate) as spy:
            point = run_point(config, {"delta": a})
        assert calls == [1, 1] and [c.args[0].shape for c in spy.call_args_list] == [(1, 8, 8)]
        assert np.array_equal(point.drifts[0], drifts([a])[0])
