import dataclasses
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from hopcav import engine, lyapunov, steady_state
from hopcav.cli import main
from hopcav.engine import AxisSpec, csv_text, run_point, run_sweep
from hopcav.params import Detuning, PhysicalParams, derive_coupling, drive_amps
from hopcav.presets import fig_preset
from hopcav.steady_state import (
    effective_coupling,
    fixed_detuning_points,
    self_consistent_points,
    solve_fixed_detuning,
    solve_self_consistent,
)

REPO = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7


def make_params(power=0.05, xi=0.0, mode="effective", delta=0.0, **overrides):
    base = dict(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi,
        detuning=Detuning(mode, (delta, delta)),
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestWorkingPointColumns:
    """The batch's columns equal, entry for entry, the per-point closed form
    and the working point it assembles."""

    def batch(self, rng, count):
        kappa = (TWO_PI * 14e6, TWO_PI * 9e6)
        coupling = (310.0, 290.0)
        drives = [tuple(rng.uniform(0.0, 3e11, 2)) for _ in range(count)]
        hops = list(rng.uniform(0.0, 2.0, count) * WM)
        detunings = [tuple(rng.uniform(-4.0, 4.0, 2) * WM) for _ in range(count)]
        return kappa, coupling, drives, hops, detunings

    def test_columns_equal_the_per_point_closed_form(self):
        rng = np.random.default_rng(31)
        kappa, coupling, drives, hops, detunings = self.batch(rng, 400)
        points = steady_state.fixed_detuning_points(kappa, (WM, WM), coupling, drives, hops,
                                                    detunings)
        larger_imaginary = 0
        for k, (e, xi, (d1, d2)) in enumerate(zip(drives, hops, detunings)):
            amp1, amp2, a1, a2 = steady_state._closed_form_amps(kappa, xi, e[0], e[1], d1, d2)
            denom = a1 * a2 + xi * xi
            larger_imaginary += abs(denom.imag) > abs(denom.real)
            want = steady_state._assemble((WM, WM), xi, coupling, e, amp1, amp2, d1, d2, a1, a2)
            assert points.amp[k].tolist() == [amp1, amp2]
            assert points.amp_abs[k].tolist() == [abs(amp1), abs(amp2)]
            assert points.eff_coupling[k].tolist() == list(want.eff_coupling)
            assert points.eff_detuning[k].tolist() == [d1, d2]
            assert points.steady(k) == want
        # both branches of the complex quotient are taken
        assert 0 < larger_imaginary < len(drives)


class TestFixedDetuning:
    def test_symmetric_closed_form_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            kap = rng.uniform(1e6, 5e8)
            xi = rng.uniform(0.0, 3e8)
            delta = rng.uniform(-3e8, 3e8)
            p = make_params(cavity_decay=kap, xi=xi)
            ss = solve_fixed_detuning(p, delta, delta)
            e = drive_amps(p)[0]
            expected = e / complex(kap, delta - xi)
            assert abs(ss.amp[0] - expected) <= 1e-12 * abs(expected)
            assert abs(ss.amp[1] - expected) <= 1e-12 * abs(expected)

    def test_uncoupled_single_cavity_formula(self):
        p = make_params(xi=0.0, drive_power=(0.05, 0.02))
        d1, d2 = 0.7 * WM, -0.3 * WM
        ss = solve_fixed_detuning(p, d1, d2)
        e = drive_amps(p)
        assert ss.amp[0] == pytest.approx(e[0] / complex(p.cavity_decay[0], d1), rel=1e-13)
        assert ss.amp[1] == pytest.approx(e[1] / complex(p.cavity_decay[1], d2), rel=1e-13)

    def test_large_amplitude_regime(self):
        # 35 mW drive with detuning = hopping = omega_m puts the amplitude
        # in the strongly classical regime
        p = make_params(power=0.035, xi=WM)
        ss = solve_fixed_detuning(p, WM, WM)
        assert 1e4 <= abs(ss.amp[0]) <= 1e5
        assert 1e4 <= abs(ss.amp[1]) <= 1e5

    def test_residual_and_displacement_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = make_params(power=rng.uniform(0.0, 0.1), xi=rng.uniform(0, 2 * WM))
            d = rng.uniform(-2 * WM, 2 * WM)
            ss = solve_fixed_detuning(p, d, d)
            assert ss.residual < 1e-10
            assert ss.momentum == (0.0, 0.0)
            g = derive_coupling(p, 1)
            q_expected = g * abs(ss.amp[0]) ** 2 / WM
            assert ss.displacement[0] == pytest.approx(q_expected, rel=1e-10, abs=1e-300)

    def test_monotone_in_power(self):
        powers = np.linspace(0.001, 0.1, 15)
        amps = [
            abs(solve_fixed_detuning(make_params(power=float(pw)), 0.5 * WM, 0.5 * WM).amp[0])
            for pw in powers
        ]
        assert all(b > a for a, b in zip(amps, amps[1:]))

    def test_detuning_echoed(self):
        ss = solve_fixed_detuning(make_params(), 0.25 * WM, -0.5 * WM)
        assert ss.eff_detuning == (0.25 * WM, -0.5 * WM)

    def test_denominator_never_degenerates_for_positive_decay(self):
        # |alpha1*alpha2 + xi^2| >= kappa1*kappa2 whenever both decay rates are
        # positive, so the closed form is well posed on the whole physical
        # parameter range
        rng = np.random.default_rng(33)
        for _ in range(200):
            k1, k2 = rng.uniform(1e5, 1e9, 2)
            d1, d2 = rng.uniform(-1e9, 1e9, 2)
            xi = rng.uniform(0.0, 1e9)
            denom = complex(k1, d1) * complex(k2, d2) + xi * xi
            assert abs(denom) >= k1 * k2 * (1.0 - 1e-12)


class TestEffectiveCoupling:
    def test_zero_amplitude(self):
        assert effective_coupling(1347.0, 0j) == 0.0

    def test_reference_product(self):
        g = effective_coupling(1.35e3, 2.5e4 + 0j)
        assert g == pytest.approx(math.sqrt(2) * 1.35e3 * 2.5e4, rel=1e-14)
        assert g == pytest.approx(4.77297e7, rel=1e-5)
        assert g / WM == pytest.approx(0.7596, rel=1e-3)

    def test_phase_invariance(self):
        amp = 1.3e4 - 0.4e4j
        for theta in (0.3, 1.2, 2.9):
            rotated = amp * complex(math.cos(theta), math.sin(theta))
            assert effective_coupling(1347.0, rotated) == pytest.approx(
                effective_coupling(1347.0, amp), rel=1e-14
            )


def scalar_branch_oracle(p, delta0):
    """Brute-force roots of the symmetric photon-number equation
    u (kappa^2 + (delta0 - b u - xi)^2) = E^2 on a dense grid."""
    e = drive_amps(p)[0]
    g = derive_coupling(p, 1)
    kap = p.cavity_decay[0]
    xi = p.hop_strength
    b = g * g / p.mech_freq[0]

    def h(u):
        dd = delta0 - b * u - xi
        return u * (kap * kap + dd * dd) - e * e

    grid = np.linspace(0.0, 1.1 * (e / kap) ** 2 + 1.0, 20001)
    vals = np.array([h(u) for u in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(optimize.brentq(h, grid[i], grid[i + 1], rtol=1e-14))
    return sorted(roots)


def branches_at(params, coupling, delta01, delta02):
    """The branches of one bare-detuning point at the couplings ``coupling``
    in place of the derived ones: a batch of one of self_consistent_points."""
    points = self_consistent_points(params.cavity_decay, params.mech_freq, coupling,
                                    [drive_amps(params)], [params.hop_strength],
                                    [(delta01, delta02)])
    assert not points.errors
    return [points.steady(i) for i in range(len(points.owner))]


class TestSelfConsistent:
    def test_zero_coupling_reduces_to_fixed_detuning(self):
        p = make_params(power=0.05, xi=0.4 * WM)
        d0 = 0.8 * WM
        branches = branches_at(p, (0.0, 0.0), d0, d0)
        assert len(branches) == 1
        fixed = solve_fixed_detuning(p, d0, d0)
        assert branches[0].amp[0] == pytest.approx(fixed.amp[0], rel=1e-10)
        assert branches[0].eff_detuning == (d0, d0)

    def test_undriven_gives_zero_branch(self):
        branches = solve_self_consistent(make_params(power=0.0), 0.5 * WM, 0.5 * WM)
        assert len(branches) == 1
        assert branches[0].amp == (0j, 0j)
        assert branches[0].displacement == (0.0, 0.0)

    def test_branch_counts_match_scalar_scan(self):
        # at 50 mW the static phase shift tops out below the fold threshold,
        # so this window is single-valued; counts must still match the scan
        p = make_params(power=0.05)
        counts = []
        for delta0 in np.linspace(0.0, 2.0 * WM, 21):
            branches = solve_self_consistent(p, float(delta0), float(delta0))
            oracle = scalar_branch_oracle(p, float(delta0))
            assert len(branches) == len(oracle), f"delta0={delta0/WM}"
            for ss, u in zip(branches, oracle):
                assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
            counts.append(len(branches))
        assert set(counts) <= {1, 3}

    def test_bistable_window_matches_scalar_scan(self):
        # 100 mW drive folds the response around bare detunings of 3.5-4.3
        # mechanical frequencies; at xi = 0 the cavities are two uncoupled
        # copies, so 3 branches each make 9 fixed points
        p = make_params(power=0.1)
        counts = []
        for delta0 in np.linspace(3.5 * WM, 4.3 * WM, 9):
            branches = solve_self_consistent(p, float(delta0), float(delta0))
            oracle = scalar_branch_oracle(p, float(delta0))
            assert len(branches) == len(oracle) ** 2, f"delta0={delta0/WM}"
            equal = [ss for ss in branches if ss.amp[0] == ss.amp[1]]
            assert len(equal) == len(oracle)
            for ss, u in zip(equal, oracle):
                assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
            counts.append(len(branches))
        assert 9 in counts
        assert set(counts) <= {1, 9}

    def test_branch_residuals_and_consistency(self):
        p = make_params(power=0.05)
        for delta0 in (0.3 * WM, 1.1 * WM, 1.9 * WM):
            for ss in solve_self_consistent(p, delta0, delta0):
                assert ss.residual < 1e-10
                g = derive_coupling(p, 1)
                shift = g * g * abs(ss.amp[0]) ** 2 / WM
                assert ss.eff_detuning[0] == pytest.approx(delta0 - shift, rel=1e-9, abs=1e-6)

    def test_branches_sorted_by_amplitude(self):
        p = make_params(power=0.05)
        branches = solve_self_consistent(p, 1.2 * WM, 1.2 * WM)
        amps = [abs(b.amp[0]) for b in branches]
        assert amps == sorted(amps)
        assert [b.branch for b in branches] == list(range(len(branches)))

    def test_asymmetric_drive_route(self):
        p = make_params(power=(0.02, 0.05), xi=0.3 * WM)
        branches = solve_self_consistent(p, 0.6 * WM, 0.9 * WM)
        assert branches
        for ss in branches:
            assert ss.residual < 1e-10


class TestRoutes:
    """Symmetric inputs take only the scalar route (the cubic and the
    quartic); every other input takes only the resultant."""

    @pytest.fixture
    def routes(self, monkeypatch):
        calls = []
        for name in ("_symmetric_candidates", "_general_candidates"):
            def counted(*args, _name=name, _route=getattr(steady_state, name)):
                calls.append(_name)
                return _route(*args)
            monkeypatch.setattr(steady_state, name, counted)
        return calls

    def test_symmetric_inputs_use_the_scalar_route(self, routes):
        p = make_params(power=0.1)
        for delta0 in np.linspace(3.5 * WM, 4.3 * WM, 9):
            routes.clear()
            solve_self_consistent(p, float(delta0), float(delta0))
            assert routes == ["_symmetric_candidates"]

    def test_asymmetric_input_uses_the_resultant(self, routes):
        p = make_params(power=(0.02, 0.05), xi=0.3 * WM)
        solve_self_consistent(p, 0.6 * WM, 0.9 * WM)
        assert routes == ["_general_candidates"]

    def test_no_near_duplicate_branch_near_a_pitchfork(self):
        # symmetry-breaking branches split off within 1% of the middle
        # branch here; a refinement that stops 2e-8 off that branch with a
        # residual under the tolerance must not add a further branch
        p = make_params(power=0.22173034565638772, xi=0.7702247659467343 * WM)
        delta0 = 5.5283269487508475 * WM
        branches = solve_self_consistent(p, delta0, delta0)
        assert len(branches) == 7
        equal = [ss for ss in branches if ss.amp[0] == ss.amp[1]]
        oracle = scalar_branch_oracle(p, delta0)
        assert len(equal) == len(oracle) == 3
        for ss, u in zip(equal, oracle):
            assert abs(ss.amp[0]) ** 2 == pytest.approx(u, rel=1e-6)
        assert_distinct_sorted(branches)


    def test_kept_duplicate_does_not_depend_on_candidate_order(self, monkeypatch):
        # every candidate comes twice, once 1e-6 off, and the polish stops after
        # one step, so that the copies land on different bits of one fixed point:
        # the one with the least residual is kept, in either candidate order
        monkeypatch.setattr(steady_state, "NEWTON_STEPS", 1)
        candidates = steady_state._candidates

        def branches(reverse):
            def doubled(problems):
                # the candidate table of a batch of one, every row of it the point's
                row, u1, u2 = (column.repeat(2) for column in candidates(problems))
                u1[1::2] *= 1 + 1e-6
                u2[1::2] *= 1 + 1e-6
                return (row, u1[::-1], u2[::-1]) if reverse else (row, u1, u2)

            monkeypatch.setattr(steady_state, "_candidates", doubled)
            return [solve_self_consistent(make_params(power=power, xi=xi * WM), d1 * WM, d2 * WM)
                    for power, xi, d1, d2 in [
                        ((0.1, 0.12), 0.2, 3.9, 4.0), ((0.12, 0.1), 0.2, 4.0, 3.9),
                        (0.3, 0.5, 6.0, 6.0),
                        (0.22173034565638772, 0.7702247659467343, 5.5283269487508475,
                         5.5283269487508475)]]

        forward = branches(reverse=False)
        assert [len(found) for found in forward] == [7, 7, 9, 7]
        assert branches(reverse=True) == forward


# the cavities of make_params, which every row of a batch shares
CAVITIES = (make_params().cavity_decay, make_params().mech_freq,
            tuple(derive_coupling(make_params(), j) for j in (1, 2)))


@st.composite
def chunk_rows(draw):
    """(kind, drive powers, xi / omega_m, Langevin detunings / omega_m) of one
    row of a bare-mode batch."""
    kind = draw(st.sampled_from(["symmetric", "drives", "detunings", "undriven", "bistable",
                                 "raises"]))
    power, xi, delta = draw(st.floats(0.001, 0.4)), draw(st.floats(0.0, 1.5)), draw(
        st.floats(-2.0, 9.0))
    powers, deltas = (power, power), (delta, delta)
    if kind == "drives":
        powers = (power, power * draw(st.floats(0.2, 2.0)))
    elif kind == "detunings":
        deltas = (delta, delta + draw(st.floats(-1.5, 1.5)))
    elif kind == "undriven":
        powers = (0.0, 0.0)
    elif kind == "bistable":
        # 100-150 mW with little hopping folds the response over these detunings
        powers, xi = (draw(st.floats(0.1, 0.15)),) * 2, draw(st.floats(0.0, 0.1))
        deltas = (draw(st.floats(3.6, 4.2)),) * 2
    return kind, powers, xi, deltas


def batch_columns(rows):
    """The arguments of a batch of ``chunk_rows``."""
    drives = [drive_amps(make_params(power=powers)) for _, powers, _, _ in rows]
    return (*CAVITIES, drives, [xi * WM for _, _, xi, _ in rows],
            [(d1 * WM, d2 * WM) for _, _, _, (d1, d2) in rows])


def point_columns(points, point):
    """Every column of one point's branches, as bytes, and their working points."""
    rows = (points.owner == point).nonzero()[0]
    return ([getattr(points, name)[rows].tobytes() for name in (
        "amp", "amp_abs", "eff_coupling", "eff_detuning", "hop_strength", "branch")],
            [points.drives[i] for i in rows], [points.steady(i) for i in rows])


class TestChunks:
    """A bare-mode batch: each point's columns are its batch of one."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(chunk_rows(), min_size=1, max_size=8))
    @example(rows=[("symmetric", (0.1, 0.1), 0.0, (3.9, 3.9)), ("undriven", (0.0, 0.0), 0.5, (1.0, 1.0)),
                   ("raises", (0.2, 0.2), 0.3, (2.0, 2.0)), ("drives", (0.1, 0.12), 0.2, (3.9, 4.0)),
                   ("detunings", (0.3, 0.3), 0.5, (6.0, 6.2)), ("bistable", (0.12, 0.12), 0.05,
                                                               (3.9, 3.9))])
    def test_points_do_not_depend_on_their_batch(self, rows):
        # a row that raises is one whose polish is broken: it lands 1e-3 off,
        # whether its candidates are polished one by one or as columns
        broken = {drive_amps(make_params(power=powers))
                  for kind, powers, _, _ in rows if kind == "raises"}
        polish, polish_columns = steady_state._polish, steady_state._polish_columns

        def polished(u1, u2, kappa, delta0, b, e, xi):
            if tuple(e) in broken:
                return u1 * 1.001, u2 * 1.001
            return polish(u1, u2, kappa, delta0, b, e, xi)

        def polished_columns(u1, u2, kappa, delta0, b, e, xi):
            off = np.array([pair in broken for pair in zip(*(column.tolist() for column in e))],
                           dtype=bool)
            v1, v2 = polish_columns(u1, u2, kappa, delta0, b, e, xi)
            return np.where(off, u1 * 1.001, v1), np.where(off, u2 * 1.001, v2)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steady_state, "_polish", polished)
            patch.setattr(steady_state, "_polish_columns", polished_columns)
            batch = self_consistent_points(*batch_columns(rows))
            alone = [self_consistent_points(*batch_columns([row])) for row in rows]
        assert list(batch.owner) == sorted(batch.owner)
        for k, (row, single) in enumerate(zip(rows, alone)):
            assert point_columns(batch, k) == point_columns(single, 0), row
            assert ([str(batch.errors[k])] if k in batch.errors else []) == [
                str(e) for e in single.errors.values()], row
            if row[0] == "raises":
                assert str(batch.errors[k]).startswith("no self-consistent steady state")

    def test_symmetric_rows_take_one_eigenvalue_call(self, monkeypatch):
        calls = []
        eigvals = lyapunov._eigvals
        monkeypatch.setattr(lyapunov, "_eigvals",
                            lambda a, **kwargs: calls.append(np.shape(a)) or eigvals(a, **kwargs))
        rows = [("symmetric", (0.1, 0.1), 0.0, (d, d)) for d in np.linspace(3.5, 4.3, 9)]
        rows.insert(4, ("undriven", (0.0, 0.0), 0.5, (1.0, 1.0)))
        points = self_consistent_points(*batch_columns(rows))
        assert calls == [(9, 2, 4, 4)]
        assert len(points.owner) > len(rows)   # the bistable rows give several branches


def same(got, want) -> bool:
    """Equal values with equal signs, or both NaN; == and not bytes, since an
    x87 longdouble carries padding bytes that differ between equal values."""
    if np.isnan(want):
        return bool(np.isnan(got))
    return bool(got == want and np.signbit(got) == np.signbit(want))


SPECIAL = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300]


def scaled(low, high):
    """A float of a scaled photon-number problem, or now and then a special one."""
    return st.one_of(st.floats(low, high), st.sampled_from(SPECIAL))


@st.composite
def polish_tables(draw):
    """(kappa, shift per photon, rows of (u1, u2, delta0_1, delta0_2, E_1, E_2, xi))
    in scaled units: starts that converge, that take every NEWTON_STEPS, that are
    not finite, and at kappa = b = 0 with delta0_1 delta0_2 = xi^2, det == 0."""
    kappa = draw(st.sampled_from([(0.0, 0.0), (1.0, 1.0)]) | st.tuples(
        st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
    b = draw(st.sampled_from([(0.0, 0.0), (1.0, 1.0)]) | st.tuples(
        st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
    rows = draw(st.lists(st.tuples(scaled(-5.0, 20.0), scaled(-5.0, 20.0), scaled(-3.0, 6.0),
                                   scaled(-3.0, 6.0), scaled(0.0, 3.0), scaled(0.0, 3.0),
                                   scaled(0.0, 2.0)), min_size=1, max_size=40))
    singular = draw(st.lists(st.floats(0.0, 2.0), max_size=3))
    return kappa, b, rows + [(1.0, 2.0, xi, xi, 0.5, 0.5, xi) for xi in singular]


def scalar_tested(kappa, mech, g, e, xi, delta0, u1, u2):
    """``_tested`` with an unbounded cap: its result, or the error it raises."""
    problem = (None,) * 6 + (math.inf, 1.0)
    try:
        return steady_state._tested(kappa, mech, g, problem, e, xi, delta0, u1, u2)
    except ArithmeticError as exc:
        return exc


class TestColumnStages:
    """The columnar polish and candidate test against the per-candidate code they
    replace, value for value."""

    @settings(max_examples=80, deadline=None)
    @given(table=polish_tables())
    @example(table=((0.0, 0.0), (0.0, 0.0), [(1.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5)]))
    @example(table=((1.29, 0.58), (0.42, 1.25), [(12.65, 6.28, 4.98, 4.94, 1.49, 0.56, 1.10),
                                                 (math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)]))
    def test_polish_columns_is_the_scalar_polish(self, table):
        kappa, b, rows = table
        ext = np.longdouble
        precise = (ext(kappa[0]), ext(kappa[1]))
        u1, u2, c1, c2, e1, e2, xi = (np.array(column) for column in zip(*rows))
        got = steady_state._polish_columns(u1.astype(ext), u2.astype(ext), precise, (c1, c2), b,
                                           (e1, e2), xi.astype(ext))
        for k, row in enumerate(rows):
            with np.errstate(all="ignore"):
                want = steady_state._polish(ext(row[0]), ext(row[1]), precise, row[2:4], b,
                                            row[4:6], ext(row[6]))
            assert same(got[0][k], want[0]) and same(got[1][k], want[1]), row

    def test_polish_tables_reach_every_stop(self):
        # det == 0 leaves the start; a start far from a root takes every step
        ext = np.longdouble
        zero = (ext(0.0), ext(0.0))
        assert steady_state._polish(ext(1.0), ext(2.0), zero, (0.5, 0.5), (0.0, 0.0),
                                    (0.5, 0.5), ext(0.5)) == (1.0, 2.0)
        args = ((ext(1.29), ext(0.58)), (4.98, 4.94), (0.42, 1.25), (1.49, 0.56), ext(1.1))
        start = (ext(12.65), ext(6.28))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steady_state, "NEWTON_STEPS", steady_state.NEWTON_STEPS - 1)
            early = steady_state._polish(*start, *args)
        assert early != steady_state._polish(*start, *args)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(0.0, 3.0) | st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e308, 1e160]),
        st.floats(0.0, 3.0) | st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e308, 1e160]),
        st.floats(0.0, 2e12) | st.sampled_from([0.0, -0.0, 5e-324, 1e160]),
        st.floats(0.0, 2e12) | st.sampled_from([0.0, -0.0, 5e-324, 1e160]),
        st.floats(0.0, 2.0).map(lambda xi: xi * WM) | st.sampled_from([0.0, -0.0, 1e300]),
        st.floats(-3.0, 9.0).map(lambda d: d * WM) | st.sampled_from([0.0, -0.0, 1e300]),
        st.floats(-3.0, 9.0).map(lambda d: d * WM) | st.sampled_from([0.0, -0.0, -1e300])),
        min_size=1, max_size=30))
    # |a_1| ** 2 (the C library's pow) is not |a_1| * |a_1| at delta0 = 0.052 omega_m
    @example(rows=[(0.0, 0.0, 1e12, 1e12, 0.0, 0.052 * WM, 0.052 * WM),
                   (1.0, 1.0, 1e12, 0.0, 0.0, -0.0, 0.0), (0.5, 0.0, 1e160, 1e160, WM, WM, WM)])
    def test_tested_columns_are_the_scalar_test(self, rows):
        # u_j in units of (1e12 / kappa_1)^2
        kappa, mech, g = CAVITIES
        with np.errstate(over="ignore"):
            u1, u2 = (np.array(column) * (1e12 / kappa[0]) ** 2
                      for column in list(zip(*rows))[:2])
        e1, e2, xi, d1, d2 = (np.array(column) for column in list(zip(*rows))[2:])
        with np.errstate(all="ignore"):
            res, amp, detuned, finite = steady_state._tested_columns(
                kappa, mech, g, (e1, e2), xi, (d1, d2), u1, u2)
        for k in range(len(rows)):
            want = scalar_tested(kappa, mech, g, (e1[k].item(), e2[k].item()), xi[k].item(),
                                 (d1[k].item(), d2[k].item()), u1[k].item(), u2[k].item())
            if want is None:   # below the bound, where the columns are not asked
                continue
            regular = not isinstance(want, ArithmeticError) and all(
                map(math.isfinite, (want[0], *map(abs, want[1:3]), *want[3:])))
            assert finite[k] == regular, (rows[k], want)
            if regular:
                got = (res[k], *amp[k].view(float), *detuned[k])
                expected = (want[0], want[1].real, want[1].imag, want[2].real, want[2].imag,
                            *want[3:])
                assert all(map(same, got, expected)), (rows[k], got, expected)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(chunk_rows() | st.tuples(
        st.just("huge"), st.sampled_from([(1e180, 1e180), (1e200, 1e200), (1e159, 1e159)]),
        st.floats(0.0, 1.5), st.sampled_from([(0.0, 0.0), (1.0, 1.0)])), min_size=1, max_size=6),
        starts=st.lists(st.tuples(scaled(-0.5, 3.0), scaled(-0.5, 3.0)), min_size=1,
                        max_size=60))
    def test_column_branches_are_the_scalar_branches(self, rows, starts):
        # a candidate table of drawn starting photon numbers (in each point's
        # units), polished and tested as columns and one by one
        kappa, mech, g = CAVITIES
        drives, hops, detunings = batch_columns(rows)[3:]
        shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])
        problems = [steady_state._scaled(kappa, g, shift, e, xi, d)
                    for e, xi, d in zip(drives, hops, detunings)]
        posed = [k for k, problem in enumerate(problems) if problem]
        if not posed:
            return
        owner = np.sort(np.resize(posed, len(starts)))
        units = np.array([problems[k][-1] for k in owner])
        ext = np.longdouble
        with np.errstate(all="ignore"):
            start1, start2 = ((np.array(column) * units).astype(ext) for column in zip(*starts))
            args = (kappa, mech, g, shift, drives, hops, detunings, problems, owner, start1,
                    start2)
            want = steady_state._scalar_branches(*args)
        got = steady_state._column_branches(*args)
        assert [point_columns(got, k) for k in range(len(rows))] == [
            point_columns(want, k) for k in range(len(rows))]
        assert {k: str(e) for k, e in got.errors.items()} == {
            k: str(e) for k, e in want.errors.items()}
        assert all(same(got.errors[k].best_residual, e.best_residual)
                   for k, e in want.errors.items())


def fig2a_chunk():
    """The arguments of the first ``self_consistent_points`` batch of a fig2a
    sweep, a chunk of 256 points."""
    chunks, points = [], engine.self_consistent_points

    def recorded(*args, **kwargs):
        chunks.append((args, kwargs))
        return points(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "self_consistent_points", recorded)
        run_sweep(fig_preset("fig2a"))
    args, kwargs = chunks[0]
    return (*args, kwargs["drives"], kwargs["hop_strength"], kwargs["detuning"])


class TestChunkAcrossTheThreshold:
    """A sweep chunk's candidates are polished and tested as columns, a batch
    of one's one by one; each point of a fig2a chunk is its batch of one."""

    def test_fig2a_chunk_is_its_points_alone(self):
        kappa, mech, g, drives, hops, detunings = fig2a_chunk()
        assert len(drives) == lyapunov.CHUNK_POINTS
        params = fig_preset("fig2a").params
        # rows whose drives are too strong for any candidate to converge, one
        # with a finite best residual and one with none
        for k, power in [(10, 1e180), (100, 1e200), (200, 1e180)]:
            drives[k] = drive_amps(dataclasses.replace(params, drive_power=power))
        batch = self_consistent_points(kappa, mech, g, drives, hops, detunings)
        assert set(batch.errors) == {10, 100, 200}
        assert "best residual inf" in str(batch.errors[100])
        assert "best residual inf" not in str(batch.errors[10])
        tables, column_branches = [], steady_state._column_branches
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steady_state, "_column_branches",
                          lambda *args: tables.append(len(args[-1])) or column_branches(*args))
            self_consistent_points(kappa, mech, g, drives, hops, detunings)
            assert tables and tables[0] >= steady_state.COLUMN_CANDIDATES
            for k in range(len(drives)):
                single = self_consistent_points(kappa, mech, g, drives[k:k + 1], hops[k:k + 1],
                                                detunings[k:k + 1])
                assert point_columns(batch, k) == point_columns(single, 0), k
                assert ([str(batch.errors[k])] if k in batch.errors else []) == [
                    str(e) for e in single.errors.values()], k
            assert tables == tables[:1]   # each batch of one was polished candidate by candidate


def fig2a_batch(points):
    """``self_consistent_points`` over (drive amplitudes, Langevin detunings in
    omega_m units) at the cavities and hopping of the fig2a preset."""
    params = fig_preset("fig2a").params
    wm = params.mech_freq[0]
    return self_consistent_points(
        params.cavity_decay, params.mech_freq, tuple(derive_coupling(params, j) for j in (1, 2)),
        [e for e, _ in points], [params.hop_strength] * len(points),
        [(d1 * wm, d2 * wm) for _, (d1, d2) in points])


class TestTinyDrives:
    """A drive so weak that the radiation-pressure shift of every photon number
    in the bound rounds away beside kappa_j + |delta0_j| leaves the detunings
    bare, and the batch's other points are their batches of one."""

    # the fig2a preset's point at bare delta = 1 omega_m (35 mW)
    FIG2A = (drive_amps(fig_preset("fig2a").params), (-1.0, -1.0))

    @pytest.mark.parametrize("drives", [(1e-138, 1e-138), (1e-138, 2e-138), (5e-324, 5e-324)])
    def test_shift_below_rounding_takes_the_closed_form(self, drives):
        tiny = (drives, (-1.0, -1.0))
        batch = fig2a_batch([tiny, self.FIG2A])
        assert batch.errors == {} and list(batch.owner) == [0, 1]
        assert point_columns(batch, 1) == point_columns(fig2a_batch([self.FIG2A]), 0)
        params = fig_preset("fig2a").params
        wm = params.mech_freq[0]
        linear = fixed_detuning_points(
            params.cavity_decay, params.mech_freq, batch.coupling, [drives],
            [params.hop_strength], [(-wm, -wm)])
        assert point_columns(batch, 0)[0] == point_columns(linear, 0)[0]

    @pytest.mark.parametrize("drives", [(1e-28, 1e-28), (1e-138, 1e-138), (1e-138, 2e-138),
                                        (3e-154, 3e-154)])
    def test_zero_bare_detuning_takes_the_closed_form(self, drives):
        # at zero bare detuning the shift rounds away beside kappa, as it does
        # beside a bare detuning of -1 omega_m; the scaled shift per photon
        # underflows there, so the polynomials would degenerate
        batch = fig2a_batch([(drives, (0.0, 0.0)), self.FIG2A])
        assert batch.errors == {} and list(batch.owner) == [0, 1]
        assert point_columns(batch, 1) == point_columns(fig2a_batch([self.FIG2A]), 0)
        params = fig_preset("fig2a").params
        linear = fixed_detuning_points(
            params.cavity_decay, params.mech_freq, batch.coupling, [drives],
            [params.hop_strength], [(0.0, 0.0)])
        assert point_columns(batch, 0)[0] == point_columns(linear, 0)[0]

    def test_sweep_over_a_tiny_power(self, tmp_path):
        # 1e-300 W: drive amplitudes near 1e-137
        config = dataclasses.replace(fig_preset("fig2a"), axes=(
            AxisSpec("delta", (0.0, 1.0)), AxisSpec("power", (1e-300, 0.035))))
        records = run_sweep(config).records
        assert [bool(r.error) for r in records] == [False, False, False, False]
        assert records[0].amp1 < 1e-140 < records[1].amp1
        assert records[2].amp1 < 1e-140 < records[3].amp1
        singles = [rec for r in records
                   for rec in run_point(config, {"delta": r.delta, "power": r.power}).records]
        assert csv_text(singles) == csv_text(records)
        doc = json.loads((REPO / "configs" / "sweep.json").read_text(encoding="utf-8"))
        doc["detuning"] = {"mode": "bare", "value": {"value": 1.0, "unit": "omega_m"}}
        doc["axes"] = [{"name": "power", "unit": "mW", "values": [1e-297, 35.0]},
                       {"name": "delta", "values": [0.0, 1.0]}]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "tiny.csv"),
                     "--workers", "1"]) == 0
        assert len((tmp_path / "tiny.csv").read_text(encoding="utf-8").splitlines()) > 4


class TestHugeDrives:
    """A drive so strong that the squared shift per photon overflows leaves no
    converged branch, and the row says so without a floating-point warning
    (which the suite turns into an error)."""

    def test_sweep_over_a_huge_power(self):
        config = dataclasses.replace(fig_preset("fig2a"), axes=(
            AxisSpec("delta", (0.0, 1.0)), AxisSpec("power", (0.035, 1e180, 1e200))))
        records = run_sweep(config).records
        assert [r.error for r in records[::3]] == ["", ""]
        assert [r.error for r in records[2::3]] == [
            "no self-consistent steady state converged (best residual inf)"] * 2
        assert all(r.error.startswith("no self-consistent steady state converged")
                   for r in records[1::3])
        singles = [rec for r in records
                   for rec in run_point(config, {"delta": r.delta, "power": r.power}).records]
        assert csv_text(singles) == csv_text(records)

    @pytest.mark.parametrize("drives", [
        (1e163, 1e163),   # (E / kappa_1)^2 overflows Python's pow in _scaled
        (1e70, 5e69),     # the resultant's complex products overflow to inf and NaN
        (1e163, 5e162),   # both
    ])
    def test_huge_drive_records_no_branch(self, drives):
        # alone (the candidate loop) and beside 40 points whose candidates
        # take the columns
        for others in (0, 40):
            batch = fig2a_batch([(drives, (0.0, 0.0))] + [TestTinyDrives.FIG2A] * others)
            assert list(batch.errors) == [0]
            assert str(batch.errors[0]) == (
                "no self-consistent steady state converged (best residual inf)")
            assert list(batch.owner) == list(range(1, others + 1))
        assert len(batch.owner) >= steady_state.COLUMN_CANDIDATES
        assert point_columns(batch, 1) == point_columns(fig2a_batch([TestTinyDrives.FIG2A]), 0)

    def test_sweep_past_the_scaled_unit(self, tmp_path):
        # 1e293 W: a drive amplitude about 3e158 times the cavity decay of 1e-5 rad/s
        doc = json.loads((REPO / "configs" / "point.json").read_text(encoding="utf-8"))
        doc["cavity"]["cavity_decay"] = {"value": 1e-5, "unit": "rad/s"}
        doc["detuning"] = {"mode": "bare", "value": {"value": 0.0, "unit": "omega_m"}}
        doc["axes"] = [{"name": "delta", "values": [0.0, 1.0]},
                       {"name": "power", "unit": "W", "values": [0.05, 1e293]}]
        path, out = tmp_path / "huge.json", tmp_path / "huge.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")][1:]
        assert [row[-1] for row in rows[1::2]] == [
            "no self-consistent steady state converged (best residual inf)"] * 2
        assert len(rows) == 4 and rows[0][-1] == rows[2][-1] == ""


def scalar_real(roots, cap):
    """The real roots in [0, cap], root by root in Python's complex arithmetic:
    the reference for the array test of ``steady_state._real``."""
    tol = steady_state.REAL_TOL
    return [r.real for r in roots
            if abs(r.imag) <= tol * (1.0 + abs(r)) and -tol <= r.real <= cap + tol]


def scalar_candidates(roots, c, b, x, cap):
    """The candidates of one identical-cavity point from the eigenvalues of its two
    companion matrices, root by root: the reference for the batched
    ``steady_state._symmetric_candidates``."""
    cubic, quartic = roots
    q, bb = c + x, b * b
    found = [(u, u) for u in scalar_real(cubic, cap)]
    for s in scalar_real(quartic, cap):
        r = math.sqrt(max(s * s - 4.0 * (s * s - 2.0 * s * q / b + (q * q + 1.0) / bb), 0.0))
        found += [(0.5 * (s - r), 0.5 * (s + r)), (0.5 * (s + r), 0.5 * (s - r))] if r else []
    return found


class TestCandidateTable:
    """The array stages of the candidate table against the root-by-root loops
    they replace, bit for bit."""

    def test_real_root_mask_is_the_scalar_test(self):
        rng = np.random.default_rng(7)
        cap = 2.0
        tol = steady_state.REAL_TOL
        re = rng.uniform(-0.5, 2.5, 400)
        # imaginary parts around the tolerance 1e-6 (1 + |root|), and 0
        im = np.where(rng.random(len(re)) < 0.3, 0.0,
                      tol * (1.0 + np.abs(re)) * rng.uniform(0.5, 1.5, len(re)))
        # and real roots on and just past both ends of [-tol, cap + tol]
        edges = [-tol, np.nextafter(-tol, -1), 0.0, -0.0, cap, cap + tol,
                 np.nextafter(cap + tol, 9)]
        roots = np.concatenate([re + 1j * im, np.array(edges) + 0j])
        mask = steady_state._real(roots, cap)
        assert roots[mask].real.tolist() == scalar_real(roots.tolist(), cap)
        assert 0 < mask.sum() < len(roots)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(chunk_rows(), min_size=1, max_size=8))
    @example(rows=[("bistable", (0.3, 0.3), 0.5, (6.0, 6.0)),
                   ("symmetric", (0.1, 0.1), 0.0, (3.9, 3.9))])
    def test_symmetric_candidates_are_the_scalar_loop(self, rows):
        kappa, mech, g = CAVITIES
        shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])
        drives, hops, detunings = batch_columns(rows)[3:]
        problems = [steady_state._scaled(kappa, g, shift, e, xi, d)
                    for e, xi, d in zip(drives, hops, detunings)]
        points = [k for k, problem in enumerate(problems) if problem and problem[0]]
        if not points:
            return
        c, b, x, cap = zip(*[(problems[k][2][0], problems[k][3][0], problems[k][5],
                              problems[k][6]) for k in points])
        comp = np.tile(steady_state._COMPANIONS, (len(points), 1, 1, 1))
        companion = np.array(list(map(steady_state._companion_rows, c, b, x)))
        comp[:, 0, 0, :3], comp[:, 1, 0] = companion[:, :3], companion[:, 3:]
        roots = np.linalg.eigvals(comp)
        row, u1, u2 = steady_state._symmetric_candidates(roots, c, b, x, cap)
        want = [(j, *pair) for j, args in enumerate(zip(roots.tolist(), c, b, x, cap))
                for pair in scalar_candidates(*args)]
        assert list(zip(row.tolist(), u1.tolist(), u2.tolist())) == want

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(chunk_rows().filter(lambda row: row[0] in ("drives", "detunings")),
                         min_size=1, max_size=4))
    @example(rows=[("drives", (0.1, 0.12), 0.2, (3.9, 4.0))])
    def test_resultant_candidates_take_the_eigvals_bits(self, rows):
        # the resultant route's candidates with the shared eigenvalue kernel
        # and with np.linalg.eigvals itself
        kappa, mech, g = CAVITIES
        shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])
        problems = [problem for problem in (steady_state._scaled(kappa, g, shift, e, xi, d)
                                            for e, xi, d in zip(*batch_columns(rows)[3:]))
                    if not (problem and problem[0])]
        got = steady_state._candidates(problems)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steady_state, "eigenvalues", np.linalg.eigvals)
            want = steady_state._candidates(problems)
        assert [column.tobytes() for column in got] == [column.tobytes() for column in want]

    def test_non_finite_resultant_stack_has_no_candidate(self, monkeypatch):
        # a Sylvester block whose solve is not finite leaves a block companion
        # matrix that the eigenvalue kernel refuses, and the point no candidate
        kappa, mech, g = CAVITIES
        shift = (g[0] ** 2 / mech[0], g[1] ** 2 / mech[1])
        e, xi, d = batch_columns([("drives", (0.1, 0.12), 0.2, (3.9, 4.0))])[3:]
        problem = steady_state._scaled(kappa, g, shift, e[0], xi[0], d[0])
        assert len(steady_state._candidates([problem])[0]) == 7
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(solve(a, b), np.inf))
        with pytest.raises(np.linalg.LinAlgError, match="^Array must not contain infs or NaNs$"):
            steady_state._general_candidates(*problem[1:7])
        assert [len(column) for column in steady_state._candidates([problem])] == [0, 0, 0]


def assert_distinct_sorted(branches):
    """Branches numbered in order, sorted by |a_1|, each a fixed point, and
    pairwise apart by more than the dedup threshold."""
    assert [ss.branch for ss in branches] == list(range(len(branches)))
    amps = [abs(ss.amp[0]) for ss in branches]
    assert amps == sorted(amps)
    for ss in branches:
        assert ss.residual < steady_state.RESIDUAL_TOL
    for i, a in enumerate(branches):
        for b in branches[:i]:
            scale = max(1.0, abs(a.amp[0]), abs(a.amp[1]))
            assert max(abs(a.amp[0] - b.amp[0]), abs(a.amp[1] - b.amp[1])) >= (
                steady_state.DUPLICATE_TOL * scale)


def resultant_fixed_points(p, delta01, delta02, digits=50):
    """Every fixed point as (|a_1|^2, |a_2|^2), independently of the solver:
    the two photon-number equations u_j |alpha_1 alpha_2 + xi^2|^2 =
    |alpha_k E_j + i xi E_k|^2 in exact rational arithmetic, their resultant
    in u_2 with roots u_1 at ``digits`` digits, and at each real u_1 >= 0 every
    real root u_2 >= 0 of the second equation that solves the first."""
    u1, u2 = sp.symbols("u1 u2")
    rat = sp.Rational
    e = [rat(v) for v in drive_amps(p)]
    kap = [rat(v) for v in p.cavity_decay]
    b = [rat(derive_coupling(p, j)) ** 2 / rat(p.mech_freq[j - 1]) for j in (1, 2)]
    xi = rat(p.hop_strength)
    d1, d2 = rat(delta01) - b[0] * u1, rat(delta02) - b[1] * u2
    den = (kap[0] * kap[1] - d1 * d2 + xi ** 2) ** 2 + (kap[0] * d2 + kap[1] * d1) ** 2
    f1 = sp.Poly(u1 * den - (kap[1] * e[0]) ** 2 - (d2 * e[0] + xi * e[1]) ** 2, u2, u1)
    f2 = sp.Poly(u2 * den - (kap[0] * e[1]) ** 2 - (d1 * e[1] + xi * e[0]) ** 2, u2, u1)
    coeffs = sp.Poly(sp.resultant(f1, f2, u2), u1).all_coeffs()

    def real_nonnegative(roots):
        return [r.real for r in roots if abs(r.imag) <= 1e-30 * abs(r) and r.real >= 0]

    points = []
    with mpmath.workdps(digits):
        def mp(c):
            return mpmath.mpf(c.p) / c.q

        # roots of the resultant in units of (E / kappa)^2
        unit = mpmath.mpf(max(drive_amps(p)) / min(p.cavity_decay)) ** 2
        n = len(coeffs) - 1
        scaled = [mp(c) * unit ** (n - i) for i, c in enumerate(coeffs)]
        for r1 in real_nonnegative([unit * r for r in mpmath.polyroots(
                scaled, maxsteps=200, extraprec=digits)]):
            cubic = [sum(mp(c) * r1 ** m[1] for m, c in f2.terms() if m[0] == k)
                     for k in range(3, -1, -1)]
            for r2 in real_nonnegative(mpmath.polyroots(cubic, maxsteps=200, extraprec=digits)):
                terms = [mp(c) * r2 ** m[0] * r1 ** m[1] for m, c in f1.terms()]
                if abs(sum(terms)) < 1e-30 * sum(abs(t) for t in terms):
                    points.append((float(r1), float(r2)))
    return sorted(points)


def cavity_count(p, j, delta0, g=None):
    """Exact count of the fixed points of cavity ``j`` alone (xi = 0): the
    real roots of u (kappa^2 + (delta0 - b u)^2) = E^2, by Sturm sequences."""
    u = sp.symbols("u")
    rat = sp.Rational
    g = derive_coupling(p, j) if g is None else g
    b = rat(g) ** 2 / rat(p.mech_freq[j - 1])
    cubic = u * (rat(p.cavity_decay[j - 1]) ** 2 + (rat(delta0) - b * u) ** 2)
    return sp.Poly(cubic - rat(drive_amps(p)[j - 1]) ** 2, u).count_roots(0)


def photon_numbers(branches):
    return sorted((abs(ss.amp[0]) ** 2, abs(ss.amp[1]) ** 2) for ss in branches)


def assert_match_oracle(branches, oracle):
    assert len(branches) == len(oracle)
    for got, want in zip(photon_numbers(branches), oracle):
        assert got == pytest.approx(want, rel=1e-9)


class TestCompleteness:
    """Every fixed point, counted and located independently."""

    @pytest.mark.parametrize("power, xi, deltas, count", [
        # the two examples of README's solver paragraph
        ((0.1, 0.12), 0.2, (3.9, 4.0), 7),
        (0.3, 0.5, (6.0, 6.0), 9),
    ])
    def test_readme_examples(self, power, xi, deltas, count):
        p = make_params(power=power, xi=xi * WM)
        branches = solve_self_consistent(p, deltas[0] * WM, deltas[1] * WM)
        oracle = resultant_fixed_points(p, deltas[0] * WM, deltas[1] * WM)
        assert len(oracle) == count
        assert_match_oracle(branches, oracle)
        assert_distinct_sorted(branches)

    def test_only_common_roots_are_polished(self, monkeypatch):
        # README's first example: the resultant route pairs each real U_1 with
        # every real U_2 of its cubic, 21 candidates, and only the 7 fixed
        # points pass the residual test into the extended-precision polish
        checked, polished = [], []
        near_root, polish = steady_state._near_root, steady_state._polish
        monkeypatch.setattr(steady_state, "_near_root",
                            lambda *a: checked.append(a) or near_root(*a))
        monkeypatch.setattr(steady_state, "_polish", lambda *a: polished.append(a) or polish(*a))
        p = make_params(power=(0.1, 0.12), xi=0.2 * WM)
        branches = solve_self_consistent(p, 3.9 * WM, 4.0 * WM)
        assert (len(checked), len(polished), len(branches)) == (21, 7, 7)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_inputs_match_the_resultant(self, seed):
        rng = np.random.default_rng(100 + seed)
        power = rng.uniform(0.05, 0.4)
        xi = rng.uniform(0.05, 1.2) * WM
        delta1 = rng.uniform(2.0, 8.0) * WM
        if seed % 2:
            p = make_params(power=(power, power * rng.uniform(0.6, 1.4)), xi=xi)
            delta2 = delta1 + rng.uniform(-0.8, 0.8) * WM
        else:
            p = make_params(power=power, xi=xi)
            delta2 = delta1
        branches = solve_self_consistent(p, delta1, delta2)
        assert_match_oracle(branches, resultant_fixed_points(p, delta1, delta2))
        assert_distinct_sorted(branches)

    def test_uncoupled_cavities_multiply_their_counts(self):
        # at xi = 0 each cavity is its own bistable system
        p = make_params(power=(0.1, 0.12))
        counts = set()
        for d1, d2 in [(3.5, 3.5), (3.9, 4.0), (4.3, 3.7), (3.7, 4.3), (4.1, 4.1)]:
            branches = solve_self_consistent(p, d1 * WM, d2 * WM)
            want = cavity_count(p, 1, d1 * WM) * cavity_count(p, 2, d2 * WM)
            assert len(branches) == want, (d1, d2)
            assert_distinct_sorted(branches)
            counts.add(want)
        assert {9, 3} <= counts

    @pytest.mark.parametrize("undriven", [1, 2])
    def test_undriven_cavity_stays_empty(self, undriven):
        # the undriven cavity has u = 0 exactly, on the edge of U >= 0
        power = [0.1, 0.1]
        power[undriven - 1] = 0.0
        p = make_params(power=tuple(power))
        driven = 3 - undriven
        delta0 = 3.9 * WM
        branches = solve_self_consistent(p, delta0, delta0)
        assert len(branches) == cavity_count(p, driven, delta0) == 3
        for ss in branches:
            assert ss.amp[undriven - 1] == 0
            assert ss.eff_detuning[undriven - 1] == delta0
        assert_distinct_sorted(branches)

    def test_linear_limit(self):
        p = make_params(power=(0.1, 0.05), xi=0.4 * WM)
        d1, d2 = 3.9 * WM, 3.1 * WM
        (ss,) = branches_at(p, (0.0, 0.0), d1, d2)
        fixed = solve_fixed_detuning(p, d1, d2)
        assert ss.amp == fixed.amp
        assert ss.eff_detuning == (d1, d2)

    @pytest.mark.parametrize("moving", [1, 2])
    def test_one_linear_cavity(self, moving):
        # with g = 0 in one cavity only the other's count is left
        p = make_params(power=0.1)
        g = [0.0, 0.0]
        g[moving - 1] = derive_coupling(p, moving)
        delta0 = 3.9 * WM
        branches = branches_at(p, tuple(g), delta0, delta0)
        assert len(branches) == cavity_count(p, moving, delta0) == 3
        assert_distinct_sorted(branches)

    @pytest.mark.parametrize("xi", [5e-324, 1e-200, 1e-9])
    def test_resonant_linear_cavity_feeding_an_undriven_one(self, xi):
        # cavity 1 (g = 0, on resonance) meets the bound
        # kappa_1 u_1 + kappa_2 u_2 <= |E| sqrt(u_1 + u_2) when cavity 2 holds
        # almost no photons; with cavity 1 linear, cavity 2's equation alone
        # gives u_2, where the resultant in u_2 vanishes as xi -> 0
        p = make_params(power=(1.0, 0.0), xi=xi * WM)
        coupling = (0.0, derive_coupling(p, 2))
        (ss,) = branches_at(p, coupling, 0.0, 0.0)
        fixed = solve_fixed_detuning(p, 0.0, ss.eff_detuning[1])
        assert ss.amp[0] == pytest.approx(fixed.amp[0], rel=1e-12)
        assert ss.amp[1] == pytest.approx(fixed.amp[1], rel=1e-12)
        assert abs(ss.amp[0]) ** 2 == pytest.approx((drive_amps(p)[0] / p.cavity_decay[0]) ** 2,
                                                    rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(power=st.floats(0.001, 0.4), ratio=st.floats(0.2, 2.0),
           xi=st.floats(0.0, 1.5), delta1=st.floats(-2.0, 9.0), offset=st.floats(-1.5, 1.5),
           symmetric=st.booleans())
    def test_branches_are_distinct_sorted_fixed_points(self, power, ratio, xi, delta1, offset,
                                                        symmetric):
        if symmetric:
            p = make_params(power=power, xi=xi * WM)
            delta2 = delta1
        else:
            p = make_params(power=(power, power * ratio), xi=xi * WM)
            delta2 = delta1 + offset
        assert_distinct_sorted(solve_self_consistent(p, delta1 * WM, delta2 * WM))
