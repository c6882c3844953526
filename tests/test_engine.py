import json
import math
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopcav
from hopcav import engine
from hopcav.engine import (
    AxisSpec,
    BathSpec,
    CSV_COLUMNS,
    ResultRecord,
    SweepConfig,
    csv_text,
    grid_points,
    misses_residual_gate,
    run_point,
    run_sweep,
)
from hopcav.engine import stability_csv
from hopcav.config import parse_config
from hopcav.errors import ConfigError
from hopcav.lyapunov import RESIDUAL_GATE
from hopcav.measures import symplectic_eigenvalues
from hopcav.params import Detuning, PhysicalParams
from hopcav.presets import fig_preset
from hopcav.stability import MapColumns

TWO_PI = 2.0 * math.pi
WM = TWO_PI * 1e7
REPO = Path(__file__).resolve().parent.parent


def make_params(power=0.05, xi=0.0, delta=1.0, mode="effective"):
    return PhysicalParams(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=WM,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=power,
        bath_temperature=0.4,
        hop_strength=xi * WM,
        detuning=Detuning(mode, (delta * WM, delta * WM)),
    )


# values per axis kind for random grids: negative values are bad (delta has
# none), and each pool holds both signed zeros
AXIS_POOLS = {
    "delta": (-0.0, 0.0, 0.5, 1.0, 1.5),
    "xi": (-0.5, -0.0, 0.0, 0.3, 0.8),
    "power": (-0.01, -0.0, 0.0, 0.05, 0.07),
    "temperature": (-1.0, -0.0, 0.0, 0.4),
    "nbar": (-1.0, -0.0, 0.0, 836.0),
    "photon_number": (-0.05, -0.0, 0.0, 0.05, 0.5),
}


def base_config(**kwargs):
    defaults = dict(params=make_params(), nbar_override=836.0)
    defaults.update(kwargs)
    return SweepConfig(**defaults)


class TestRunPoint:
    def test_undriven_point_is_separable(self):
        cfg = base_config(params=make_params(power=0.0, xi=0.0))
        res = run_point(cfg)
        (rec,) = res.records
        assert rec.stable
        assert rec.en_f1m1 == rec.en_f2m2 == rec.en_m1m2 == rec.en_f1f2 == 0.0
        assert rec.coupling_ratio == 0.0

    def test_reference_operating_point(self):
        res = run_point(base_config())
        (rec,) = res.records
        assert rec.stable
        assert rec.en_f1m1 > 0.0
        assert rec.en_f1m1 == pytest.approx(rec.en_f2m2, rel=1e-9)
        assert rec.lyap_residual < 1e-9
        assert res.covariances[0] is not None
        assert symplectic_eigenvalues(res.covariances[0]).min() >= 0.5 - 1e-8

    def test_unstable_point_has_empty_measures(self):
        # 75 mW at detuning ~ one mechanical frequency sits inside the
        # bistable window of the collective model
        cfg = base_config(params=make_params(power=0.075))
        (rec,) = run_point(cfg).records
        assert not rec.stable
        assert rec.en_f1m1 is None
        assert rec.fidelity is None
        assert rec.s1 is not None and rec.s1 < 0.0

    def test_axis_overrides(self):
        cfg = base_config(axes=(AxisSpec("delta", (0.5, 1.0)),))
        rec = run_point(cfg, {"delta": 0.5}).records[0]
        assert rec.delta == 0.5
        rec2 = run_point(cfg, {"delta": 0.5, "xi": 0.25}).records[0]
        assert rec2.xi == 0.25

    def test_nbar_axis_overrides_temperature(self):
        cfg = base_config(nbar_override=None)
        rec = run_point(cfg, {"nbar": 12345.0}).records[0]
        assert rec.nbar == 12345.0

    def test_temperature_axis(self):
        cfg = base_config(nbar_override=None)
        rec = run_point(cfg, {"temperature": 0.4}).records[0]
        assert rec.nbar == pytest.approx(832.96486491733122, rel=1e-12)

    def test_photon_number_axis_with_ideal_bath(self):
        cfg = base_config(bath=BathSpec(photon_number=0.0, correlation="ideal"))
        rec = run_point(cfg, {"photon_number": 0.05}).records[0]
        assert rec.photon_number == 0.05
        assert rec.correlation == pytest.approx(0.229128784747792, rel=1e-12)

    def test_point_errors_are_recorded_inline(self):
        # the correlation 0.5 exceeds the quantum bound at the point's N = 0.01
        cfg = base_config(bath=BathSpec(photon_number=0.5, correlation=0.5))
        (rec,) = run_point(cfg, {"photon_number": 0.01}).records
        assert rec.error != ""
        assert rec.en_f1m1 is None


class TestBranchPolicy:
    # under the sweep-axis convention the solver's bare detuning is the
    # negated axis value, so the 100 mW fold sits at axis value -3.9
    def bare_config(self, policy):
        return base_config(
            params=make_params(power=0.1, delta=-3.9, mode="bare"),
            branch_policy=policy,
        )

    def test_all_branches_emitted(self):
        # at xi = 0 the two uncoupled cavities have 3 branches each: 9 fixed points
        res = run_point(self.bare_config("all"))
        assert len(res.records) == 9
        amps = [r.amp1 for r in res.records]
        assert amps == sorted(amps)
        assert [r.branch for r in res.records] == list(range(9))
        # the collective scalars belong to the branches with a_1 = a_2 only
        for r in res.records:
            assert (r.s1 is None) == (r.amp1 != r.amp2)

    def test_default_branch_is_lowest_stable(self):
        res_all = run_point(self.bare_config("all"))
        res_def = run_point(self.bare_config("default"))
        assert len(res_def.records) == 1
        stable_branches = [r.branch for r in res_all.records if r.stable]
        expected = stable_branches[0] if stable_branches else 0
        assert res_def.records[0].branch == expected


class TestRunSweep:
    def test_duplicate_point_sweep_is_deterministic(self):
        cfg = base_config(axes=(AxisSpec("delta", (1.0, 1.0)),))
        res = run_sweep(cfg)
        assert len(res.records) == 2
        assert res.records[0] == res.records[1]

    def test_grid_row_major_order(self):
        cfg = base_config(
            axes=(AxisSpec("xi", (0.0, 0.5)), AxisSpec("delta", (0.2, 0.9, 1.4)))
        )
        pts = grid_points(cfg)
        assert pts == [
            {"xi": 0.0, "delta": 0.2},
            {"xi": 0.0, "delta": 0.9},
            {"xi": 0.0, "delta": 1.4},
            {"xi": 0.5, "delta": 0.2},
            {"xi": 0.5, "delta": 0.9},
            {"xi": 0.5, "delta": 1.4},
        ]
        res = run_sweep(cfg)
        assert [(r.xi, r.delta) for r in res.records] == [
            (0.0, 0.2), (0.0, 0.9), (0.0, 1.4), (0.5, 0.2), (0.5, 0.9), (0.5, 1.4),
        ]

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # 21 points in chunks of at most 4: more chunks than workers, and the
        # two runs cut the grid differently
        monkeypatch.setattr(engine, "CHUNK_POINTS", 4)
        cfg = base_config(
            axes=(AxisSpec("xi", (0.0, 0.3, 0.6)),
                  AxisSpec("delta", tuple(np.linspace(0.4, 1.6, 7))))
        )
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial.records == parallel.records

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The sizes of the pools the sweeps start, from a pool that maps in
        this process, so that no worker process starts."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # the scheduler imports the pool from concurrent.futures when it starts one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        return sizes

    def test_pool_never_exceeds_the_cpu_count(self, monkeypatch, pool_sizes):
        # without an affinity, as on platforms that have none, the CPU count caps
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = base_config(axes=(AxisSpec("delta", (0.5, 1.0, 1.5)),))
        serial = run_sweep(cfg, workers=1).records
        assert run_sweep(cfg, workers=5000).records == serial
        assert run_sweep(cfg, workers=2).records == serial
        assert pool_sizes == [2, 2]
        # an unknown CPU count runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_sweep(cfg, workers=4).records == serial
        assert pool_sizes == [2, 2]

    def test_pool_never_exceeds_the_affinity(self, monkeypatch, pool_sizes):
        # a process allowed on one CPU of eight starts no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = base_config(axes=(AxisSpec("delta", (0.5, 1.0, 1.5)),))
        serial = run_sweep(cfg, workers=1).records
        assert run_sweep(cfg, workers=2).records == serial
        assert pool_sizes == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert run_sweep(cfg, workers=4).records == serial
        assert pool_sizes == [2]

    @pytest.mark.parametrize("grid", ["error-rows", "bare-all", "bare-default"])
    def test_records_cross_the_pool_unchanged(self, grid):
        if grid == "error-rows":
            # a negative photon number fails its check: a row of NaN cells
            # around its axis values
            cfg = base_config(
                bath=BathSpec(photon_number=0.0, correlation="ideal"),
                axes=(AxisSpec("photon_number", (-0.05, 0.0, 0.05)),
                      AxisSpec.from_range("delta", 0.2, 1.8, 9)),
            )
        else:
            # several branches per point, and a negative power's failed rows
            # among them
            cfg = base_config(
                params=make_params(power=0.1, delta=-3.9, mode="bare"),
                branch_policy=grid.split("-")[1],
                axes=(AxisSpec("delta", (-4.3, -3.9, -3.5)),
                      AxisSpec("power", (-0.01, 0.02, 0.1))),
            )
        serial = run_sweep(cfg, workers=1).records
        pooled = run_sweep(cfg, workers=2).records
        # NaN cells make equal records compare unequal once unpickled
        assert csv_text(pooled) == csv_text(serial)
        assert all(type(r) is ResultRecord for r in pooled)
        assert any(math.isnan(r.correlation) for r in serial)
        assert any(r.stable for r in serial)
        if grid == "bare-all":
            assert max(r.branch for r in serial) > 0

    def test_residual_gate_flag(self):
        res = run_sweep(base_config(axes=(AxisSpec("delta", (0.5, 1.0, 1.5)),)))
        assert not res.residual_failure

    def test_failed_measures_keep_the_lyapunov_residual(self):
        # configs/sweep.json at 75 mW, 1 ulp inside the self-oscillation
        # boundary: the drift is barely stable, the Kronecker solve misses the
        # residual gate and the measures then fail on the covariance it gives;
        # the record keeps the solve's residual beside the measures' error
        doc = json.loads((REPO / "configs" / "sweep.json").read_text(encoding="utf-8"))
        doc["cavity"]["drive_power"] = {"value": 75.0, "unit": "mW"}
        delta = math.nextafter(-4.8933532878624355e-06, math.inf)
        doc["axes"] = [{"name": "delta", "values": [delta, 0.2]}]
        result = run_sweep(parse_config(doc))
        edge, inside = result.records
        assert edge.stable and edge.error.startswith("nonpositive squared symplectic eigenvalue")
        assert edge.en_f1m1 is None and edge.fidelity is None
        assert 1e-5 < edge.lyap_residual < 1e-3
        assert inside.stable and not inside.error and inside.lyap_residual < RESIDUAL_GATE
        assert result.residual_failure and misses_residual_gate(edge)
        assert csv_text([edge]).splitlines()[1].split(",")[-3:-1] == [
            f"{edge.lyap_residual:.12g}", "0"]
        # run_point reports no covariance for the row, as for any failed row
        (point,) = run_point(parse_config(doc), {"delta": delta}).covariances
        assert point is None
        # a stable row with an error fails the sweep even below the residual gate
        assert misses_residual_gate(edge._replace(lyap_residual=0.0))

    def test_pointwise_monotone_in_photon_number(self):
        # squeezed-input family: mirror-cavity entanglement can only drop when
        # the input photon number grows, at every detuning
        cfg = base_config(
            bath=BathSpec(photon_number=0.0, correlation="ideal"),
            axes=(
                AxisSpec("photon_number", (0.0, 0.01, 0.05, 0.1)),
                AxisSpec("delta", tuple(np.linspace(0.2, 1.8, 17))),
            ),
        )
        res = run_sweep(cfg)
        by_n = {}
        for r in res.records:
            by_n.setdefault(r.photon_number, []).append((r.delta, r.en_f1m1))
        ns = sorted(by_n)
        for lo, hi in zip(ns, ns[1:]):
            for (d1, e1), (d2, e2) in zip(by_n[lo], by_n[hi]):
                assert d1 == d2
                assert e2 <= e1 + 1e-12


class TestBatchedPipeline:
    """A sweep evaluates its grid in chunks; every row equals what run_point
    gives for its point alone."""

    def per_point(self, cfg):
        return [r for p in grid_points(cfg) for r in run_point(cfg, p).records]

    def test_chunked_sweep_equals_single_points(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_POINTS", 8)
        cfg = base_config(
            params=make_params(power=0.07),
            axes=(AxisSpec("xi", (0.0, 0.4, 0.8)),
                  AxisSpec.from_range("delta", 0.2, 1.8, 9)),
        )
        assert len(grid_points(cfg)) % 8 != 0
        records = run_sweep(cfg).records
        assert records == tuple(self.per_point(cfg))
        stable = [r.stable for r in records]
        assert any(stable) and not all(stable)

    def test_bare_branch_rows_stay_adjacent(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_POINTS", 2)
        cfg = base_config(
            params=make_params(power=0.1, delta=-3.9, mode="bare"),
            branch_policy="all",
            axes=(AxisSpec("delta", (-4.3, -3.9, -3.5)), AxisSpec("power", (0.02, 0.1))),
        )
        records = run_sweep(cfg).records
        assert records == tuple(self.per_point(cfg))
        assert max(r.branch for r in records) == 8
        # each point's branch rows are consecutive, numbered from 0
        rows = [(r.delta, r.power, r.branch) for r in records]
        for prev, row in zip(rows, rows[1:]):
            if row[2] != 0:
                assert row == (prev[0], prev[1], prev[2] + 1)

    def test_setup_error_rows_match_single_points(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_POINTS", 4)
        # a fixed correlation of 0.3 exceeds the bound below N = 0.09, and a
        # negative hopping strength is rejected before the working point
        cfg = base_config(
            bath=BathSpec(photon_number=0.0, correlation=0.3),
            axes=(AxisSpec("photon_number", (0.0, 0.05, 0.1, 0.5)),
                  AxisSpec("xi", (-0.5, 0.0, 0.5))),
        )
        records = run_sweep(cfg).records
        assert csv_text(records) == csv_text(self.per_point(cfg))
        errors = [r.error for r in records]
        assert errors[0] == "hop_strength must be nonnegative"
        assert errors[1].startswith("correlation 0.3 exceeds the quantum bound")
        assert errors[-1] == ""

    def count_checks(self, monkeypatch, config):
        """Records of the sweep, the number of parameters it built and the
        number of field checks it ran."""
        built, checks = [], []
        post_init = PhysicalParams.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PhysicalParams, "__post_init__", counted)
        for name in ("checked_detuning", "checked_hop_strength", "checked_drive_power",
                     "checked_bath_temperature"):
            def check(*args, _check=getattr(engine, name), **kwargs):
                checks.append(args)
                return _check(*args, **kwargs)

            monkeypatch.setattr(engine, name, check)
        return run_sweep(config).records, len(built), len(checks)

    def test_sweep_checks_each_axis_value_once(self, monkeypatch):
        # each axis value runs its field's check once, when the sweep starts,
        # and never per point
        config = fig_preset("fig6b")
        records, built, checks = self.count_checks(monkeypatch, config)
        assert len(records) == 101 * 101
        assert checks == sum(len(a.values) for a in config.axes) == 202
        assert built == 0

    def test_bare_sweep_builds_no_solver_parameters(self, monkeypatch):
        # the bare-mode solver takes the columns of the axis tables: no
        # parameters are built, and each axis value is checked once
        config = fig_preset("fig2a")
        _, built, checks = self.count_checks(monkeypatch, config)
        assert checks == sum(len(a.values) for a in config.axes) == 205
        assert built == 0

    # each axis kind's route through the full parameter validation
    REPLACED = {
        "delta": lambda p, v: replace(p, detuning=Detuning(p.detuning.mode, (v * WM,) * 2)),
        "xi": lambda p, v: replace(p, hop_strength=v * WM),
        "power": lambda p, v: replace(p, drive_power=(v, v)),
        "temperature": lambda p, v: replace(p, bath_temperature=v),
    }

    # 1e300 omega_m overflows to inf; -inf is negative before it is infinite
    @pytest.mark.parametrize("value", [-1.0, 0.0, 1e300, 0.5, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["delta", "xi", "power", "temperature"])
    def test_axis_value_check_equals_the_parameter_validation(self, name, value):
        # an axis value's field check gives the error, and a valid value the
        # inputs, that PhysicalParams with the value in its field gives
        config = base_config(nbar_override=None)
        row, error = engine._Sweep(config, [])._entry(name, value)
        try:
            params = self.REPLACED[name](config.params, value)
        except ConfigError as exc:
            assert type(error) is ConfigError and str(error) == str(exc)
            return
        assert error is None
        assert row == engine._Sweep(replace(config, params=params), [])._entry(None)[0]

    def test_effective_sweep_keeps_no_solver_parameters(self):
        # no sweep keeps parameters for its working points, so a bare-mode
        # sweep ships no more than the effective one to each pool chunk
        import pickle

        fig6b = fig_preset("fig6b")
        sweep = engine._Sweep(fig6b, [(a.name, a.values) for a in fig6b.axes])
        bare_mode = replace(fig6b, params=replace(fig6b.params, detuning=Detuning(
            "bare", fig6b.params.detuning.value)))
        bare = engine._Sweep(bare_mode, [(a.name, a.values) for a in bare_mode.axes])
        assert abs(len(pickle.dumps(sweep)) - len(pickle.dumps(bare))) < 100

    def test_chunks_leave_the_sweep_as_it_was(self):
        # a sweep holds its grid's input tables and nothing that its chunks
        # fill in, so every chunk of a pool is sent the same bytes
        import pickle

        fig4a = fig_preset("fig4a")
        sweep = engine._Sweep(fig4a, [(a.name, a.values) for a in fig4a.axes])
        before = pickle.dumps(sweep)
        for start, stop in engine._chunks(math.prod(sweep.shape)):
            engine._evaluate(sweep, start, stop)
        assert pickle.dumps(sweep) == before

    def test_a_chunk_builds_its_diffusions_in_one_call(self, monkeypatch):
        # fig4a's 804 points over four photon numbers: each chunk stacks the
        # diffusions of all of its branch rows at once, and no matrix is built
        # on its own
        built = {"diffusion_stack": [], "build_diffusion": []}
        for name, sizes in built.items():
            def spy(*args, _sizes=sizes, _call=getattr(engine, name)):
                result = _call(*args)
                _sizes.append(len(result))
                return result

            monkeypatch.setattr(engine, name, spy)
        batches = list(engine.sweep_batches(fig_preset("fig4a")))
        assert len(built["diffusion_stack"]) == len(batches) == math.ceil(804 / engine.CHUNK_POINTS)
        assert sum(built["diffusion_stack"]) == 804 and built["build_diffusion"] == []

    def test_unstable_rows_at_a_huge_occupation_warn_nothing(self):
        # an unstable row's diffusion is built too: entries that overflow to
        # inf raise no warning, which the suite makes an error
        cfg = base_config(axes=(AxisSpec("nbar", (1.0, 1e308)), AxisSpec("delta", (-0.5, -0.4))))
        records = run_sweep(cfg).records
        assert [(r.nbar, r.stable, r.error) for r in records] == [
            (nbar, False, "") for nbar in (1.0, 1.0, 1e308, 1e308)]

    @staticmethod
    def count_built(monkeypatch) -> list:
        """The class names of the working points and point results built from now on."""
        built = []
        for cls in (engine.SteadyState, engine.PointResult):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return built

    def test_effective_sweep_builds_no_per_point_objects(self, monkeypatch):
        # the chunk stays columns up to the records: no working point and no
        # point result per grid point; run_point still returns both
        built = self.count_built(monkeypatch)
        records = run_sweep(fig_preset("fig6b")).records
        assert len(records) == 101 * 101 and any(r.stable for r in records)
        assert built == []
        result = run_point(fig_preset("fig6b"), {"delta": 1.0, "xi": 0.5})
        assert sorted(built) == ["PointResult", "SteadyState"]
        assert result.steady_states[0].amp[0] != 0.0
        assert result.covariances[0] is not None and result.drifts[0] is not None

    def test_bare_sweep_builds_no_per_point_objects(self, monkeypatch):
        # the bare-mode solver returns columns too; run_point builds the
        # working point of each emitted branch
        built = self.count_built(monkeypatch)
        config = fig_preset("fig2a")
        records = run_sweep(config).records
        assert len(records) == 4 * 201 and any(r.stable for r in records)
        assert built == []
        result = run_point(config, {"delta": 1.0, "power": config.axes[1].values[-1]})
        assert sorted(built) == ["PointResult"] + ["SteadyState"] * len(result.records)
        assert [ss.branch for ss in result.steady_states] == [r.branch for r in result.records]

    def test_signed_zero_axis_values_keep_their_cells(self):
        cfg = base_config(axes=(AxisSpec("xi", (-0.0, 0.0, 0.5)),))
        records = run_sweep(cfg).records
        assert records == tuple(self.per_point(cfg))
        lines = csv_text(records).splitlines()[1:]
        assert [line.split(",")[CSV_COLUMNS.index("xi")] for line in lines] == ["-0", "0", "0.5"]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_sweep_equals_single_points_on_random_grids(self, monkeypatch, data):
        # one or two axes of any kind, with bad values, duplicates and signed
        # zeros, cut into chunks of 3 points
        monkeypatch.setattr(engine, "CHUNK_POINTS", 3)
        names = data.draw(st.lists(st.sampled_from(sorted(AXIS_POOLS)), min_size=1, max_size=2,
                                   unique=True))
        axes = tuple(
            AxisSpec(name, tuple(data.draw(st.lists(st.sampled_from(AXIS_POOLS[name]),
                                                    min_size=2, max_size=4))))
            for name in names
        )
        cfg = base_config(
            params=make_params(power=0.07, mode=data.draw(st.sampled_from(("effective", "bare")))),
            bath=data.draw(st.sampled_from((BathSpec(0.0, "ideal"), BathSpec(0.5, 0.3)))),
            nbar_override=data.draw(st.sampled_from((None, 836.0))),
            branch_policy=data.draw(st.sampled_from(("default", "all"))),
            axes=axes,
        )
        results = [run_point(cfg, p) for p in grid_points(cfg)]
        records = run_sweep(cfg).records
        assert csv_text(records) == csv_text([r for res in results for r in res.records])
        # the batch route takes the same chunks: the sweep's records (repr
        # tells NaN cells and signed zeros apart), with run_point's covariances
        batches = list(engine.sweep_batches(cfg))
        assert len(batches) == math.ceil(len(results) / 3)
        assert repr([r for chunk, _ in batches for r in chunk]) == repr(list(records))
        got = [w for _, chunk in batches for w in chunk]
        expected = [w for res in results for w in res.covariances]
        assert len(got) == len(expected)
        for w, want in zip(got, expected):
            assert (w is None) == (want is None)
            assert want is None or np.array_equal(w, want)

    def test_sweep_batches_evaluates_chunks_not_points(self, monkeypatch):
        # the acceptance suite's route to records and covariances: one batch
        # per chunk of the grid, and no batch of one per point
        calls = {"run_point": 0, "_evaluate": 0}
        for name in calls:
            def spy(*args, _name=name, _call=getattr(engine, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(engine, name, spy)
        config = fig_preset("fig3a")
        batches = list(engine.sweep_batches(config))
        assert sum(len(records) for records, _ in batches) == len(grid_points(config)) == 603
        assert calls == {"run_point": 0, "_evaluate": math.ceil(603 / engine.CHUNK_POINTS)}

    def test_sweep_batches_evaluates_a_chunk_when_it_is_read(self, monkeypatch):
        # fig3c's 603 points are 3 chunks; reading the first evaluates one
        calls = []

        def counted(*args, _fn=engine._evaluate):
            calls.append(args[1:])
            return _fn(*args)

        monkeypatch.setattr(engine, "_evaluate", counted)
        assert math.ceil(603 / engine.CHUNK_POINTS) == 3
        records, covariances = next(iter(engine.sweep_batches(fig_preset("fig3c"))))
        assert calls == [(0, engine.CHUNK_POINTS)]
        assert len(records) == len(covariances) == engine.CHUNK_POINTS

    def test_unknown_axis_after_a_bad_one(self):
        # the first bad axis in the overrides' order gives the error
        cfg = base_config()
        assert run_point(cfg, {"xi": -0.5, "speed": 1.0}).records[0].error == (
            "hop_strength must be nonnegative")
        assert run_point(cfg, {"speed": 1.0, "xi": -0.5}).records[0].error == (
            "unknown axis 'speed'")

    @pytest.mark.parametrize("nbar_first", [False, True])
    def test_temperature_and_nbar_axes(self, nbar_first):
        # a bad temperature errors its row although the nbar axis sets the
        # occupation, and the other rows take the nbar axis value, not the
        # temperature's occupation
        axes = (AxisSpec("temperature", (-1.0, 0.4)), AxisSpec("nbar", (836.0, 2000.0)))
        cfg = base_config(nbar_override=None, axes=axes[::-1] if nbar_first else axes)
        records = run_sweep(cfg).records
        bad = "bath_temperature must be nonnegative"
        rows = [(836.0, bad), (2000.0, bad), (836.0, ""), (2000.0, "")]
        if nbar_first:
            rows = [rows[0], rows[2], rows[1], rows[3]]
        assert [(r.nbar, r.error) for r in records] == rows
        for r in records:
            cells = (r.delta, r.xi, r.power, r.photon_number, r.correlation)
            if r.error:
                assert all(math.isnan(c) for c in cells) and not r.stable
            else:
                assert cells == (1.0, 0.0, 0.05, 0.0, 0.0) and r.stable

    def test_negative_nbar_fails_at_the_axis_check(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_POINTS", 4)
        # a negative occupation fails its point at the axis check, with the
        # nbar override's message, whether the point is stable or not; -0.0
        # passes
        deltas = AxisSpec.from_range("delta", 0.2, 1.8, 9)
        cfg = base_config(params=make_params(power=0.07),
                          axes=(AxisSpec("nbar", (-1.0, -0.0, 836.0)), deltas))
        with pytest.raises(ConfigError) as override:
            replace(cfg, nbar_override=-1.0)
        message = str(override.value)
        assert message == "nbar must be finite and nonnegative, got -1.0"
        records = run_sweep(cfg).records
        assert csv_text(records) == csv_text(self.per_point(cfg))
        negative, zero = records[:9], records[9:18]
        assert {r.stable for r in zero} == {True, False}
        assert all(r.error == "" and math.copysign(1.0, r.nbar) == -1.0 for r in zero)
        assert [(r.delta, r.nbar, r.error, r.stable) for r in negative] == [
            (delta, -1.0, message, False) for delta in deltas.values]
        for r in negative:
            assert all(math.isnan(c) for c in (r.xi, r.power, r.photon_number, r.correlation))
            assert r[6:-1] == ResultRecord(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)[6:-1]
        point = run_point(cfg, {"nbar": -1.0})
        (rec,) = point.records
        assert rec.nbar == -1.0 and rec.error == message
        assert all(math.isnan(c) for c in (rec.delta, rec.xi, rec.power, rec.photon_number,
                                           rec.correlation))
        assert point.diffusion is None and point.drifts == (None,)
        assert point.covariances == (None,) and point.steady_states == (None,)
        zero = run_point(cfg, {"nbar": -0.0})
        assert zero.records[0].error == "" and zero.diffusion is not None


class TestDetuningSignConvention:
    def test_negative_convention_flips_the_physics(self):
        # the default convention puts the operating point on the cooling side;
        # flipping the sign convention turns the same numbers into a heating
        # configuration that has no steady state at this drive
        pos = run_point(base_config(detuning_sign="positive")).records[0]
        neg = run_point(base_config(detuning_sign="negative")).records[0]
        assert pos.stable
        assert not neg.stable


def format_cell(value) -> str:
    """A CSV cell: floats with 12 significant digits, booleans as true/false,
    None and NaN as empty cells (the per-cell formatter the row templates
    replaced)."""
    if type(value) is float:  # most cells
        return "" if value != value else format(value, ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v != v:  # NaN
        return ""
    return format(v, ".12g")


def oracle_line(row) -> str:
    """A CSV line cell by cell: a sweep record's error text with commas as
    semicolons and newlines as spaces, every other cell by ``format_cell``."""
    if isinstance(row, ResultRecord):
        cells = [format_cell(v) for v in row[:-1]]
        cells.append(row.error.replace(",", ";").replace("\n", " "))
    else:
        cells = [format_cell(v) for v in row]
    return ",".join(cells) + "\n"


FLOAT_CELLS = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.5e-310, 1e300, -1e300, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(),
)
ERROR_TEXTS = st.one_of(st.just(""), st.text(st.sampled_from("ab ;,\n%dnan.e"), max_size=24),
                        st.text(max_size=12))


class TestCsv:
    def test_byte_identical_reruns(self):
        cfg = base_config(axes=(AxisSpec("delta", (0.3, 0.8, 1.3)),))
        a = csv_text(run_sweep(cfg).records, ("note",))
        b = csv_text(run_sweep(cfg).records, ("note",))
        assert a == b
        assert a.startswith("# note\n")

    def test_header_and_missing_cells(self):
        cfg = base_config(params=make_params(power=0.075))  # unstable point
        text = csv_text(run_point(cfg).records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        cols = dict(zip(CSV_COLUMNS, row))
        assert cols["stable"] == "false"
        assert cols["en_f1m1"] == ""
        assert cols["fidelity"] == ""
        assert cols["delta"] == "1"

    def test_twelve_significant_digits(self):
        cfg = base_config()
        text = csv_text(run_point(cfg).records)
        row = dict(zip(CSV_COLUMNS, text.strip().split("\n")[1].split(",")))
        # amplitude carries the full 12 significant digits
        assert len(row["amp1"].replace(".", "").lstrip("0")) >= 11

    def test_lf_line_endings(self):
        text = csv_text(run_point(base_config()).records)
        assert "\r" not in text

    def test_records_are_named_tuples(self):
        (rec,) = run_point(base_config()).records
        assert tuple(rec) == tuple(getattr(rec, name) for name in CSV_COLUMNS)
        failed = rec._replace(stable=False, error="bad, worse")
        assert failed == ResultRecord(*rec[:9], False, *rec[10:-1], error="bad, worse")
        cells = csv_text([failed]).splitlines()[1].split(",")
        assert cells[CSV_COLUMNS.index("stable")] == "false"
        assert cells[-1] == "bad; worse"


@st.composite
def record_tables(draw):
    """Sweep records with the cell kinds of the record layout.  The input
    cells come from a small pool per table, a few values, their negations
    and both zeros, so that they repeat and a column can hold both 0.0 and
    -0.0; the optional cells are None or any float."""
    pool = draw(st.lists(FLOAT_CELLS, min_size=1, max_size=3))
    inputs = st.lists(st.sampled_from([0.0, -0.0, *pool, *(-value for value in pool)]),
                      min_size=6, max_size=6)
    optional = st.lists(st.one_of(st.none(), FLOAT_CELLS), min_size=16, max_size=16)
    record = st.builds(lambda cells, rest, stable, branch, error: ResultRecord(
        *cells, *rest[:3], stable, *rest[3:], branch, error),
        inputs, optional, st.booleans(), st.integers(-(10 ** 20), 10 ** 20), ERROR_TEXTS)
    return draw(st.lists(record, max_size=8))


@settings(max_examples=100, deadline=None)
@given(records=record_tables())
def test_record_writer_matches_the_row_formatter(records):
    # csv_points and write_csv format records by the columns' kinds in the
    # record layout, not by their cells' types: the per-cell oracle's lines
    assert engine._record_text(records) == "".join(oracle_line(row) for row in records)


def test_row_formatter_rejects_rows_of_several_widths():
    # transposing rows of several widths would cut each to the shortest
    with pytest.raises(ValueError):
        engine._record_text([(1.0, 2.0)])
    assert engine._record_text([]) == ""


@st.composite
def map_tables(draw):
    """The columns of a stability map: finite delta and xi axes, and s1, s2
    and verdict columns of one entry per point.  The s1 and s2 cells come
    from a small pool per map, a few values and their negations, so that
    cells repeat and a column can hold both 0.0 and -0.0, or NaN and -NaN."""
    axis = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -2.5e-310, 1e300, 1 / 3]),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=4)
    deltas, xis = draw(axis), draw(axis)
    count = len(deltas) * len(xis)
    pool = draw(st.lists(FLOAT_CELLS, min_size=1, max_size=3))
    pool += [-value for value in pool]
    cells = [st.lists(st.sampled_from(pool), min_size=count, max_size=count)] * 2 + [
        st.lists(st.booleans(), min_size=count, max_size=count)] * 3
    return MapColumns(deltas, xis, *(draw(column) for column in cells))


@settings(max_examples=100, deadline=None)
@given(columns=map_tables())
def test_stability_writer_matches_the_row_formatter(columns):
    # the CLI's columnar writer gives the per-cell oracle's lines of the
    # map's reports, NaN empty and +-inf spelled out
    reports = columns.reports()
    assert len(reports) == len(columns.delta) * len(columns.xi)
    assert stability_csv(columns) == "".join(oracle_line(row) for row in reports)


class TestValidation:
    def test_too_many_axes(self):
        with pytest.raises(ConfigError):
            base_config(axes=(
                AxisSpec("delta", (0.0, 1.0)),
                AxisSpec("xi", (0.0, 1.0)),
                AxisSpec("power", (0.01, 0.02)),
            ))

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError):
            base_config(axes=(AxisSpec("delta", (0.0, 1.0)), AxisSpec("delta", (2.0, 3.0))))

    def test_axis_needs_two_values(self):
        with pytest.raises(ConfigError):
            AxisSpec("delta", (1.0,))

    def test_axis_range_constructor(self):
        ax = AxisSpec.from_range("delta", 0.0, 2.0, 5)
        assert ax.values == (0.0, 0.5, 1.0, 1.5, 2.0)
        with pytest.raises(ConfigError):
            AxisSpec.from_range("delta", 0.0, math.inf, 5)

    def test_unknown_axis_name(self):
        with pytest.raises(ConfigError):
            AxisSpec("detuning", (0.0, 1.0))

    def test_bad_branch_policy(self):
        with pytest.raises(ConfigError):
            base_config(branch_policy="first")

    def test_bad_detuning_sign(self):
        with pytest.raises(ConfigError, match="detuning_sign"):
            base_config(detuning_sign="sideways")

    def test_bath_marker_other_than_ideal(self):
        with pytest.raises(ConfigError, match="'ideal'"):
            BathSpec(photon_number=0.05, correlation="maximal")
        assert BathSpec(photon_number=0.05, correlation="ideal").resolve().correlation == (
            pytest.approx(math.sqrt(0.05 * 1.05), rel=1e-15)
        )


def test_import_loads_no_scipy():
    # neither mode needs SciPy: effective-mode and bare-mode points run without it
    code = (
        "import sys\n"
        "import hopcav\n"
        "from hopcav.engine import run_point\n"
        "from hopcav.presets import fig_preset\n"
        "assert run_point(fig_preset('fig6b'), {'delta': 1.0, 'xi': 0.5}).records[0].stable\n"
        "assert run_point(fig_preset('fig2a'), {'delta': 1.0, 'power': 0.035}).records\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(hopcav.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
