"""Sweep orchestration: the batched point pipeline, parameter grids, and CSV
emission.

A batch of grid points runs

    inputs from the sweep's axis tables -> working points -> the stability
    gate (stacked 8x8 drifts, stability scalars, Hurwitz verdicts from their
    signs or from eigenvalues; a stage shared with the stability map, see
    :func:`hopcav.stability.gate_branches`) ->
    grouped Lyapunov solves of the stable branches -> stacked pair measures
    -> one record per row

as NumPy columns with one row per branch, from the axis tables to the
records.  A record is a named tuple of its CSV cells, built with one
``tuple.__new__`` per branch row over one ``zip`` of the columns; only a
chunk with several branches at a point groups its rows, to keep each point's
default branch.  The per-point objects (:class:`SteadyState`,
:class:`PointResult`) are built only where a caller reads them:
``run_point`` (and so ``hopcav point``).

Records become CSV lines through :func:`csv_lines`, which also writes any
rows of cells a library caller passes (a stability map's reports among
them): one ``%`` template per pattern of cells renders a whole row, and only
a line that reads 'nan' is rendered again.  ``hopcav stability`` writes its
map from the map's columns instead (:func:`hopcav.cli.stability_csv`), with
the same bytes.

The work that does not depend on the point runs once per sweep: the base
parameters' couplings and inputs and, when the sweep starts, each axis
value's check and the inputs it sets (drive amplitudes, thermal occupation,
bath), in one table per axis; each distinct (nbar, N, M) of a stable point
builds one diffusion matrix.  A batch is a flat range of row-major grid
indices, and index arithmetic on it selects each axis table's rows.  The
working points come from the batch's drive, hopping and Langevin-detuning
columns: in effective mode the closed form
(:func:`hopcav.steady_state.fixed_detuning_points`), in bare mode every fixed
point of the self-consistent problem
(:func:`hopcav.steady_state.self_consistent_points`), which solves the
batch's identical-cavity points with one stacked companion eigenvalue call
and keeps the batch's candidates in one table, by point, whose starting
values convert to extended precision at once.

``run_sweep`` evaluates the grid in chunks of at most ``CHUNK_POINTS`` points,
which bounds the memory of the batch arrays, and ``run_point`` is a batch of
one.  Every stacked LAPACK call returns, matrix by matrix, what the call on
one matrix returns, so a point's record does not depend on its batch.

Sweep detunings are quoted in the figure convention (positive on the cooling
side, in units of omega_m); the steady-state solver is evaluated with the
opposite-signed Langevin detunings, under which the intracavity amplitude
decreases monotonically with detuning and hopping, and the drift places the
positive values (see :func:`hopcav.dynamics.figure_drift`).

Entanglement is only reported where the full 8x8 drift is Hurwitz; unstable
points keep their coordinates and carry empty measure fields.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import NoneType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import DETUNING_SIGNS, build_diffusion
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, RESIDUAL_GATE, lyapunov_stack
from .measures import MEASURES, pair_measures
from .params import (
    PhysicalParams,
    checked_bath_temperature,
    checked_detuning,
    checked_drive_power,
    checked_hop_strength,
    derive_coupling,
    drive_amps,
    thermal_occupation,
)
from .squeezed import SqueezedBath
from .stability import Gate, gate_branches
from .steady_state import SteadyState, fixed_detuning_points, self_consistent_points

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the batch calls the batched working points and stacked kernels instead
from .dynamics import figure_drift  # noqa: F401
from .stability import routh_hurwitz_reduced  # noqa: F401
from .steady_state import solve_fixed_detuning, solve_self_consistent  # noqa: F401
from .lyapunov import is_hurwitz, solve_lyapunov  # noqa: F401
from .measures import (  # noqa: F401
    extract_pair,
    fidelity_bound,
    log_negativity,
    teleportation_fidelity,
)

# batches per worker process, so that a pool's workers share the grid evenly
CHUNKS_PER_WORKER = 4

AXIS_NAMES = ("delta", "xi", "power", "temperature", "nbar", "photon_number")
# a grid point's inputs, one column each, grouped by the axis that sets them:
# the record's first six cells (delta, xi, power, nbar, N, M) and what the
# working point takes (the Langevin detunings and the hopping in rad/s, the
# drive amplitudes |E_j|)
INPUTS = ("delta", "lang1", "lang2", "xi", "hop", "power", "drive1", "drive2",
          "nbar", "photon_number", "correlation")


def _span(first: str, last: str | None = None) -> slice:
    """The columns of INPUTS from ``first`` through ``last`` (or ``first``)."""
    return slice(INPUTS.index(first), INPUTS.index(last or first) + 1)


AXIS_INPUTS = {"delta": _span("delta", "lang2"), "xi": _span("xi", "hop"),
               "power": _span("power", "drive2"), "temperature": _span("nbar"),
               "nbar": _span("nbar"), "photon_number": _span("photon_number", "correlation")}
_LANGEVIN, _DRIVES, _NOISE = (_span("lang1", "lang2"), _span("drive1", "drive2"),
                              _span("nbar", "correlation"))
_HOP = INPUTS.index("hop")
BRANCH_POLICIES = ("default", "all")


@dataclass(frozen=True)
class AxisSpec:
    """One swept variable with its explicit grid values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 values")
        if not all(np.isfinite(vals)):
            raise ConfigError(f"axis {self.name!r} has non-finite values")

    @classmethod
    def from_range(cls, name: str, lo: float, hi: float, count: int) -> "AxisSpec":
        if count < 2:
            raise ConfigError(f"axis {name!r} count must be >= 2, got {count}")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError(f"axis {name!r} range must be finite")
        return cls(name, tuple(np.linspace(float(lo), float(hi), int(count))))


@dataclass(frozen=True)
class BathSpec:
    """Declarative bath: photon number plus either a fixed correlation or the
    marker ``ideal`` (correlation follows the photon number maximally)."""

    photon_number: float = 0.0
    correlation: float | str = 0.0

    def __post_init__(self):
        if isinstance(self.correlation, str) and self.correlation != "ideal":
            raise ConfigError(f"correlation must be a number or 'ideal', got {self.correlation!r}")
        for name in ("photon_number", "correlation"):
            value = getattr(self, name)
            if not isinstance(value, str) and not 0.0 <= value < np.inf:
                raise ConfigError(f"bath.{name} must be finite and nonnegative, got {value!r}")

    def resolve(self, photon_number: float | None = None) -> SqueezedBath:
        n = self.photon_number if photon_number is None else photon_number
        if self.correlation == "ideal":
            return SqueezedBath.ideal(n)
        return SqueezedBath(n, float(self.correlation))


@dataclass(frozen=True)
class SweepConfig:
    """Base parameters plus the declarative grid description."""

    params: PhysicalParams
    bath: BathSpec = BathSpec()
    axes: tuple[AxisSpec, ...] = ()
    nbar_override: float | None = None
    detuning_sign: str = "positive"
    branch_policy: str = "default"
    label: str = "sweep"
    header_notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= len(self.axes) <= 2:
            raise ConfigError(f"a sweep takes 1-2 axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate sweep axes: {names}")
        if self.branch_policy not in BRANCH_POLICIES:
            raise ConfigError(
                f"branch_policy must be one of {BRANCH_POLICIES}, got {self.branch_policy!r}"
            )
        if self.detuning_sign not in DETUNING_SIGNS:
            raise ConfigError(
                f"detuning_sign must be one of {DETUNING_SIGNS}, got {self.detuning_sign!r}"
            )
        if self.nbar_override is not None and not 0.0 <= self.nbar_override < np.inf:
            raise ConfigError(f"nbar must be finite and nonnegative, got {self.nbar_override!r}")
        if "photon_number" not in names:
            # the base bath serves every point
            try:
                self.bath.resolve()
            except HopcavError as exc:
                raise ConfigError(f"bath: {exc}") from exc


class ResultRecord(NamedTuple):
    """One output row, its cells in CSV column order; measure fields are None
    at unstable or failed points."""

    delta: float
    xi: float
    power: float
    nbar: float
    photon_number: float
    correlation: float
    amp1: float | None = None
    amp2: float | None = None
    coupling_ratio: float | None = None
    stable: bool = False
    s1: float | None = None
    s2: float | None = None
    en_f1m1: float | None = None
    en_f2m2: float | None = None
    en_m1m2: float | None = None
    en_f1f2: float | None = None
    theta_f1m1: float | None = None
    theta_f2m2: float | None = None
    theta_m1m2: float | None = None
    theta_f1f2: float | None = None
    fidelity: float | None = None
    fidelity_bound: float | None = None
    lyap_residual: float | None = None
    branch: int = 0
    error: str = ""


CSV_COLUMNS = ResultRecord._fields
# the input columns of the record's first six cells
_CELLS = [INPUTS.index(name) for name in CSV_COLUMNS[:6]]


@dataclass(frozen=True)
class PointResult:
    """Records for every emitted branch of one grid point.

    Alongside each record: the stationary covariance (None where unstable or
    failed), the working point and the drift (None where not reached).
    ``diffusion`` is the point's diffusion matrix, or the error building it
    raised.
    """

    records: tuple[ResultRecord, ...]
    covariances: tuple[np.ndarray | None, ...]
    steady_states: tuple[SteadyState | None, ...]
    drifts: tuple[np.ndarray | None, ...]
    diffusion: np.ndarray | HopcavError | None


class _Axis(NamedTuple):
    """One axis of a sweep, with one table row per value: the inputs it sets,
    or the error its check raised."""

    name: str
    values: tuple
    sets: slice           # the columns of INPUTS the axis sets
    inputs: np.ndarray    # (values, sets); a bad value's row is never read
    bad: np.ndarray       # per value: whether its check failed
    errors: tuple         # per value: the error its check raised, or None


class _Sweep:
    """What the points of one sweep share, worked out once, when the sweep
    starts: the base parameters' couplings and inputs (see ``INPUTS``), and
    each axis' table.  An axis value is checked by the check of the
    ``PhysicalParams`` field it sets (``params.checked_*``), a photon number
    by its bath.  Grid point k is the k-th point of the axes' product in
    row-major order."""

    def __init__(self, config: SweepConfig, axes: list[tuple[str, tuple]]):
        p = config.params
        names = [name for name, _ in axes]
        self.config = config
        self.omega_m = p.mech_freq[0]
        self.coupling = tuple(derive_coupling(p, j) for j in (1, 2))
        self.diffusions: dict = {}  # (nbar, N, M) -> diffusion or error
        self.shape = tuple(len(values) for _, values in axes)
        # the base bath's (N, M), or its error, which every point takes unless
        # a photon_number axis sets the bath
        self.bath, self.error = (np.nan, np.nan), None
        if "photon_number" not in names:
            try:
                bath = config.bath.resolve()
                self.bath = bath.photon_number, bath.correlation
            except HopcavError as exc:
                self.error = exc
        self.base = np.array(self._entry(None)[0])
        self.axes = []
        for name, values in axes:
            # the occupation: an nbar axis, else the override, else the temperature's
            sets = slice(0) if name == "temperature" and "nbar" in names else (
                AXIS_INPUTS.get(name, slice(0)))
            rows, errors = zip(*[self._entry(name, value) for value in values])
            self.axes.append(_Axis(name, values, sets, np.array(rows)[:, sets],
                                   np.array([e is not None for e in errors]), errors))

    def _entry(self, name: str | None, value: float = 0.0) -> tuple:
        """The inputs of a grid point whose one axis value is ``value`` (the
        base inputs for no axis) and None, or the base inputs and the error
        the value's check raised."""
        p, (n, m), nbar = self.config.params, self.bath, self.config.nbar_override
        (d1, d2), hop, power, temperature = (p.detuning.value, p.hop_strength, p.drive_power,
                                             p.bath_temperature)
        try:
            if name == "nbar":
                nbar = value
            elif name == "photon_number":
                bath = self.config.bath.resolve(photon_number=value)
                n, m = bath.photon_number, bath.correlation
            elif name == "delta":
                d1, d2 = checked_detuning((value * self.omega_m,) * 2)
            elif name == "xi":
                hop = checked_hop_strength(value * self.omega_m)
            elif name == "power":
                power = checked_drive_power((value, value))
            elif name == "temperature":
                temperature = checked_bath_temperature(value)
            elif name is not None:
                raise ConfigError(f"unknown axis {name!r}")
        except HopcavError as exc:
            return self.base, exc
        if nbar is None:
            nbar = thermal_occupation(self.omega_m, temperature)
        # the Langevin solver runs with the opposite-signed detunings; see the
        # module docstring for the axis convention
        return [d1 / self.omega_m, -d1, -d2, hop / self.omega_m, hop, power[0],
                *drive_amps(p, power), nbar, n, m], None

    def inputs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The inputs of grid points start to stop - 1, one row each, and
        whether each point failed a check."""
        # a point without axes is the grid of shape (1,)
        index = np.unravel_index(np.arange(start, stop), self.shape or (1,))
        rows = self.base[None].repeat(stop - start, 0)
        bad = np.zeros(stop - start, bool) | (self.error is not None)
        for axis, i in zip(self.axes, index):
            rows[:, axis.sets] = axis.inputs.take(i, 0)
            bad |= axis.bad.take(i)
        return rows, bad

    def failure(self, k: int) -> ResultRecord:
        """The record of grid point k, which failed a check: the error of its
        first bad axis in the axes' order, else of its bath, with its axis
        values as cells and NaN elsewhere."""
        index = np.unravel_index(k, self.shape)
        values = {axis.name: float(axis.values[i]) for axis, i in zip(self.axes, index)}
        checks = sorted(zip(self.axes, index), key=lambda check: check[0].name == "photon_number")
        error = next((axis.errors[i] for axis, i in checks if axis.bad[i]), self.error)
        return ResultRecord(*[values.get(name, np.nan) for name in CSV_COLUMNS[:6]],
                            error=str(error))

    def diffusion(self, nbar: float, photon_number: float, correlation: float):
        """The diffusion matrix of the last three inputs, or the error building
        it raised; the grid axes change only the bath and the occupation."""
        key = (nbar, photon_number, correlation)
        if key not in self.diffusions:
            try:
                self.diffusions[key] = build_diffusion(
                    self.config.params, SqueezedBath(photon_number, correlation), nbar)
            except HopcavError as exc:
                self.diffusions[key] = exc
        return self.diffusions[key]


# the measure cells and Lyapunov residual of a row without a covariance
_UNMEASURED = (None,) * (len(MEASURES) + 1)


class _Batch(NamedTuple):
    """A batch of grid points evaluated as columns, one row per branch, up to
    the records; what ``run_point`` reports besides a point's records is read
    from here."""

    records: list       # the emitted records in grid order, a point's branch rows adjacent
    rows: Sequence      # per emitted record: its branch row, or None for a point that failed
    inputs: np.ndarray  # per branch row: its point's inputs
    steady: Callable[[int], SteadyState]           # the working point of a branch row
    gate: Gate
    covariance: Callable[[int], np.ndarray | None]  # of a measured branch row, else None


def _evaluate(sweep: _Sweep, start: int, stop: int) -> _Batch:
    """Evaluate grid points start to stop - 1 of one sweep.

    Per-point errors are caught and recorded in the ``error`` field so that
    sweeps continue.
    """
    config = sweep.config
    p = config.params
    inputs, bad = sweep.inputs(start, stop)
    # the records of the points that fail, by batch position
    failed = {k: sweep.failure(start + k) for k in bad.nonzero()[0].tolist()}
    ready = (~bad).nonzero()[0]

    # the working points as columns, one row per branch, each naming its point
    inputs = inputs.take(ready, 0)
    points = fixed_detuning_points if p.detuning.mode == "effective" else self_consistent_points
    working = points(p.cavity_decay, p.mech_freq, sweep.coupling,
                     drives=inputs[:, _DRIVES].tolist(), hop_strength=inputs[:, _HOP].tolist(),
                     detuning=inputs[:, _LANGEVIN].tolist())
    for i, exc in working.errors.items():
        failed[ready[i].item()] = ResultRecord(*inputs[i].take(_CELLS).tolist(), error=str(exc))
    owners = ready.take(working.owner).tolist()
    inputs = inputs.take(working.owner, 0)
    amp_abs, coupling, detuning = working.amp_abs, working.eff_coupling, working.eff_detuning

    gate = gate_branches(p, coupling, detuning, inputs[:, _HOP], config.detuning_sign)
    errors = list(gate.errors)
    solve, diffusions = [], []
    for j, (stable, noise) in enumerate(zip(gate.verdicts, inputs[:, _NOISE].tolist())):
        if stable:
            diffusion = sweep.diffusion(*noise)
            if isinstance(diffusion, HopcavError):
                errors[j] = diffusion
            else:
                solve.append(j)
                diffusions.append(diffusion)

    # per branch row: its measure cells and Lyapunov residual; a row whose
    # measures fail keeps its residual, which tells a failed solve from a
    # measure of a good one
    measured = [_UNMEASURED] * len(owners)
    if solve:
        w, residuals = lyapunov_stack(gate.drifts.take(solve, axis=0), np.array(diffusions))
        measures = pair_measures(w)
        for j, row, error in zip(solve, zip(*measures.columns, residuals.tolist()),
                                 measures.errors):
            if error is None:
                measured[j] = row
            else:
                measured[j] = (*_UNMEASURED[:-1], row[-1])
                errors[j] = error

    def covariance(j: int) -> np.ndarray | None:
        return None if errors[j] is not None or measured[j] is _UNMEASURED else w[solve.index(j)]

    # one record per branch row, straight from the columns
    records = list(map(tuple.__new__, itertools.repeat(ResultRecord), zip(
        *inputs.take(_CELLS, 1).T.tolist(), *amp_abs.T.tolist(),
        (coupling[:, 0] / sweep.omega_m).tolist(), gate.verdicts, gate.s1, gate.s2,
        *zip(*measured), working.branch.tolist(),
        ["" if e is None else str(e) for e in errors],
    )))
    rows = range(len(records))
    if config.branch_policy == "default" and len(set(owners)) < len(owners):
        # a point's default branch: the lowest-|amp| stable one, else the lowest-|amp|
        rows = [next((j for j in group if gate.verdicts[j]), group[0])
                for group in (list(g) for _, g in itertools.groupby(rows, owners.__getitem__))]
    if failed:
        # in point order; only a point's own branch rows tie on the point, and
        # they keep their order
        order = sorted([*zip(map(owners.__getitem__, rows), rows), *dict.fromkeys(failed).items()])
        rows = [j for _, j in order]
        emitted = [failed[k] if j is None else records[j] for k, j in order]
    else:
        emitted = records if len(rows) == len(records) else [records[j] for j in rows]
    return _Batch(emitted, rows, inputs, working.steady, gate, covariance)


def run_points(sweep: _Sweep, start: int, stop: int) -> list[ResultRecord]:
    """Evaluate grid points start to stop - 1 of one sweep; the records of
    every point, in order (with branch rows kept adjacent).

    Per-point errors are caught and recorded in the ``error`` field so that
    sweeps continue.
    """
    return _evaluate(sweep, start, stop).records


def misses_residual_gate(rec: ResultRecord) -> bool:
    """A stable row with an error, or whose Lyapunov residual is missing, NaN
    or not below the gate: a numerical failure."""
    return rec.stable and not (rec.lyap_residual is not None
                               and rec.lyap_residual < RESIDUAL_GATE and not rec.error)


def run_point(config: SweepConfig, overrides: dict[str, float] | None = None) -> PointResult:
    """Evaluate one grid point, a batch of one sweep whose axes have one value
    each; returns one record per emitted branch."""
    sweep = _Sweep(config, [(name, (value,)) for name, value in (overrides or {}).items()])
    batch = _evaluate(sweep, 0, 1)
    records, rows = tuple(batch.records), batch.rows
    if rows[0] is None:
        return PointResult(records=records, covariances=(None,), steady_states=(None,),
                           drifts=(None,), diffusion=None)
    gate = batch.gate
    return PointResult(
        records=records,
        covariances=tuple(map(batch.covariance, rows)),
        steady_states=tuple(map(batch.steady, rows)),
        drifts=tuple([gate.drifts[j] if gate.errors[j] is None else None for j in rows]),
        diffusion=sweep.diffusion(*batch.inputs[rows[0], _NOISE].tolist()),
    )


def grid_points(config: SweepConfig) -> list[dict[str, float]]:
    """Row-major list of axis-override dicts for the configured grid."""
    names = [a.name for a in config.axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(a.values for a in config.axes))
    ]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform has
    one (``os.cpu_count`` also counts CPUs outside it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ResultRecord, ...]
    residual_failure: bool


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate the whole grid in chunks, flat ranges of grid points; rows
    come out in row-major grid order (with branch rows kept adjacent)
    regardless of the worker count.

    With ``workers > 1`` a process pool of at most one process per CPU this
    process may run on evaluates the chunks, made small enough that every
    worker gets several.
    """
    sweep = _Sweep(config, [(a.name, a.values) for a in config.axes])
    points = math.prod(sweep.shape)
    workers = min(workers, _usable_cpus())
    size = CHUNK_POINTS
    if workers > 1:
        size = min(size, -(-points // (CHUNKS_PER_WORKER * workers)))
    starts = range(0, points, size)
    chunks = (itertools.repeat(sweep), starts, [min(start + size, points) for start in starts])
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run_points, *chunks))
    else:
        per_chunk = list(map(run_points, *chunks))

    records = tuple(itertools.chain.from_iterable(per_chunk))
    return SweepResult(records=records, residual_failure=any(map(misses_residual_gate, records)))


def _getter(positions: list) -> Callable:
    """The cells of a row at ``positions``, as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return operator.itemgetter(*positions) if positions else lambda row: ()


class _RowPattern:
    """The CSV templates of the rows whose cells have one sequence of types.

    A template spells out a row's booleans, text and missing cells and
    formats its numbers: floats with 12 significant digits, integers as
    integers.  There is one per value of the boolean and text cells, and per
    set of NaN numbers, which it renders empty."""

    def __init__(self, kinds: tuple):
        self.kinds = kinds
        self.spelled = [i for i, kind in enumerate(kinds) if kind is bool or issubclass(kind, str)]
        self.numbers = [i for i, kind in enumerate(kinds)
                        if kind is not NoneType and i not in self.spelled]
        self.spelled_cells = _getter(self.spelled)
        self.templates: dict = {}  # (spelled cells, NaN numbers) -> template and its cells

    def line(self, row) -> str:
        spelled = self.spelled_cells(row)
        template, cells = self.templates.get((spelled, ())) or self._template(spelled, ())
        line = template % cells(row)
        if "nan" in line:
            nans = tuple([i for i in self.numbers if row[i] != row[i]])
            template, cells = self.templates.get((spelled, nans)) or self._template(spelled, nans)
            line = template % cells(row)
        return line

    def _template(self, spelled: tuple, nans: tuple) -> tuple[str, Callable]:
        texts = dict(zip(self.spelled, spelled))
        parts = []
        for i, kind in enumerate(self.kinds):
            if kind is bool:
                parts.append("true" if texts[i] else "false")
            elif i in texts:
                parts.append(texts[i].replace(",", ";").replace("\n", " ").replace("%", "%%"))
            elif kind is NoneType or i in nans:
                parts.append("")
            else:
                parts.append("%d" if issubclass(kind, (int, np.integer)) else "%.12g")
        entry = ",".join(parts) + "\n", _getter([i for i in self.numbers if i not in nans])
        self.templates[spelled, nans] = entry
        return entry


def csv_lines(rows) -> list[str]:
    """The CSV lines of rows of cells: floats with 12 significant digits,
    integers as integers, booleans as true/false, None and NaN as empty
    cells, and text with commas as semicolons and newlines as spaces.

    Each row is rendered by one ``%`` template, made once per pattern of
    cells (see :class:`_RowPattern`); a line that reads 'nan' is rendered
    again with its NaN cells empty.
    """
    patterns: dict = {}  # cell types -> _RowPattern
    lines = []
    for row in rows:
        kinds = tuple(map(type, row))
        pattern = patterns.get(kinds) or patterns.setdefault(kinds, _RowPattern(kinds))
        lines.append(pattern.line(row))
    return lines


def write_csv(records, stream, header_lines=()) -> None:
    """Emit records as CSV: '#' header lines, one column-name row, then data.

    Floats use 12 significant digits and missing values are empty cells, so
    repeated runs of the same configuration are byte-identical.
    """
    for line in header_lines:
        stream.write(f"# {line}\n")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    stream.writelines(csv_lines(records))


def csv_text(records, header_lines=()) -> str:
    buf = io.StringIO()
    write_csv(records, buf, header_lines)
    return buf.getvalue()
