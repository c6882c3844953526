"""Sweep orchestration: the batched point pipeline, parameter grids, and CSV
emission.

A batch of grid points runs

    inputs from the sweep's axis tables -> working points -> stacked 8x8
    drifts and diffusions -> the stability gate (stability scalars, Hurwitz
    verdicts from their signs or from eigenvalues; a stage shared with the
    stability map, see :func:`hopcav.stability.gate_branches`) ->
    grouped Lyapunov solves of the stable branches -> stacked pair measures
    -> one record per row

as NumPy columns with one row per branch, from the axis tables to the
records.  A record is a named tuple of its CSV cells, built with one
``tuple.__new__`` per branch row over one ``zip`` of the columns; only a
chunk with several branches at a point groups its rows, to keep each point's
default branch.  Only ``run_point`` (and so ``hopcav point``) builds the
per-point objects (:class:`SteadyState`, :class:`PointResult`).

Every CSV cell is written by one set of cell formatters, a column at a
time, each text with the separator that follows it; one joiner interleaves
the text columns into rows with one ``"".join``.  There are two table
layouts: records take their column kinds from the record layout
(:func:`write_csv`; :func:`csv_points`, with which ``hopcav sweep`` and
``hopcav fig`` format each chunk where it is evaluated, in a pool's worker
when there is one), and ``hopcav stability`` writes its map from the map's
columns (:func:`stability_csv`).  The input cells and the map's s1 and s2
repeat, so each distinct one is formatted once.  Every CSV file, of either
layout, is written by :func:`write_table`: its '# ' header lines, its
column row and its body.

The work that does not depend on the point runs once per sweep: the base
parameters' couplings and inputs and, when the sweep starts, each axis
value's check and the inputs it sets (drive amplitudes, thermal occupation,
bath), in one table per axis, so no ``PhysicalParams`` is built per point.
A batch's drifts and diffusions are one stacked call each, over all of its
branch rows (:func:`hopcav.dynamics.drift_stack`,
:func:`hopcav.dynamics.diffusion_stack`).  A batch is a flat range of
row-major grid indices, and index arithmetic on it selects each axis table's
rows.  The working points come from the batch's drive, hopping and
Langevin-detuning columns: in effective mode the closed form
(:func:`hopcav.steady_state.fixed_detuning_points`), in bare mode every fixed
point of the self-consistent problem
(:func:`hopcav.steady_state.self_consistent_points`), which solves the
batch's identical-cavity points with one stacked companion eigenvalue call
and keeps the batch's candidates in one table, by point, whose starting
values convert to extended precision at once.

One scheduler, :func:`map_chunks`, cuts the grid into chunks of at most
``CHUNK_POINTS`` points, which bounds the memory of the batch arrays, and runs
one task per chunk, on one worker or on a process pool: ``run_points`` for
``run_sweep``, ``csv_points`` for the CLI, and the batch for the one-worker
chunks that :func:`sweep_batches` yields as they are read.  ``run_point`` is a
batch of one.  Every stacked LAPACK call returns, matrix by matrix, what the
call on one matrix returns, so a point's record does not depend on its
batch.

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
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .dynamics import DETUNING_SIGNS, diffusion_stack, drift_stack
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
from .stability import MapColumns, gate_branches
from .steady_state import SteadyState, fixed_detuning_points, self_consistent_points

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the batch calls the batched working points and stacked kernels instead
from .dynamics import build_diffusion, figure_drift  # noqa: F401
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


def checked_nbar(value: float) -> float:
    """A thermal occupation, from the configuration or an nbar axis: finite
    and nonnegative."""
    if not 0.0 <= value < np.inf:
        raise ConfigError(f"nbar must be finite and nonnegative, got {value!r}")
    return value


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
        if self.nbar_override is not None:
            checked_nbar(self.nbar_override)
        # the label and each note are one '#' line of the CSV header
        texts = [("label", self.label)] + [("header_notes", note) for note in self.header_notes]
        for name, text in texts:
            if not isinstance(text, str) or "".join(text.splitlines()) != text:
                raise ConfigError(f"{name} must be text on one line, got {text!r}")
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
    ``diffusion`` is the point's diffusion matrix (None where the point
    failed a check).
    """

    records: tuple[ResultRecord, ...]
    covariances: tuple[np.ndarray | None, ...]
    steady_states: tuple[SteadyState | None, ...]
    drifts: tuple[np.ndarray | None, ...]
    diffusion: np.ndarray | None


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
    ``PhysicalParams`` field it sets (``params.checked_*``), an occupation by
    :func:`checked_nbar` as the configuration's, a photon number by its bath.
    Grid point k is the k-th point of the axes' product in row-major order.
    A sweep holds these tables and nothing that its chunks fill in, so every
    chunk of a pool is sent the same bytes."""

    def __init__(self, config: SweepConfig, axes: list[tuple[str, tuple]]):
        p = config.params
        names = [name for name, _ in axes]
        self.config = config
        self.omega_m = p.mech_freq[0]
        self.coupling = tuple(derive_coupling(p, j) for j in (1, 2))
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
                nbar = checked_nbar(value)
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


# the measure cells and Lyapunov residual of a row without a covariance
_UNMEASURED = (None,) * (len(MEASURES) + 1)


class _Batch(NamedTuple):
    """A batch of grid points evaluated as columns, one row per branch, up to
    the records, and what ``run_point`` and ``sweep_batches`` read besides."""

    records: list       # the emitted records in grid order, a point's branch rows adjacent
    rows: Sequence      # per emitted record: its branch row, or None for a point that failed
    steady: Callable[[int], SteadyState]  # the working point of a branch row
    drifts: np.ndarray  # (rows, 8, 8) figure-convention drifts of the branch rows
    diffusions: np.ndarray  # (rows, 8, 8) diffusion matrices of the branch rows
    errors: list        # per branch row: None, or the error that the gate raised
    w: np.ndarray       # the stationary covariances of the branch rows solved
    solved: np.ndarray  # per branch row: its index in w, or -1 if unstable or failed

    def covariances(self) -> list:
        """Per emitted record: its stationary covariance, or None (see ``solved``)."""
        return [None if j is None or self.solved[j] < 0 else self.w[self.solved[j]]
                for j in self.rows]


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

    hops = inputs[:, _HOP]
    # every branch row's drift and diffusion, once, for the Lyapunov solve of
    # the stable ones and for run_point (the gate assembles the rows it routes
    # itself)
    drifts = drift_stack(p.mech_freq, p.mech_damping, p.cavity_decay, coupling,
                         # the figure convention: negated Langevin detunings
                         -detuning, hops, config.detuning_sign)
    diffusions = diffusion_stack(p.mech_damping, p.cavity_decay, *inputs[:, _NOISE].T)
    gate = gate_branches(p, coupling, detuning, hops, config.detuning_sign)
    errors = list(gate.errors)
    solve = [j for j, stable in enumerate(gate.verdicts) if stable]

    # per branch row: its measure cells and Lyapunov residual; a row whose
    # measures fail keeps its residual, which tells a failed solve from a
    # measure of a good one
    measured = [_UNMEASURED] * len(owners)
    w, solved = np.empty((0, 8, 8)), np.full(len(owners), -1)
    if solve:
        w, residuals = lyapunov_stack(drifts.take(solve, axis=0), diffusions.take(solve, axis=0))
        solved[solve] = np.arange(len(solve))
        measures = pair_measures(w)
        for j, row, error in zip(solve, zip(*measures.columns, residuals.tolist()),
                                 measures.errors):
            if error is None:
                measured[j] = row
            else:
                measured[j] = (*_UNMEASURED[:-1], row[-1])
                errors[j] = error
                solved[j] = -1

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
    return _Batch(emitted, rows, working.steady, drifts, diffusions, gate.errors, w, solved)


def run_points(sweep: _Sweep, start: int, stop: int) -> list[ResultRecord]:
    """The records of grid points start to stop - 1 of one sweep: the chunk
    task of ``run_sweep``."""
    return _evaluate(sweep, start, stop).records


def csv_points(sweep: _Sweep, start: int, stop: int) -> tuple[str, int, bool]:
    """The CSV lines of grid points start to stop - 1 of one sweep, joined,
    with their record count and whether any record misses the residual gate:
    the chunk task of ``hopcav sweep`` and ``hopcav fig``."""
    records = run_points(sweep, start, stop)
    return _record_text(records), len(records), any(map(misses_residual_gate, records))


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
    records, rows, covariances = tuple(batch.records), batch.rows, tuple(batch.covariances())
    if rows[0] is None:
        return PointResult(records=records, covariances=covariances, steady_states=(None,),
                           drifts=(None,), diffusion=None)
    return PointResult(
        records=records,
        covariances=covariances,
        steady_states=tuple(map(batch.steady, rows)),
        drifts=tuple([batch.drifts[j] if batch.errors[j] is None else None for j in rows]),
        diffusion=batch.diffusions[rows[0]],
    )


def sweep_batches(config: SweepConfig) -> Iterator[tuple[list[ResultRecord], list]]:
    """Each one-worker chunk of :func:`map_chunks`, evaluated when it is read:
    its records with their covariances, aligned, as ``run_point`` has them."""
    return ((b.records, b.covariances()) for b in map_chunks(_evaluate, config))


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


def _chunks(points: int, workers: int = 1) -> list[tuple[int, int]]:
    """The (start, stop) ranges that cut a grid of ``points`` points into
    chunks of at most ``CHUNK_POINTS``, and for a pool small enough that each
    of its ``workers`` gets several."""
    size = CHUNK_POINTS
    if workers > 1:
        size = min(size, -(-points // (CHUNKS_PER_WORKER * workers)))
    return [(start, min(start + size, points)) for start in range(0, points, size)]


def map_chunks(task: Callable, config: SweepConfig, workers: int = 1) -> Iterable:
    """``task(sweep, start, stop)`` of each chunk of the grid, in grid order:
    on one worker a lazy ``map``, which runs a chunk's task when it is read;
    with ``workers > 1``, a list, run on a pool of at most one process per
    CPU this process may run on, each result sent back pickled."""
    sweep = _Sweep(config, [(a.name, a.values) for a in config.axes])
    workers = min(workers, _usable_cpus())
    starts, stops = zip(*_chunks(math.prod(sweep.shape), workers))
    if workers > 1:
        # only a pool needs concurrent.futures and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, itertools.repeat(sweep), starts, stops))
    return map(task, itertools.repeat(sweep), starts, stops)


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ResultRecord, ...]
    residual_failure: bool


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate the whole grid in chunks (:func:`map_chunks`); rows come out
    in row-major grid order (with branch rows kept adjacent) regardless of
    the worker count.  ``hopcav sweep`` takes each chunk's CSV text instead
    (:func:`csv_points`), which its worker formats.
    """
    records = tuple(itertools.chain.from_iterable(map_chunks(run_points, config, workers)))
    return SweepResult(records=records, residual_failure=any(map(misses_residual_gate, records)))


# The cell formatters: each takes a column of cells and the separator that
# follows them ("," or, after a row's last cell, "\n") and returns the
# column's texts, separator included.


def _float_cells(column, end: str) -> list[str]:
    """Floats with 12 significant digits, None and NaN as empty cells."""
    template = "%.12g" + end
    texts = [end if value is None else template % value for value in column]
    nan = "nan" + end
    return [end if text == nan else text for text in texts] if nan in texts else texts


def _distinct_cells(column, end: str) -> list[str]:
    """The texts of :func:`_float_cells` for a column of floats that repeat,
    each distinct bit pattern formatted once (not each value: 0.0 and -0.0
    print apart, and a NaN equals nothing)."""
    bits, inverse = np.unique(np.array(column, dtype=float).view(np.int64), return_inverse=True)
    texts = _float_cells(bits.view(float).tolist(), end)
    return np.array(texts, dtype=object)[inverse].tolist()


def _bool_cells(column, end: str) -> list[str]:
    true, false = "true" + end, "false" + end
    return [true if value else false for value in column]


def _int_cells(column, end: str) -> list[str]:
    return list(map(("%d" + end).__mod__, column))


def _text_cells(column, end: str) -> list[str]:
    """Text with commas as semicolons and newlines as spaces."""
    return [text.replace(",", ";").replace("\n", " ") + end for text in column]


def _joined(texts: list) -> str:
    """The CSV lines of the text columns ``texts`` (separators included), as
    one text."""
    width = len(texts)
    cells = [None] * sum(map(len, texts))
    for i, column in enumerate(texts):
        cells[i::width] = column
    return "".join(cells)


# each record column's formatter: the one of its default's type (None is an
# empty float cell), or, for the six input fields, which have no default and
# repeat within a chunk, the distinct route
_DEFAULT_CELLS = {bool: _bool_cells, int: _int_cells, str: _text_cells}
_RECORD_CELLS = [_DEFAULT_CELLS.get(type(ResultRecord._field_defaults[name]), _float_cells)
                 if name in ResultRecord._field_defaults else _distinct_cells
                 for name in CSV_COLUMNS]
_RECORD_ENDS = [","] * (len(CSV_COLUMNS) - 1) + ["\n"]


def _record_text(records) -> str:
    """The CSV lines of sweep records, joined, each column formatted by its
    kind in the record layout."""
    columns = list(zip(*records)) or [()] * len(CSV_COLUMNS)
    return _joined([cells(column, end) for cells, column, end
                    in zip(_RECORD_CELLS, columns, _RECORD_ENDS, strict=True)])


def stability_csv(columns: MapColumns) -> str:
    """The CSV lines of a stability map, from its columns, joined: one line
    per :class:`hopcav.stability.StabilityReport`, in its field order.  Each
    axis value is formatted once, and each distinct s1 and s2 cell once."""
    return _joined([*columns.per_point(_float_cells(columns.delta, ","),
                                       _float_cells(columns.xi, ",")),
                    _distinct_cells(columns.s1, ","), _distinct_cells(columns.s2, ","),
                    _bool_cells(columns.hurwitz_reduced, ","),
                    _bool_cells(columns.hurwitz_full, ","), _bool_cells(columns.agree, "\n")])


def write_table(stream, header_lines, columns, body: str) -> None:
    """Write one CSV file to ``stream``: a '# ' line per header line, the
    column-name row, then ``body``, the joined data lines, in one write (no
    copy of it is made)."""
    stream.write("".join([f"# {line}\n" for line in header_lines]) + ",".join(columns) + "\n")
    stream.write(body)


def write_csv(records, stream, header_lines=()) -> None:
    """Emit records as CSV: '#' header lines, one column-name row, then data.

    Floats use 12 significant digits and missing values are empty cells, so
    repeated runs of the same configuration are byte-identical.
    """
    write_table(stream, header_lines, CSV_COLUMNS, _record_text(records))


def csv_text(records, header_lines=()) -> str:
    buf = io.StringIO()
    write_csv(records, buf, header_lines)
    return buf.getvalue()
