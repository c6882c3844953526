"""Sweep orchestration: the batched point pipeline, parameter grids, and CSV
emission.

A batch of grid points runs

    point setup from the sweep's axis tables -> working points -> the stability
    gate (stacked 8x8 drifts, one Hurwitz gate, stability scalars; shared
    with the stability map, see :func:`hopcav.stability.gate_branches`) ->
    grouped Lyapunov solves of the stable branches -> stacked pair measures
    -> one record per row

as NumPy columns with one row per branch, from the working points to the
records, which are built with one ``zip``.  The per-point objects
(:class:`SteadyState`, :class:`PointResult`) are built only where a caller
reads them: ``run_point`` (and so ``hopcav point``) and the bare-mode solver.

The work that does not depend on the point runs once per sweep: the base
parameters' couplings and bath, and, when the sweep starts, each axis value's
check and what it derives (drive amplitudes, thermal occupation, bath), in
one table per axis; each distinct (N, M, nbar) builds one diffusion matrix.
A grid point is one index per axis and works on plain floats.  In effective
mode the working points are the closed form
(:func:`hopcav.steady_state.fixed_detuning_points`); in bare mode each point
runs the self-consistent solver.

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
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import DETUNING_SIGNS, build_diffusion
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, RESIDUAL_GATE, lyapunov_stack
from .measures import pair_measures
from .params import Detuning, PhysicalParams, derive_coupling, drive_amps, thermal_occupation
from .squeezed import SqueezedBath
from .stability import Gate, gate_branches
from .steady_state import SteadyState, fixed_detuning_points, solve_self_consistent

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the batch calls the batched working points and stacked kernels instead
from .dynamics import figure_drift  # noqa: F401
from .stability import routh_hurwitz_reduced  # noqa: F401
from .steady_state import solve_fixed_detuning  # noqa: F401
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
# the parameter field each axis sets; nbar and photon_number set none
AXIS_FIELDS = {
    "delta": "detuning",
    "xi": "hop_strength",
    "power": "drive_power",
    "temperature": "bath_temperature",
}
BRANCH_POLICIES = ("default", "all")

CSV_COLUMNS = (
    "delta", "xi", "power", "nbar", "photon_number", "correlation",
    "amp1", "amp2", "coupling_ratio", "stable", "s1", "s2",
    "en_f1m1", "en_f2m2", "en_m1m2", "en_f1f2",
    "theta_f1m1", "theta_f2m2", "theta_m1m2", "theta_f1f2",
    "fidelity", "fidelity_bound", "lyap_residual", "branch", "error",
)
# every column but the last, the error text
_VALUE_CELLS = operator.attrgetter(*CSV_COLUMNS[:-1])


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


@dataclass(frozen=True, slots=True)
class ResultRecord:
    """One output row; measure fields are None at unstable or failed points."""

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


MEASURE_FIELDS = (
    "en_f1m1", "en_f2m2", "en_m1m2", "en_f1f2",
    "theta_f1m1", "theta_f2m2", "theta_m1m2", "theta_f1f2",
    "fidelity", "fidelity_bound",
)


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


def _axis_value(params: PhysicalParams, name: str, value: float):
    """The value an axis gives its parameter field (see ``AXIS_FIELDS``)."""
    omega_m = params.mech_freq[0]
    if name == "delta":
        return Detuning(params.detuning.mode, (value * omega_m, value * omega_m))
    if name == "xi":
        return value * omega_m
    if name == "power":
        return (value, value)
    return value


class _Point(NamedTuple):
    """A grid point set up for its working point."""

    head: tuple          # the record's first six cells, delta to correlation
    lang: tuple          # Langevin detunings, rad/s
    hop: float           # rad/s
    powers: tuple        # W
    drives: tuple        # drive amplitudes |E_j|
    symmetric: bool      # identical cavities and drives
    diffusion: np.ndarray | HopcavError


class _Sweep:
    """What the points of one sweep share, worked out once: the base
    parameters' couplings and bath and, for each axis, a table with one entry
    per value: what the value derives, or the error its check (the
    ``PhysicalParams`` validation of the field it sets, the bath of a photon
    number) raised.  A grid point is one index per axis."""

    def __init__(self, config: SweepConfig, axes: list[tuple[str, tuple]]):
        p = config.params
        self.config = config
        self.omega_m = p.mech_freq[0]
        self.coupling = tuple(derive_coupling(p, j) for j in (1, 2))
        self.defaults = {name: self._derive(p, name) for name in AXIS_FIELDS}
        self.diffusions: dict = {}  # (N, M, nbar) -> diffusion or error
        self.bare: dict = {}        # (hop, powers) -> parameters of the bare-mode solver
        self.bath = self._resolve(None)
        self.axes = [(name, values, [self._entry(name, v) for v in values])
                     for name, values in axes]

    def _derive(self, params: PhysicalParams, name: str):
        """What the field an axis sets gives a point: record cells and
        working-point inputs (thermal occupation for the temperature)."""
        if name == "delta":
            value = params.detuning.value
            # the Langevin solver runs with the opposite-signed detunings; see
            # the module docstring for the axis convention
            return value[0] / self.omega_m, (-value[0], -value[1])
        if name == "xi":
            return params.hop_strength / self.omega_m, params.hop_strength
        if name == "power":
            return params.drive_power, drive_amps(params), params.is_symmetric
        return thermal_occupation(self.omega_m, params.bath_temperature)

    def _entry(self, name: str, value: float):
        """The table entry of one axis value."""
        if name == "photon_number":
            return self._resolve(value)
        if name == "nbar":
            return float(value)
        if name not in AXIS_FIELDS:
            return ConfigError(f"unknown axis {name!r}")
        base = self.config.params
        try:
            params = replace(base, **{AXIS_FIELDS[name]: _axis_value(base, name, value)})
        except HopcavError as exc:
            return exc
        if base.detuning.mode == "bare":
            # the checked parameters serve the bare-mode solver, which reads
            # only the hopping strength and the drive powers from them
            self.bare.setdefault((params.hop_strength, params.drive_power), params)
        return self._derive(params, name)

    def _resolve(self, photon_number: float | None):
        try:
            return self.config.bath.resolve(photon_number=photon_number)
        except HopcavError as exc:
            return exc

    def _diffusion(self, bath: SqueezedBath, nbar: float):
        """The diffusion matrix, or the error building it raised; the grid axes
        change only the bath and the occupation."""
        key = (bath.photon_number, bath.correlation, nbar)
        if key not in self.diffusions:
            try:
                self.diffusions[key] = build_diffusion(self.config.params, bath, nbar)
            except HopcavError as exc:
                self.diffusions[key] = exc
        return self.diffusions[key]

    def point(self, index: tuple[int, ...]) -> _Point | HopcavError:
        """Set up the grid point at one index per axis, or return the error of
        its first bad axis in the axes' order, else of its bath."""
        found = dict(self.defaults, photon_number=self.bath)
        for (name, _, entries), i in zip(self.axes, index):
            entry = entries[i]
            if isinstance(entry, HopcavError) and name != "photon_number":
                return entry
            found[name] = entry
        bath = found["photon_number"]
        if isinstance(bath, HopcavError):
            return bath
        if "nbar" in found:
            nbar = found["nbar"]
        elif self.config.nbar_override is not None:
            nbar = float(self.config.nbar_override)
        else:
            nbar = found["temperature"]

        delta, lang = found["delta"]
        xi, hop = found["xi"]
        powers, drives, symmetric = found["power"]
        head = (delta, xi, powers[0], nbar, bath.photon_number, bath.correlation)
        return _Point(head, lang, hop, powers, drives, symmetric, self._diffusion(bath, nbar))

    def axis_values(self, index: tuple[int, ...]) -> dict[str, float]:
        """The axis values of the grid point at ``index``."""
        return {name: values[i] for (name, values, _), i in zip(self.axes, index)}

    def bare_params(self, hop: float, powers: tuple) -> PhysicalParams:
        """Parameters of the bare-mode solver, which reads the hopping strength
        and the drive powers from them (all fields already checked)."""
        key = (hop, powers)
        if key not in self.bare:
            self.bare[key] = replace(self.config.params, hop_strength=hop, drive_power=powers)
        return self.bare[key]


# measure cells and Lyapunov residual of a row without a covariance
_UNMEASURED = (None,) * (len(MEASURE_FIELDS) + 1)


class _Batch(NamedTuple):
    """A batch of grid points evaluated as columns, one entry per branch, up
    to the records; what ``run_point`` reports besides a point's records is
    read from here."""

    outcomes: list      # per point: its failed record, or the indices of its emitted branches
    records: list       # per branch: its record
    points: list        # per branch: its grid point
    steady: Callable[[int], SteadyState]   # the working point of a branch
    gate: Gate
    covariances: dict   # measured branch -> its covariance


def _evaluate(sweep: _Sweep, points: list[tuple[int, ...]]) -> _Batch:
    """Evaluate a batch of grid points of one sweep, each one index per axis.

    Per-point errors are caught and recorded in the ``error`` field so that
    sweeps continue.
    """
    config = sweep.config
    p = config.params
    outcomes: list = [None] * len(points)
    ready: list[tuple[int, _Point]] = []
    for k, index in enumerate(points):
        point = sweep.point(index)
        if isinstance(point, HopcavError):
            values = sweep.axis_values(index)
            outcomes[k] = ResultRecord(
                delta=float(values.get("delta", np.nan)),
                xi=float(values.get("xi", np.nan)),
                power=float(values.get("power", np.nan)),
                nbar=float(values.get("nbar", np.nan)),
                photon_number=float(values.get("photon_number", np.nan)),
                correlation=np.nan,
                error=str(point),
            )
        else:
            ready.append((k, point))

    # the working points as columns, one row per branch
    branches: list[tuple[int, _Point]] = []
    if p.detuning.mode == "effective":
        working = fixed_detuning_points(
            p.cavity_decay, p.mech_freq, sweep.coupling, [pt.drives for _, pt in ready],
            [pt.hop for _, pt in ready], [pt.lang for _, pt in ready],
        )
        for (k, pt), error in zip(ready, working.errors):
            if error is None:
                branches.append((k, pt))
            else:
                outcomes[k] = ResultRecord(*pt.head, error=str(error))
        kept = [i for i, error in enumerate(working.errors) if error is None]
        columns = (working.amp_abs, working.eff_coupling, working.eff_detuning)
        if len(kept) < len(ready):
            columns = tuple(column[kept] for column in columns)
        amp_abs, coupling, detuning = columns
        numbers = [0] * len(branches)

        def steady(j: int) -> SteadyState:
            return working.steady(kept[j])
    else:
        states: list[SteadyState] = []
        for k, pt in ready:
            try:
                found = solve_self_consistent(sweep.bare_params(pt.hop, pt.powers), *pt.lang)
            except HopcavError as exc:
                outcomes[k] = ResultRecord(*pt.head, error=str(exc))
                continue
            branches.extend((k, pt) for _ in found)
            states.extend(found)
        amp_abs = np.array([(abs(st.amp[0]), abs(st.amp[1])) for st in states]).reshape(-1, 2)
        coupling = np.array([st.eff_coupling for st in states]).reshape(-1, 2)
        detuning = np.array([st.eff_detuning for st in states]).reshape(-1, 2)
        numbers = [st.branch for st in states]
        steady = states.__getitem__

    gate = gate_branches(p, coupling, detuning, [pt.hop for _, pt in branches],
                         [pt.symmetric for _, pt in branches], config.detuning_sign)
    errors = list(gate.errors)
    solve = []
    for j, ((_, pt), stable) in enumerate(zip(branches, gate.verdicts)):
        if stable:
            if isinstance(pt.diffusion, HopcavError):
                errors[j] = pt.diffusion
            else:
                solve.append(j)

    measured = [_UNMEASURED] * len(branches)
    covariances = {}
    if solve:
        w, residuals = lyapunov_stack(gate.drifts.take(solve, axis=0),
                                      np.array([branches[j][1].diffusion for j in solve]))
        measures = pair_measures(w)
        for j, wj, residual, row, error in zip(solve, w, residuals.tolist(),
                                                zip(*measures.columns), measures.errors):
            if error is None:
                measured[j] = (*row, residual)
                covariances[j] = wj
            else:
                errors[j] = error

    records = []
    if branches:
        records = list(map(
            ResultRecord, *zip(*[pt.head for _, pt in branches]),
            amp_abs[:, 0].tolist(), amp_abs[:, 1].tolist(),
            (coupling[:, 0] / sweep.omega_m).tolist(), gate.verdicts, gate.s1, gate.s2,
            *zip(*measured), numbers, ["" if e is None else str(e) for e in errors],
        ))
    for k, group in itertools.groupby(range(len(branches)), key=lambda j: branches[j][0]):
        rows = list(group)
        if config.branch_policy == "default" and len(rows) > 1:
            # default branch: the lowest-|amp| stable one, else the lowest-|amp|
            rows = [next((j for j in rows if records[j].stable), rows[0])]
        outcomes[k] = rows
    return _Batch(outcomes, records, [pt for _, pt in branches], steady, gate, covariances)


def run_points(sweep: _Sweep, points: list[tuple[int, ...]]) -> list[ResultRecord]:
    """Evaluate a batch of grid points of one sweep, each one index per axis;
    the records of every point, in order (with branch rows kept adjacent).

    Per-point errors are caught and recorded in the ``error`` field so that
    sweeps continue.
    """
    batch = _evaluate(sweep, points)
    records = []
    for outcome in batch.outcomes:
        if isinstance(outcome, ResultRecord):
            records.append(outcome)
        else:
            records.extend([batch.records[j] for j in outcome])
    return records


def misses_residual_gate(rec: ResultRecord) -> bool:
    """A stable row whose Lyapunov residual is missing, NaN or not below the
    gate: a numerical failure."""
    return rec.stable and not (rec.lyap_residual is not None and rec.lyap_residual < RESIDUAL_GATE)


def run_point(config: SweepConfig, overrides: dict[str, float] | None = None) -> PointResult:
    """Evaluate one grid point, a batch of one sweep whose axes have one value
    each; returns one record per emitted branch."""
    axes = [(name, (value,)) for name, value in (overrides or {}).items()]
    batch = _evaluate(_Sweep(config, axes), [(0,) * len(axes)])
    (outcome,) = batch.outcomes
    if isinstance(outcome, ResultRecord):
        return PointResult(records=(outcome,), covariances=(None,), steady_states=(None,),
                           drifts=(None,), diffusion=None)
    gate = batch.gate
    return PointResult(
        records=tuple([batch.records[j] for j in outcome]),
        covariances=tuple([batch.covariances.get(j) for j in outcome]),
        steady_states=tuple([batch.steady(j) for j in outcome]),
        drifts=tuple([gate.drifts[j] if gate.errors[j] is None else None for j in outcome]),
        diffusion=batch.points[outcome[0]].diffusion,
    )


def grid_points(config: SweepConfig) -> list[dict[str, float]]:
    """Row-major list of axis-override dicts for the configured grid."""
    names = [a.name for a in config.axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(a.values for a in config.axes))
    ]


def _chunk_records(args) -> list[ResultRecord]:
    return run_points(*args)


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ResultRecord, ...]
    residual_failure: bool


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Evaluate the whole grid in chunks; rows come out in row-major grid
    order (with branch rows kept adjacent) regardless of the worker count.

    With ``workers > 1`` a process pool evaluates the chunks, made small
    enough that every worker gets several.
    """
    sweep = _Sweep(config, [(a.name, a.values) for a in config.axes])
    points = list(itertools.product(*(range(len(a.values)) for a in config.axes)))
    size = CHUNK_POINTS
    if workers > 1:
        size = min(size, -(-len(points) // (CHUNKS_PER_WORKER * workers)))
    chunks = [(sweep, points[i:i + size]) for i in range(0, len(points), size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(_chunk_records, chunks))
    else:
        per_chunk = [_chunk_records(chunk) for chunk in chunks]

    records = tuple(itertools.chain.from_iterable(per_chunk))
    return SweepResult(records=records, residual_failure=any(map(misses_residual_gate, records)))


def format_cell(value) -> str:
    """A CSV cell: floats with 12 significant digits, booleans as true/false,
    None and NaN as empty cells."""
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


def write_csv(records, stream, header_lines=()) -> None:
    """Emit records as CSV: '#' header lines, one column-name row, then data.

    Floats use 12 significant digits and missing values are empty cells, so
    repeated runs of the same configuration are byte-identical.
    """
    for line in header_lines:
        stream.write(f"# {line}\n")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        cells = [format_cell(v) for v in _VALUE_CELLS(rec)]
        cells.append(rec.error.replace(",", ";").replace("\n", " "))
        stream.write(",".join(cells) + "\n")


def csv_text(records, header_lines=()) -> str:
    buf = io.StringIO()
    write_csv(records, buf, header_lines)
    return buf.getvalue()
