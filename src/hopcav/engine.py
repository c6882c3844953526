"""Sweep orchestration: the batched point pipeline, parameter grids, and CSV
emission.

A batch of grid points runs

    working points, point by point -> stacked 8x8 drifts -> one Hurwitz
    gate -> grouped Lyapunov solves of the stable branches -> stacked pair
    measures + stability scalars -> one record per row

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

import numpy as np

from .dynamics import DETUNING_SIGNS, build_diffusion, drift_stack
from .errors import ConfigError, HopcavError
from .lyapunov import CHUNK_POINTS, RESIDUAL_GATE, hurwitz_gate, lyapunov_stack
from .measures import pair_measures
from .params import Detuning, PhysicalParams, thermal_occupation
from .squeezed import SqueezedBath
from .stability import routh_hurwitz_reduced
from .steady_state import SteadyState, solve_fixed_detuning, solve_self_consistent

# bound for the span tracer of the benchmark (perfbench/spans.py PATCHES);
# the batch calls the stacked kernels instead
from .dynamics import figure_drift  # noqa: F401
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
_KNOWN_AXES = frozenset(AXIS_NAMES)
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


def _point_setup(config: SweepConfig, overrides: dict[str, float]):
    """Apply axis overrides to the base configuration."""
    params = config.params
    try:
        if not overrides.keys() <= _KNOWN_AXES:
            raise ConfigError("unknown axis")
        updates = {AXIS_FIELDS[name]: _axis_value(params, name, value)
                   for name, value in overrides.items() if name in AXIS_FIELDS}
        if updates:
            params = replace(params, **updates)
    except HopcavError:
        # one axis at a time, so that the first bad axis, in the overrides'
        # order, gives the error
        for name, value in overrides.items():
            if name in AXIS_FIELDS:
                params = replace(params, **{AXIS_FIELDS[name]: _axis_value(params, name, value)})
            elif name not in AXIS_NAMES:
                raise ConfigError(f"unknown axis {name!r}") from None

    if "nbar" in overrides:
        nbar = float(overrides["nbar"])
    elif config.nbar_override is not None:
        nbar = float(config.nbar_override)
    else:
        nbar = thermal_occupation(params.mech_freq[0], params.bath_temperature)

    n_over = overrides.get("photon_number")
    bath = config.bath.resolve(photon_number=n_over)
    return params, bath, nbar


def _failed(rec: ResultRecord) -> PointResult:
    return PointResult(records=(rec,), covariances=(None,), steady_states=(None,), drifts=(None,),
                       diffusion=None)


def _diffusion(cache: dict, params: PhysicalParams, bath: SqueezedBath, nbar: float):
    """The diffusion matrix, or the error building it raised; the grid axes
    change only the bath and the occupation, so one batch builds it once per
    distinct pair."""
    key = (bath.photon_number, bath.correlation, nbar)
    if key not in cache:
        try:
            cache[key] = build_diffusion(params, bath, nbar)
        except HopcavError as exc:
            cache[key] = exc
    return cache[key]


def _gate(config: SweepConfig, hops: list[float], steadies: list[SteadyState]):
    """Drifts, Hurwitz verdicts and error texts (None where fine) of the
    branches' working points.  When a stacked call raises, the branches are
    redone one by one, so that only a failing branch carries the error."""
    if not steadies:
        return [], [], []
    p = config.params
    try:
        drifts = drift_stack(
            p.mech_freq, p.mech_damping, p.cavity_decay,
            [st.eff_coupling for st in steadies],
            # the figure convention: negated Langevin detunings (see figure_drift)
            [(-st.eff_detuning[0], -st.eff_detuning[1]) for st in steadies],
            hops, config.detuning_sign,
        )
        return drifts, hurwitz_gate(drifts)[0].tolist(), [None] * len(steadies)
    except HopcavError as exc:
        if len(steadies) == 1:
            return [None], [False], [str(exc)]
    parts = [_gate(config, [h], [st]) for h, st in zip(hops, steadies)]
    return tuple([x for part in parts for x in part[i]] for i in range(3))


def run_points(config: SweepConfig, points: list[dict[str, float]]) -> list[PointResult]:
    """Evaluate a batch of grid points; one result per point, in order.

    Per-point errors are caught and recorded in the ``error`` field so that
    sweeps continue.
    """
    omega_m = config.params.mech_freq[0]
    results: list[PointResult | None] = [None] * len(points)
    heads = {}      # point index -> (record fields, diffusion)
    branches = []   # (point index, params, working point)
    cache: dict = {}
    for k, overrides in enumerate(points):
        try:
            params, bath, nbar = _point_setup(config, overrides)
            base = dict(
                delta=params.detuning.value[0] / omega_m,
                xi=params.hop_strength / omega_m,
                power=params.drive_power[0],
                nbar=nbar,
                photon_number=bath.photon_number,
                correlation=bath.correlation,
            )
        except HopcavError as exc:
            results[k] = _failed(ResultRecord(
                delta=float(overrides.get("delta", np.nan)),
                xi=float(overrides.get("xi", np.nan)),
                power=float(overrides.get("power", np.nan)),
                nbar=float(overrides.get("nbar", np.nan)),
                photon_number=float(overrides.get("photon_number", np.nan)),
                correlation=np.nan,
                error=str(exc),
            ))
            continue
        try:
            # the Langevin solver runs with the opposite-signed detunings; see
            # the module docstring for the axis convention
            lang = tuple(-v for v in params.detuning.value)
            if params.detuning.mode == "effective":
                steadies = [solve_fixed_detuning(params, lang[0], lang[1])]
            else:
                steadies = solve_self_consistent(params, lang[0], lang[1])
        except HopcavError as exc:
            results[k] = _failed(ResultRecord(**base, error=str(exc)))
            continue
        heads[k] = (base, _diffusion(cache, params, bath, nbar))
        branches.extend((k, params, st) for st in steadies)

    drifts, stable, errors = _gate(
        config, [b[1].hop_strength for b in branches], [b[2] for b in branches]
    )
    fields = []
    solve = []
    for j, (k, params, steady) in enumerate(branches):
        f = dict(
            heads[k][0],
            amp1=abs(steady.amp[0]),
            amp2=abs(steady.amp[1]),
            coupling_ratio=steady.eff_coupling[0] / omega_m,
            branch=steady.branch,
        )
        fields.append(f)
        if errors[j] is not None:
            continue
        if params.is_symmetric:
            # the figure-convention effective detuning, also valid in bare
            # mode where the shift has been absorbed
            dfig = -steady.eff_detuning[0]
            f["s1"], f["s2"] = routh_hurwitz_reduced(
                params.mech_freq[0],
                params.mech_damping[0],
                params.cavity_decay[0],
                steady.eff_coupling[0],
                dfig + params.hop_strength,
            )
        f["stable"] = stable[j]
        if stable[j]:
            diffusion = heads[k][1]
            if isinstance(diffusion, HopcavError):
                errors[j] = str(diffusion)
            else:
                solve.append(j)

    covariances: list[np.ndarray | None] = [None] * len(branches)
    if solve:
        w, residuals = lyapunov_stack(
            np.stack([drifts[j] for j in solve]),
            np.stack([heads[branches[j][0]][1] for j in solve]),
        )
        for j, wj, residual, measures in zip(solve, w, residuals.tolist(), pair_measures(w)):
            if isinstance(measures, HopcavError):
                errors[j] = str(measures)
            else:
                fields[j].update(zip(MEASURE_FIELDS, measures), lyap_residual=residual)
                covariances[j] = wj

    per_point: dict[int, list[int]] = {}
    for j, (k, _, _) in enumerate(branches):
        per_point.setdefault(k, []).append(j)
    for k, rows in per_point.items():
        records = [ResultRecord(**fields[j], error=errors[j] or "") for j in rows]
        if config.branch_policy == "default" and len(records) > 1:
            # default branch: the lowest-|amp| stable one, else the lowest-|amp|
            chosen = next((i for i, r in enumerate(records) if r.stable), 0)
            rows = [rows[chosen]]
            records = [records[chosen]]
        results[k] = PointResult(
            records=tuple(records),
            covariances=tuple(covariances[j] for j in rows),
            steady_states=tuple(branches[j][2] for j in rows),
            drifts=tuple(drifts[j] for j in rows),
            diffusion=heads[k][1],
        )
    return results


def misses_residual_gate(rec: ResultRecord) -> bool:
    """A stable row whose Lyapunov residual is missing, NaN or not below the
    gate: a numerical failure."""
    return rec.stable and not (rec.lyap_residual is not None and rec.lyap_residual < RESIDUAL_GATE)


def run_point(config: SweepConfig, overrides: dict[str, float] | None = None) -> PointResult:
    """Evaluate one grid point, a batch of one; returns one record per
    emitted branch."""
    return run_points(config, [dict(overrides or {})])[0]


def grid_points(config: SweepConfig) -> list[dict[str, float]]:
    """Row-major list of axis-override dicts for the configured grid."""
    if not config.axes:
        return [{}]
    names = [a.name for a in config.axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(a.values for a in config.axes))
    ]


def _chunk_records(args) -> list[ResultRecord]:
    config, points = args
    return [rec for result in run_points(config, points) for rec in result.records]


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
    points = grid_points(config)
    size = CHUNK_POINTS
    if workers > 1:
        size = min(size, -(-len(points) // (CHUNKS_PER_WORKER * workers)))
    chunks = [(config, points[i:i + size]) for i in range(0, len(points), size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(_chunk_records, chunks))
    else:
        per_chunk = [_chunk_records(chunk) for chunk in chunks]

    records = tuple(itertools.chain.from_iterable(per_chunk))
    return SweepResult(records=records, residual_failure=any(map(misses_residual_gate, records)))


def _fmt(value) -> str:
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
        cells = [_fmt(v) for v in _VALUE_CELLS(rec)]
        cells.append(rec.error.replace(",", ";").replace("\n", " "))
        stream.write(",".join(cells) + "\n")


def csv_text(records, header_lines=()) -> str:
    buf = io.StringIO()
    write_csv(records, buf, header_lines)
    return buf.getvalue()
