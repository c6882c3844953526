"""JSON configuration ingestion.

Every dimensional field is an object ``{"value": x, "unit": u}``.  Frequencies
and rates given in Hz or MHz are ordinary (non-angular) frequencies and are
multiplied by 2 pi; ``rad/s`` is taken literally; ``omega_m`` means multiples
of the first cavity's mechanical frequency.  Detunings and sweep axes use the
figure convention: omega_m units, positive on the cooling side.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .engine import AXIS_NAMES, AxisSpec, BathSpec, SweepConfig
from .errors import ConfigError, HopcavError
from .params import Detuning, PhysicalParams
from .squeezed import DpoParams, SqueezedBath

TWO_PI = 2.0 * math.pi

# unit name -> (kind, scale to internal units); angular frequencies in rad/s
UNITS = {
    "Hz": ("frequency", TWO_PI),
    "MHz": ("frequency", TWO_PI * 1e6),
    "rad/s": ("frequency", 1.0),
    "omega_m": ("frequency", None),  # resolved against mech_freq
    "mm": ("length", 1e-3),
    "m": ("length", 1.0),
    "nm": ("length", 1e-9),
    "ng": ("mass", 1e-12),
    "kg": ("mass", 1.0),
    "mW": ("power", 1e-3),
    "W": ("power", 1.0),
    "K": ("temperature", 1.0),
    "dimensionless": ("dimensionless", 1.0),
}

# the units a power axis may name; the other axes take none
AXIS_POWER_UNITS = ("W", "mW")


def _number(value, field: str) -> float:
    try:
        # JSON's true and false, which float() reads as 1 and 0, and strings,
        # which it parses
        if isinstance(value, (bool, str)):
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: non-numeric value {value!r}") from exc


def _quantity(obj, field: str, kind: str, omega_m: float | None = None) -> float:
    if not isinstance(obj, dict) or set(obj) != {"value", "unit"}:
        raise ConfigError(f"{field}: expected an object {{'value': x, 'unit': u}}, got {obj!r}")
    unit = obj["unit"]
    if not isinstance(unit, str) or unit not in UNITS:
        raise ConfigError(f"{field}: unknown unit {unit!r}; allowed: {sorted(UNITS)}")
    unit_kind, scale = UNITS[unit]
    if unit_kind != kind:
        raise ConfigError(f"{field}: unit {unit!r} is a {unit_kind}, expected a {kind}")
    value = _number(obj["value"], field)
    if scale is None:
        if omega_m is None:
            raise ConfigError(f"{field}: omega_m units are not allowed here")
        scale = omega_m
    return value * scale


def _field(section: dict, name: str, kind: str, omega_m: float | None = None):
    if name not in section:
        raise ConfigError(f"missing required field {name!r}")
    raw = section[name]
    if isinstance(raw, list):
        if len(raw) != 2:
            raise ConfigError(f"{name}: per-cavity lists need exactly 2 entries")
        return tuple(_quantity(v, name, kind, omega_m) for v in raw)
    return _quantity(raw, name, kind, omega_m)


def _parse_bath(doc: dict, omega_m: float) -> BathSpec:
    raw = doc.get("bath")
    if raw is None:
        return BathSpec()
    if not isinstance(raw, dict):
        raise ConfigError("bath: expected an object")
    if "dpo" in raw:
        d = raw["dpo"]
        if not isinstance(d, dict):
            raise ConfigError("bath.dpo: expected an object")
        bath = SqueezedBath.from_dpo(DpoParams(
            dpo_decay=_quantity(d.get("decay"), "bath.dpo.decay", "frequency", omega_m),
            amplification=_quantity(d.get("amplification"), "bath.dpo.amplification",
                                    "frequency", omega_m),
            center_freq=_quantity(d.get("center_freq", {"value": 0.0, "unit": "rad/s"}),
                                  "bath.dpo.center_freq", "frequency", omega_m),
        ))
        return BathSpec(photon_number=bath.photon_number, correlation=bath.correlation)
    if "photon_number" not in raw:
        raise ConfigError("bath: needs 'photon_number' (with 'correlation') or a 'dpo' object")
    corr = raw.get("correlation", 0.0)
    return BathSpec(
        photon_number=_number(raw["photon_number"], "bath.photon_number"),
        correlation=corr if isinstance(corr, str) else _number(corr, "bath.correlation"),
    )


def _parse_axis(raw: dict, index: int) -> AxisSpec:
    field = f"axes[{index}]"
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError(f"{field}: expected an object with a 'name'")
    name = raw["name"]
    if name not in AXIS_NAMES:
        raise ConfigError(f"{field}: unknown axis {name!r}; allowed: {AXIS_NAMES}")
    unit = raw.get("unit")
    if unit is None:
        scale = 1.0
    elif name == "power" and unit in AXIS_POWER_UNITS:
        scale = UNITS[unit][1]
    else:
        raise ConfigError(f"{field}.unit: only a power axis takes a unit, one of "
                          f"{AXIS_POWER_UNITS}; got {unit!r} on axis {name!r}")
    if "values" in raw:
        if not isinstance(raw["values"], (list, tuple)):
            raise ConfigError(f"{field}.values: expected a list")
        return AxisSpec(name, tuple(_number(v, f"{field}.values") * scale for v in raw["values"]))
    if not {"min", "max", "count"} <= raw.keys():
        raise ConfigError(f"{field}: needs 'values' or 'min'/'max'/'count'")
    count = _number(raw["count"], f"{field}.count")
    if not count.is_integer():
        raise ConfigError(f"{field}.count: expected a whole number, got {raw['count']!r}")
    return AxisSpec.from_range(
        name, _number(raw["min"], f"{field}.min") * scale,
        _number(raw["max"], f"{field}.max") * scale, int(count),
    )


def parse_config(doc: dict) -> SweepConfig:
    """Build a :class:`SweepConfig` from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    cavity = doc.get("cavity")
    if not isinstance(cavity, dict):
        raise ConfigError("missing 'cavity' section")

    mech = _field(cavity, "mech_freq", "frequency")
    omega_m = mech[0] if isinstance(mech, tuple) else mech

    det_raw = doc.get("detuning", {"mode": "effective", "value": {"value": 0.0, "unit": "omega_m"}})
    if not isinstance(det_raw, dict):
        raise ConfigError(f"detuning: expected an object with 'mode' and 'value', got {det_raw!r}")
    mode = det_raw.get("mode", "effective")
    det_value = det_raw.get("value", {"value": 0.0, "unit": "omega_m"})
    if isinstance(det_value, list):
        value = tuple(_quantity(v, "detuning.value", "frequency", omega_m) for v in det_value)
    else:
        value = _quantity(det_value, "detuning.value", "frequency", omega_m)

    params = PhysicalParams(
        cavity_length=_field(cavity, "cavity_length", "length"),
        mirror_mass=_field(cavity, "mirror_mass", "mass"),
        mech_freq=mech,
        mech_damping=_field(cavity, "mech_damping", "frequency", omega_m),
        cavity_decay=_field(cavity, "cavity_decay", "frequency", omega_m),
        laser_wavelength=_field(cavity, "laser_wavelength", "length"),
        drive_power=_field(cavity, "drive_power", "power"),
        bath_temperature=_field(cavity, "bath_temperature", "temperature"),
        hop_strength=_field(cavity, "hop_strength", "frequency", omega_m),
        detuning=Detuning(mode, value),
    )

    axes_raw = doc.get("axes", [])
    if not isinstance(axes_raw, list):
        raise ConfigError("'axes' must be a list")
    axes = tuple(_parse_axis(a, i) for i, a in enumerate(axes_raw))

    nbar = doc.get("nbar")
    return SweepConfig(
        params=params,
        bath=_parse_bath(doc, omega_m),
        axes=axes,
        nbar_override=None if nbar is None else _number(nbar, "nbar"),
        detuning_sign=doc.get("detuning_sign", "positive"),
        branch_policy=doc.get("branch_policy", "default"),
        label=doc.get("label", "sweep"),
    )


def load_config(path) -> SweepConfig:
    """Read and parse a JSON configuration file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def validate_config(path) -> list[str]:
    """Schema and invariant check only; returns a list of problems (empty
    when the configuration is usable)."""
    try:
        load_config(path)
    except HopcavError as exc:
        return [str(exc)]
    return []
