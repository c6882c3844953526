"""Physical parameters of the two-cavity system and derived scalar quantities.

Everything is stored in SI units, with all frequencies and rates as angular
quantities (rad/s).  Per-cavity fields are pairs indexed (cavity 1, cavity 2);
scalar input is broadcast to both cavities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError

# exact SI values (equal, bit for bit, to scipy.constants c, hbar and k)
SPEED_OF_LIGHT = 299792458.0
HBAR = 6.62607015e-34 / (2 * math.pi)
K_BOLTZMANN = 1.380649e-23

# The Markovian treatment of the mirror Brownian noise needs a high
# mechanical quality factor; warn when it drops below this.
QUALITY_FACTOR_FLOOR = 1e3

DETUNING_MODES = ("bare", "effective")


def _pair(value) -> tuple[float, float]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigError(f"per-cavity field needs exactly 2 entries, got {value!r}")
        return (float(value[0]), float(value[1]))
    v = float(value)
    return (v, v)


@dataclass(frozen=True)
class Detuning:
    """Laser-cavity detuning pair, given either before ("bare") or after
    ("effective") the static radiation-pressure shift."""

    mode: str
    value: tuple[float, float]  # rad/s

    def __post_init__(self):
        if self.mode not in DETUNING_MODES:
            raise ConfigError(f"detuning mode must be one of {DETUNING_MODES}, got {self.mode!r}")
        object.__setattr__(self, "value", _pair(self.value))
        if not all(map(math.isfinite, self.value)):
            raise ConfigError(f"detuning value must be finite, got {self.value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Full description of the two driven optomechanical cavities.

    Units: lengths m, masses kg, rates rad/s, powers W, temperature K.
    """

    cavity_length: tuple[float, float]
    mirror_mass: tuple[float, float]
    mech_freq: tuple[float, float]
    mech_damping: tuple[float, float]
    cavity_decay: tuple[float, float]
    laser_wavelength: float
    drive_power: tuple[float, float]
    bath_temperature: float
    hop_strength: float
    detuning: Detuning

    def __post_init__(self):
        # frozen: the fields are normalized through the instance dict
        fields = self.__dict__
        for name in ("cavity_length", "mirror_mass", "mech_freq",
                     "mech_damping", "cavity_decay", "drive_power"):
            fields[name] = _pair(fields[name])
        for name in ("laser_wavelength", "bath_temperature", "hop_strength"):
            fields[name] = float(fields[name])

        for name in ("cavity_length", "mirror_mass", "mech_freq",
                     "mech_damping", "cavity_decay"):
            value = fields[name]
            if not min(value) > 0.0 or not all(map(math.isfinite, value)):
                raise ConfigError(f"{name} must be strictly positive, got {value}")
        if not self.laser_wavelength > 0.0:
            raise ConfigError("laser_wavelength must be strictly positive")
        # drive power 0 is the meaningful undriven limit and stays allowed
        if min(self.drive_power) < 0.0:
            raise ConfigError("drive_power must be nonnegative")
        if self.bath_temperature < 0.0:
            raise ConfigError("bath_temperature must be nonnegative")
        if self.hop_strength < 0.0:
            raise ConfigError("hop_strength must be nonnegative")
        for name in ("laser_wavelength", "drive_power", "bath_temperature", "hop_strength"):
            value = fields[name]
            if not all(map(math.isfinite, value if name == "drive_power" else (value,))):
                raise ConfigError(f"{name} must be finite, got {value}")

        for j in (0, 1):
            q = self.mech_freq[j] / self.mech_damping[j]
            if q < QUALITY_FACTOR_FLOOR:
                warnings.warn(
                    f"mechanical quality factor of cavity {j + 1} is {q:.3g}; "
                    f"the Markovian mirror-noise model assumes Q >> 1",
                    stacklevel=2,
                )

    @property
    def is_symmetric(self) -> bool:
        return all(
            getattr(self, name)[0] == getattr(self, name)[1]
            for name in ("cavity_length", "mirror_mass", "mech_freq",
                         "mech_damping", "cavity_decay", "drive_power")
        )


def checked_hop_strength(value: float) -> float:
    """A hopping strength (rad/s) as :class:`PhysicalParams` stores it, or the
    :class:`ConfigError` that its validation raises for this field when the
    other fields are valid; for callers that vary only the hopping."""
    value = float(value)
    if value < 0.0:
        raise ConfigError("hop_strength must be nonnegative")
    if not math.isfinite(value):
        raise ConfigError(f"hop_strength must be finite, got {value}")
    return value


def laser_angular_freq(wavelength: float) -> float:
    """Angular frequency 2*pi*c/lambda of the drive laser."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / wavelength


def derive_coupling(params: PhysicalParams, j: int) -> float:
    """Single-photon optomechanical coupling of cavity ``j`` (1 or 2).

    g = (omega_c / L) * sqrt(hbar / (m * omega_m)), with the cavity frequency
    taken equal to the laser frequency (their relative offset is a few
    mechanical frequencies, i.e. below 1e-7 of the optical frequency).
    """
    i = _index(j)
    omega_c = laser_angular_freq(params.laser_wavelength)
    return (omega_c / params.cavity_length[i]) * math.sqrt(
        HBAR / (params.mirror_mass[i] * params.mech_freq[i])
    )


def drive_amplitude(power: float, cavity_decay: float, laser_freq: float) -> float:
    """Drive amplitude |E| = sqrt(2 * P * kappa / (hbar * omega_L))."""
    if power < 0.0:
        raise ConfigError("drive power must be nonnegative")
    return math.sqrt(2.0 * power * cavity_decay / (HBAR * laser_freq))


def thermal_occupation(mech_freq: float, temperature: float) -> float:
    """Mean thermal phonon number of a mode at ``mech_freq`` and bath
    temperature ``temperature``; exactly 0 at T = 0."""
    if temperature < 0.0:
        raise ConfigError("temperature must be nonnegative")
    if temperature == 0.0:
        return 0.0
    x = HBAR * mech_freq / (K_BOLTZMANN * temperature)
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def drive_amps(params: PhysicalParams) -> tuple[float, float]:
    """Drive amplitudes |E_j| of both cavities; see :func:`drive_amplitude`."""
    omega_l = laser_angular_freq(params.laser_wavelength)
    return tuple(
        drive_amplitude(params.drive_power[i], params.cavity_decay[i], omega_l)
        for i in (0, 1)
    )


def _index(j: int) -> int:
    if j not in (1, 2):
        raise ConfigError(f"cavity index must be 1 or 2, got {j}")
    return j - 1
