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
        object.__setattr__(self, "value", checked_detuning(self.value))


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
        # each field's own check; every field's sign comes before any field's
        # finiteness, so the first pass leaves finiteness out
        for finite in (False, True):
            for name, check in _FIELD_CHECKS:
                check(fields[name], finite=finite)

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


def checked_detuning(value) -> tuple[float, float]:
    """A detuning pair (rad/s) as :class:`Detuning` stores it, or the
    :class:`ConfigError` that its validation raises."""
    value = _pair(value)
    if not all(map(math.isfinite, value)):
        raise ConfigError(f"detuning value must be finite, got {value}")
    return value


# The checks of single fields below return the value as PhysicalParams stores
# it, or raise the ConfigError that PhysicalParams raises for this field when
# the other fields are valid: for callers that vary one field at a time.  Each
# checks the sign before finiteness; ``finite=False`` leaves finiteness out.

def checked_laser_wavelength(value: float, *, finite: bool = True) -> float:
    """A laser wavelength (m): strictly positive, then finite."""
    value = float(value)
    if not value > 0.0:
        raise ConfigError("laser_wavelength must be strictly positive")
    if finite and not math.isfinite(value):
        raise ConfigError(f"laser_wavelength must be finite, got {value}")
    return value


def checked_drive_power(value, *, finite: bool = True) -> tuple[float, float]:
    """A drive-power pair (W): nonnegative, then finite."""
    value = _pair(value)
    # drive power 0 is the meaningful undriven limit and stays allowed
    if min(value) < 0.0:
        raise ConfigError("drive_power must be nonnegative")
    if finite and not all(map(math.isfinite, value)):
        raise ConfigError(f"drive_power must be finite, got {value}")
    return value


def checked_bath_temperature(value: float, *, finite: bool = True) -> float:
    """A bath temperature (K): nonnegative, then finite."""
    value = float(value)
    if value < 0.0:
        raise ConfigError("bath_temperature must be nonnegative")
    if finite and not math.isfinite(value):
        raise ConfigError(f"bath_temperature must be finite, got {value}")
    return value


def checked_hop_strength(value: float, *, finite: bool = True) -> float:
    """A hopping strength (rad/s): nonnegative, then finite."""
    value = float(value)
    if value < 0.0:
        raise ConfigError("hop_strength must be nonnegative")
    if finite and not math.isfinite(value):
        raise ConfigError(f"hop_strength must be finite, got {value}")
    return value


# the fields of PhysicalParams with a check of their own, in checking order
_FIELD_CHECKS = (("laser_wavelength", checked_laser_wavelength),
                 ("drive_power", checked_drive_power),
                 ("bath_temperature", checked_bath_temperature),
                 ("hop_strength", checked_hop_strength))


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


def drive_amps(params: PhysicalParams, power: tuple[float, float] | None = None) -> tuple[float, float]:
    """Drive amplitudes |E_j| of both cavities at the drive powers ``power``
    (by default the parameters'); see :func:`drive_amplitude`."""
    omega_l = laser_angular_freq(params.laser_wavelength)
    power = params.drive_power if power is None else power
    return tuple(
        drive_amplitude(power[i], params.cavity_decay[i], omega_l)
        for i in (0, 1)
    )


def _index(j: int) -> int:
    if j not in (1, 2):
        raise ConfigError(f"cavity index must be 1 or 2, got {j}")
    return j - 1
