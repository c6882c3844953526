"""Squeezed-light input: parametric-oscillator output spectra and the
white-noise bath parameters (N, M) that drive the cavities.

The correlation M is kept real and nonnegative; the white-noise bath is the
primary pathway, the spectra are provided for parameter generation and
consistency checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, UnphysicalBathError

# relative tolerance below which M is treated as exactly the maximal value
IDEAL_RTOL = 1e-12


class BathClass(Enum):
    VACUUM = "vacuum"
    CLASSICAL = "classical"
    QUANTUM = "quantum"
    IDEAL = "ideal"


@dataclass(frozen=True)
class DpoParams:
    """Degenerate parametric oscillator emitting the squeezed field.

    ``dpo_decay`` is the oscillator damping rate, ``amplification`` the pump
    amplification parameter; strong squeezing needs amplification approaching
    dpo_decay / 2 from below.
    """

    dpo_decay: float       # rad/s
    amplification: float   # rad/s
    center_freq: float     # rad/s

    def __post_init__(self):
        if self.dpo_decay <= 0.0:
            raise ConfigError("dpo_decay must be strictly positive")
        for name in ("dpo_decay", "center_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.amplification < 0.5 * self.dpo_decay:
            raise ConfigError(
                "amplification must satisfy 0 <= amplification < dpo_decay/2, "
                f"got {self.amplification} vs decay {self.dpo_decay}"
            )

    @property
    def mu(self) -> float:
        """Squeezing bandwidth dpo_decay/2 - amplification (> 0)."""
        return 0.5 * self.dpo_decay - self.amplification

    @property
    def lam_bw(self) -> float:
        """Anti-squeezing bandwidth dpo_decay/2 + amplification."""
        return 0.5 * self.dpo_decay + self.amplification


def dpo_spectra(dpo: DpoParams, omega):
    """Photon-number and correlation spectra (N(omega), M(omega)) of the
    oscillator output; both are even in (omega - center) and vanish far from
    the center frequency."""
    mu = dpo.mu
    lam = dpo.lam_bw
    if mu <= 0.0:
        raise ConfigError("dpo bandwidth (decay/2 - amplification) must be positive")
    d2 = np.square(np.asarray(omega, dtype=float) - dpo.center_freq)
    pref = 0.25 * (lam * lam - mu * mu)
    n = pref * (1.0 / (d2 + mu * mu) - 1.0 / (d2 + lam * lam))
    m = pref * (1.0 / (d2 + mu * mu) + 1.0 / (d2 + lam * lam))
    if np.isscalar(omega):
        return float(n), float(m)
    return n, m


def ideal_correlation(photon_number: float) -> float:
    """Maximal two-photon correlation sqrt(N (N + 1)) for a given N."""
    if photon_number < 0.0:
        raise ConfigError("photon number must be nonnegative")
    return math.sqrt(photon_number * (photon_number + 1.0))


@dataclass(frozen=True)
class SqueezedBath:
    """White-noise squeezed reservoir seen by the two cavities."""

    photon_number: float  # N >= 0
    correlation: float    # 0 <= M <= sqrt(N(N+1))

    def __post_init__(self):
        n = float(self.photon_number)
        m = float(self.correlation)
        object.__setattr__(self, "photon_number", n)
        object.__setattr__(self, "correlation", m)
        if not 0.0 <= n < math.inf:
            raise UnphysicalBathError(f"photon number must be finite and nonnegative, got {n}")
        if not 0.0 <= m < math.inf:
            raise UnphysicalBathError(f"correlation must be finite and nonnegative, got {m}")
        bound = ideal_correlation(n)
        if m > bound * (1.0 + IDEAL_RTOL) + 1e-300:
            raise UnphysicalBathError(
                f"correlation {m} exceeds the quantum bound sqrt(N(N+1)) = {bound}"
            )

    @classmethod
    def vacuum(cls) -> "SqueezedBath":
        return cls(0.0, 0.0)

    @classmethod
    def ideal(cls, photon_number: float) -> "SqueezedBath":
        return cls(photon_number, ideal_correlation(photon_number))

    @classmethod
    def from_dpo(cls, dpo: DpoParams) -> "SqueezedBath":
        """Bath parameters of the oscillator output evaluated at its center
        frequency (where the correlation is maximal)."""
        n, m = dpo_spectra(dpo, dpo.center_freq)
        # center-frequency output is exactly maximally correlated; clip the
        # rounding excess so the quantum bound holds by construction
        return cls(n, min(m, ideal_correlation(n)))


def classify_bath(bath: SqueezedBath) -> BathClass:
    """Classify the reservoir: vacuum, classically squeezed (correlations at
    or below the photon number), quantum squeezed, or maximally correlated."""
    n = bath.photon_number
    m = bath.correlation
    if n == 0.0 and m == 0.0:
        return BathClass.VACUUM
    bound = ideal_correlation(n)
    if m > 0.0 and abs(m - bound) <= IDEAL_RTOL * bound:
        return BathClass.IDEAL
    if m == 0.0 or m < n:
        return BathClass.CLASSICAL
    return BathClass.QUANTUM
