import math

import numpy as np
import pytest

from hopcav.errors import ConfigError
from hopcav.params import (
    Detuning,
    PhysicalParams,
    derive_coupling,
    drive_amplitude,
    drive_amps,
    laser_angular_freq,
    thermal_occupation,
)

TWO_PI = 2.0 * math.pi


def make_params(**overrides):
    base = dict(
        cavity_length=1e-3,
        mirror_mass=5e-12,
        mech_freq=TWO_PI * 1e7,
        mech_damping=TWO_PI * 100.0,
        cavity_decay=TWO_PI * 14e6,
        laser_wavelength=810e-9,
        drive_power=0.05,
        bath_temperature=0.4,
        hop_strength=0.0,
        detuning=Detuning("effective", (0.0, 0.0)),
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestDeriveCoupling:
    # arbitrary-precision evaluation of (omega_c/L) sqrt(hbar/(m omega_m))
    G_REF = 1347.344632566003

    def test_reference_value(self):
        assert derive_coupling(make_params(), 1) == pytest.approx(self.G_REF, rel=1e-12)

    def test_quadruple_mass_halves_coupling(self):
        g0 = derive_coupling(make_params(), 1)
        g1 = derive_coupling(make_params(mirror_mass=4 * 5e-12), 1)
        assert g1 == pytest.approx(0.5 * g0, rel=1e-12)

    def test_double_length_halves_coupling(self):
        g0 = derive_coupling(make_params(), 1)
        g1 = derive_coupling(make_params(cavity_length=2e-3), 1)
        assert g1 == pytest.approx(0.5 * g0, rel=1e-12)

    def test_scaling_laws_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cm, cl, cw = rng.uniform(0.2, 5.0, 3)
            p0 = make_params()
            p1 = make_params(
                mirror_mass=5e-12 * cm,
                cavity_length=1e-3 * cl,
                mech_freq=TWO_PI * 1e7 * cw,
            )
            expected = derive_coupling(p0, 1) / (math.sqrt(cm) * cl * math.sqrt(cw))
            assert derive_coupling(p1, 1) == pytest.approx(expected, rel=1e-10)

    def test_bad_cavity_index(self):
        with pytest.raises(ConfigError):
            derive_coupling(make_params(), 3)


class TestDriveAmplitude:
    # arbitrary-precision sqrt(2 P kappa / (hbar omega_L)) at 50 mW, 810 nm
    E_REF = 5989052157358.1839

    def test_zero_power(self):
        assert drive_amplitude(0.0, TWO_PI * 14e6, laser_angular_freq(810e-9)) == 0.0

    def test_reference_value(self):
        e = drive_amplitude(0.05, TWO_PI * 14e6, laser_angular_freq(810e-9))
        assert e == pytest.approx(self.E_REF, rel=1e-12)

    def test_quadruple_power_doubles_amplitude(self):
        w = laser_angular_freq(810e-9)
        e1 = drive_amplitude(0.05, TWO_PI * 14e6, w)
        e4 = drive_amplitude(0.20, TWO_PI * 14e6, w)
        assert e4 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_sqrt_scaling_random(self):
        rng = np.random.default_rng(11)
        w = laser_angular_freq(810e-9)
        for _ in range(50):
            p, k, c = rng.uniform(1e-4, 1.0), rng.uniform(1e6, 1e9), rng.uniform(0.1, 10.0)
            assert drive_amplitude(c * p, k, w) == pytest.approx(
                math.sqrt(c) * drive_amplitude(p, k, w), rel=1e-10
            )

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError):
            drive_amplitude(-1e-3, TWO_PI * 14e6, laser_angular_freq(810e-9))


class TestThermalOccupation:
    WM = TWO_PI * 1e7

    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(self.WM, 0.0) == 0.0

    def test_reference_cold(self):
        # quoted occupation at 0.4 K is 836 to within a percent
        n = thermal_occupation(self.WM, 0.4)
        assert n == pytest.approx(832.96486491733122, rel=1e-12)
        assert 827.0 <= n <= 845.0

    def test_reference_warm(self):
        assert thermal_occupation(self.WM, 20.0) == pytest.approx(
            41672.738248654831, rel=1e-12
        )

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.01, 30.0, 40)
        vals = [thermal_occupation(self.WM, t) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_high_temperature_expansion(self):
        from scipy.constants import hbar, k

        rng = np.random.default_rng(3)
        for _ in range(50):
            wm = rng.uniform(1e6, 1e9)
            ratio = rng.uniform(150.0, 5e4)
            t = ratio * hbar * wm / k
            approx = k * t / (hbar * wm) - 0.5
            assert thermal_occupation(wm, t) == pytest.approx(approx, rel=1e-5)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError):
            thermal_occupation(self.WM, -0.1)


class TestPhysicalParams:
    def test_low_quality_factor_warns(self):
        with pytest.warns(UserWarning, match="quality factor"):
            make_params(mech_damping=TWO_PI * 1e7 / 100.0)

    def test_nonpositive_fields_rejected(self):
        for field, value in [
            ("cavity_length", 0.0),
            ("mirror_mass", -1e-12),
            ("mech_freq", 0.0),
            ("cavity_decay", -1.0),
            ("bath_temperature", -0.1),
            ("hop_strength", -1.0),
        ]:
            with pytest.raises(ConfigError):
                make_params(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"drive_power": math.inf, "bath_temperature": -1.0}, "bath_temperature must be nonnegative"),
        ({"laser_wavelength": math.inf, "hop_strength": -1.0}, "hop_strength must be nonnegative"),
        ({"bath_temperature": math.nan, "hop_strength": math.inf},
         "bath_temperature must be finite, got nan"),
        ({"laser_wavelength": math.nan, "drive_power": -1.0}, "laser_wavelength must be strictly positive"),
        ({"laser_wavelength": math.inf, "drive_power": math.nan}, "laser_wavelength must be finite, got inf"),
        ({"drive_power": (0.05, -math.inf)}, "drive_power must be nonnegative"),
        ({"drive_power": (math.nan, 0.05)}, "drive_power must be finite, got (nan, 0.05)"),
    ])
    def test_every_sign_before_any_finiteness(self, fields, message):
        # several bad fields: the first bad sign in field order, else the
        # first non-finite field
        with pytest.raises(ConfigError) as info:
            make_params(**fields)
        assert str(info.value) == message

    def test_zero_power_allowed(self):
        assert make_params(drive_power=0.0).drive_power == (0.0, 0.0)

    def test_asymmetric_fields(self):
        p = make_params(drive_power=(0.05, 0.02))
        assert p.drive_power == (0.05, 0.02)
        assert not p.is_symmetric

    def test_derived_scalars_bundle(self):
        p = make_params()
        assert derive_coupling(p, 1) == pytest.approx(1347.344632566003, rel=1e-12)
        assert drive_amps(p)[0] == pytest.approx(5989052157358.1839, rel=1e-12)
        assert thermal_occupation(p.mech_freq[0], p.bath_temperature) == pytest.approx(
            832.96486491733122, rel=1e-12
        )

    def test_bad_detuning_mode(self):
        with pytest.raises(ConfigError):
            Detuning("other", (0.0, 0.0))


def test_si_constants_equal_scipy_bit_for_bit():
    from scipy import constants

    from hopcav import params

    assert params.SPEED_OF_LIGHT == constants.c
    assert params.HBAR == constants.hbar
    assert params.K_BOLTZMANN == constants.k
