import numpy as np
import pytest

from hopcav.errors import ConfigError, UnphysicalBathError
from hopcav.squeezed import (
    BathClass,
    DpoParams,
    SqueezedBath,
    classify_bath,
    dpo_spectra,
    ideal_correlation,
)


class TestDpoSpectra:
    def test_center_values(self):
        dpo = DpoParams(dpo_decay=1.0, amplification=0.25, center_freq=0.0)
        n, m = dpo_spectra(dpo, 0.0)
        assert n == pytest.approx(16.0 / 9.0, rel=1e-14)
        assert m == pytest.approx(20.0 / 9.0, rel=1e-14)
        # maximal correlation at the center frequency
        assert m == pytest.approx(ideal_correlation(n), rel=1e-12)

    def test_zero_amplification_gives_vacuum(self):
        dpo = DpoParams(dpo_decay=2.0, amplification=0.0, center_freq=5.0)
        for w in (-3.0, 0.0, 5.0, 17.0):
            n, m = dpo_spectra(dpo, w)
            assert n == 0.0
            assert m == 0.0

    def test_even_in_detuning(self):
        dpo = DpoParams(dpo_decay=3.0, amplification=1.2, center_freq=10.0)
        for d in (0.1, 1.0, 7.5):
            assert dpo_spectra(dpo, 10.0 + d) == pytest.approx(dpo_spectra(dpo, 10.0 - d))

    def test_decays_away_from_center(self):
        dpo = DpoParams(dpo_decay=1.0, amplification=0.4, center_freq=0.0)
        n, m = dpo_spectra(dpo, 1e6)
        assert n < 1e-10 and m < 1e-10

    def test_quantum_bound_random(self):
        # the two Lorentzian spectra satisfy M^2 - N^2 = N algebraically, so
        # the output is maximally correlated at every frequency, not only at
        # the center; the bound must hold with equality to rounding error
        rng = np.random.default_rng(5)
        for _ in range(100):
            decay = rng.uniform(0.1, 10.0)
            eps = rng.uniform(0.0, 0.499) * decay
            dpo = DpoParams(dpo_decay=decay, amplification=eps, center_freq=rng.uniform(-5, 5))
            w = dpo.center_freq + rng.uniform(-10, 10)
            n, m = dpo_spectra(dpo, w)
            assert n >= 0.0
            assert m >= n
            assert m * m - n * (n + 1.0) <= 1e-10 * max(1.0, m * m)
            assert abs(m - ideal_correlation(n)) <= 1e-10 * max(1.0, m)

    def test_invalid_amplification_rejected(self):
        with pytest.raises(ConfigError):
            DpoParams(dpo_decay=1.0, amplification=0.5, center_freq=0.0)
        with pytest.raises(ConfigError):
            DpoParams(dpo_decay=1.0, amplification=0.7, center_freq=0.0)


class TestIdealCorrelation:
    def test_values(self):
        assert ideal_correlation(0.0) == 0.0
        assert ideal_correlation(0.05) == pytest.approx(0.229128784747792, rel=1e-14)
        assert ideal_correlation(3.0) == pytest.approx(3.4641016151377546, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ideal_correlation(-0.1)


class TestClassifyBath:
    def test_vacuum(self):
        assert classify_bath(SqueezedBath(0.0, 0.0)) is BathClass.VACUUM

    def test_ideal(self):
        b = SqueezedBath(0.05, 0.229128784747792)
        assert classify_bath(b) is BathClass.IDEAL
        assert classify_bath(SqueezedBath.ideal(1.7)) is BathClass.IDEAL

    def test_classical(self):
        assert classify_bath(SqueezedBath(0.1, 0.05)) is BathClass.CLASSICAL
        assert classify_bath(SqueezedBath(0.1, 0.0)) is BathClass.CLASSICAL

    def test_quantum(self):
        n = 0.1
        m = 0.5 * (n + ideal_correlation(n))
        assert classify_bath(SqueezedBath(n, m)) is BathClass.QUANTUM

    def test_boundary_m_equals_n_is_quantum(self):
        assert classify_bath(SqueezedBath(0.2, 0.2)) is BathClass.QUANTUM

    def test_beyond_bound_rejected(self):
        with pytest.raises(UnphysicalBathError):
            SqueezedBath(0.05, 0.3)
        with pytest.raises(UnphysicalBathError):
            SqueezedBath(0.0, 0.1)

    def test_negative_rejected(self):
        with pytest.raises(UnphysicalBathError):
            SqueezedBath(-0.1, 0.0)
        with pytest.raises(UnphysicalBathError):
            SqueezedBath(0.1, -0.05)

    @pytest.mark.parametrize("n, m", [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan)])
    def test_non_finite_rejected(self, n, m):
        with pytest.raises(UnphysicalBathError):
            SqueezedBath(n, m)


class TestFromDpo:
    def test_center_evaluation_is_ideal(self):
        dpo = DpoParams(dpo_decay=1.0, amplification=0.25, center_freq=0.0)
        bath = SqueezedBath.from_dpo(dpo)
        assert bath.photon_number == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert classify_bath(bath) is BathClass.IDEAL
