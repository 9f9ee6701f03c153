import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gigkdv import specfun
from gigkdv.errors import DomainError


def series_i(nu: float, z: float, terms: int = 300) -> float:
    """Independent ascending-series oracle for I_nu (stdlib lgamma only)."""
    total = 0.0
    for m in range(terms):
        total += math.exp((nu + 2 * m) * math.log(z / 2.0)
                          - math.lgamma(m + 1.0) - math.lgamma(nu + m + 1.0))
    return total


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(z) = sqrt(pi / 2z) e^-z
        for z in (0.3, 2.0, 10.0, 50.0, 300.0):
            want = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
            assert specfun.bessel_k(0.5, z) == pytest.approx(want, rel=1e-12)

    def test_frozen_example(self):
        assert specfun.bessel_k(0.5, 2.0) == pytest.approx(0.11993777196806145,
                                                           rel=1e-12)

    def test_order_symmetry_bitwise(self):
        for nu, z in ((3.2, 1.7), (0.4, 9.0), (11.0, 0.2)):
            assert specfun.bessel_k(-nu, z) == specfun.bessel_k(nu, z)

    def test_matches_defining_integral(self):
        # the quadrature path is independent of the AMOS evaluation
        for nu in (-3.2, 0.0, 1.0, 2.7, 12.0):
            for z in (0.05, 1.0, 5.0, 40.0, 400.0):
                quad = specfun.bessel_k_quadrature(nu, z)
                assert specfun.bessel_k(nu, z) == pytest.approx(quad, rel=1e-12)

    def test_recurrence(self):
        for nu in (-2.3, 0.0, 0.5, 4.1):
            for z in (0.5, 3.0, 25.0):
                lhs = specfun.bessel_k(nu + 1.0, z)
                rhs = (specfun.bessel_k(nu - 1.0, z)
                       + (2.0 * nu / z) * specfun.bessel_k(nu, z))
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotone_decay(self):
        zs = np.geomspace(0.1, 100.0, 40)
        vals = specfun.bessel_k(1.3, zs)
        assert np.all(np.diff(vals) < 0)

    def test_log_companion_beyond_double_range(self):
        with pytest.raises(OverflowError):
            specfun.bessel_k(50.0, 1e-6)
        lk = specfun.bessel_k_log(50.0, 1e-6)
        assert lk == pytest.approx(specfun.bessel_k_log_quadrature(50.0, 1e-6),
                                   rel=1e-12)
        with pytest.raises(OverflowError):
            specfun.bessel_k(1.0, 800.0)
        # log K_nu(z) ~ -z - 0.5 log(2 z / pi) for large z
        want = -800.0 + 0.5 * math.log(math.pi / (2.0 * 800.0))
        assert specfun.bessel_k_log(1.0, 800.0) == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 3.5])
    def test_log_above_scaled_routine_range(self, nu):
        # scipy's kve is nan above z = 1e9; the quadrature fallback once
        # gave log K_0(2e10) = -20000000010.397 for -20000000011.634
        import mpmath as mp

        mp.mp.dps = 40
        for z in (2e9, 2e10, 2e12, 2e16):
            want = mp.log(mp.besselk(nu, z))
            assert float(abs(specfun.bessel_k_log(nu, z) - want)) <= 1e-15 * float(-want)
            scaled = specfun.bessel_k_log_scaled(nu, z)
            assert float(abs(scaled - (want + z))) <= 1e-15 * float(abs(want + z))

    def test_subnormal_order(self):
        # scipy's kve is nan here too, at a z where Hankel's expansion diverges
        want = specfun.bessel_k_log(0.0, 2.0)
        assert specfun.bessel_k_log(2.225073858507e-311, 2.0) == pytest.approx(want, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, -2.0)
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, float("nan"))
        with pytest.raises(DomainError):
            specfun.bessel_k(float("inf"), 1.0)

    @given(nu=st.floats(-8.0, 8.0), z=st.floats(0.01, 80.0))
    def test_positive_and_symmetric(self, nu, z):
        v = specfun.bessel_k(nu, z)
        assert v > 0.0
        assert v == specfun.bessel_k(-nu, z)


class TestBesselI:
    def test_small_argument_limit(self):
        # I_0(z) -> 1 as z -> 0+
        assert specfun.bessel_i(0.0, 1e-9) == pytest.approx(1.0, rel=1e-12)

    def test_half_order_closed_form(self):
        # I_{1/2}(z) = sqrt(2 / pi z) sinh z
        v = specfun.bessel_i(0.5, 1.0)
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert v == pytest.approx(want, rel=1e-12)
        assert str(v).startswith("0.9376748")

    def test_matches_series(self):
        for nu in (0.0, 0.5, 2.0, 5.5):
            for z in (0.2, 1.0, 8.0, 30.0):
                assert specfun.bessel_i(nu, z) == pytest.approx(
                    series_i(nu, z), rel=1e-12)

    def test_wronskian(self):
        # I_nu(z) K_nu'(z) - I_nu'(z) K_nu(z) = -1/z
        for nu, z in ((2.0, 10.0), (0.0, 1.0), (0.5, 4.0), (5.0, 30.0)):
            w = (specfun.bessel_i(nu, z) * specfun.kv_deriv(nu, z)
                 - specfun.iv_deriv(nu, z) * specfun.bessel_k(nu, z))
            assert abs(w + 1.0 / z) * z <= 1e-10

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            specfun.bessel_i(0.0, 800.0)
        # log companion keeps working: log I_0(z) ~ z - 0.5 log(2 pi z)
        want = 800.0 - 0.5 * math.log(2.0 * math.pi * 800.0)
        assert specfun.bessel_i_log(0.0, 800.0) == pytest.approx(want, rel=1e-3)

    def test_log_underflow_fallback(self):
        import mpmath as mp

        mp.mp.dps = 40
        got = specfun.bessel_i_log(50.0, 1e-6)
        want = float(mp.log(mp.besseli(50, mp.mpf(1e-6))))
        assert got == pytest.approx(want, rel=1e-10)


class TestOdeResidual:
    @pytest.mark.parametrize("kind", ["k", "i"])
    def test_residual_small_on_grid(self, kind):
        for nu in (-3.2, -0.5, 0.0, 0.7, 2.0):
            for z in np.geomspace(0.1, 50.0, 9):
                assert abs(specfun.ode_residual(kind, nu, float(z))) <= 1e-6


def test_check_table_all_pass():
    rows = specfun.check_table()
    assert rows and all(bool(r[-1]) for r in rows)
