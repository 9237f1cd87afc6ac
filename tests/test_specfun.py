"""Oracle tests for the special functions.

mpmath at 40 digits is the independent reference for the Bessel and
incomplete gamma grids; a handful of closed-form and frozen values pin
the conventions. The array form of the incomplete gamma is checked
element by element against the scalar kernel.
"""

import math

import mpmath
import numpy as np
import pytest

from gigp import specfun

mpmath.mp.dps = 40

K_ORDERS = [0.0, 0.25, 0.5, 1.0, 2.0, 5.75, 10.5, 30.0, 60.0]
K_ARGS = [1e-6, 1e-3, 0.05, 0.5, 1.0, 1.9999, 2.0001, 3.0, 10.0, 100.0]


def test_log_bessel_k_against_mpmath_grid():
    worst = 0.0
    for nu in K_ORDERS:
        for z in K_ARGS:
            got = specfun.log_bessel_k(nu, z)
            want = float(mpmath.log(mpmath.besselk(nu, z)))
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
    assert worst <= 1e-10


def test_log_bessel_k_negative_order_symmetry():
    for nu in [0.25, 0.5, 1.0, 5.75, 30.0]:
        for z in [0.01, 1.0, 50.0]:
            assert specfun.log_bessel_k(-nu, z) == specfun.log_bessel_k(nu, z)


def test_log_bessel_k_half_order_closed_form():
    # K_{1/2}(z) = sqrt(pi/(2 z)) exp(-z)
    for z in [0.1, 1.0, 2.0, 7.5, 300.0]:
        want = 0.5 * math.log(math.pi / (2.0 * z)) - z
        assert specfun.log_bessel_k(0.5, z) == pytest.approx(want, abs=1e-12)


def test_log_bessel_k_frozen_values():
    # K_{1/2}(1) = 0.461068... and K_0(0.01) = 4.72124...
    assert specfun.log_bessel_k(0.5, 1.0) == pytest.approx(math.log(0.461068504), abs=1e-8)
    assert specfun.log_bessel_k(0.0, 0.01) == pytest.approx(math.log(4.72124), abs=1e-4)


def test_log_bessel_k_huge_order_no_overflow():
    # K_600(1) overflows double precision; the log must come back finite.
    got = specfun.log_bessel_k(600.0, 1.0)
    want = float(mpmath.log(mpmath.besselk(600, 1)))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-10)


def test_log_bessel_k_domain_errors():
    with pytest.raises(ValueError):
        specfun.log_bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        specfun.log_bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        specfun.log_bessel_k(math.inf, 1.0)


def test_bessel_k_ratio_closed_forms():
    # K_{3/2}/K_{1/2} = 1 + 1/z; K_{1/2} = K_{-1/2}
    assert specfun.bessel_k_ratio(0.5, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert specfun.bessel_k_ratio(0.5, 2.0) == pytest.approx(1.5, rel=1e-12)
    assert specfun.bessel_k_ratio(-0.5, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_bessel_k_ratio_against_mpmath():
    for nu in [-1.0, -0.75, 0.0, 0.3, 2.0, 12.5]:
        for z in [0.05, 1.0, 8.0]:
            want = float(mpmath.besselk(nu + 1, z) / mpmath.besselk(nu, z))
            assert specfun.bessel_k_ratio(nu, z) == pytest.approx(want, rel=1e-10)
            assert specfun.bessel_k_ratio(nu, z) > 0.0


GAMMA_INDICES = [-1.0, -0.999, -0.75, -0.5, -0.25, -1e-3, 0.0, 1e-3, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0]
GAMMA_ARGS = [1e-8, 0.01, 0.3, 0.9999, 1.0001, 2.0, 5.0, 30.0, 100.0]


def test_upper_incomplete_gamma_against_mpmath_grid():
    worst = 0.0
    for nu in GAMMA_INDICES:
        for x in GAMMA_ARGS:
            got = specfun.upper_incomplete_gamma(nu, x)
            want = float(mpmath.gammainc(mpmath.mpf(nu), a=x, b=mpmath.inf))
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
    assert worst <= 1e-12


def test_upper_incomplete_gamma_closed_forms():
    # Gamma(1, x) = exp(-x); Gamma(1/2, 0) = sqrt(pi)
    assert specfun.upper_incomplete_gamma(1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-13)
    assert specfun.upper_incomplete_gamma(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # E1(1) frozen
    assert specfun.upper_incomplete_gamma(0.0, 1.0) == pytest.approx(0.219384, abs=1e-6)


def test_upper_incomplete_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(-1.5, 1.0)
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(0.5, -0.1)
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(0.0, 0.0)
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(-0.5, 0.0)
    # the same domain holds element by element for an array x
    good = np.array([0.5, 2.0])
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(-1.5, good)
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(math.inf, good)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(0.5, np.array([0.5, bad]))
    for nu in [0.0, -0.5, -1.0]:
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(nu, np.array([1.0, 0.0]))


ARRAY_INDICES = [2.5, 0.5, 0.0, -0.25, -0.5, -0.75, -1.0]


def test_upper_incomplete_gamma_array_matches_scalar():
    # the array kernel runs the scalar kernel's branches, recurrences and
    # libm calls on every element, so it agrees bit for bit
    base = np.concatenate([np.geomspace(1e-4, 60.0, 161), [0.2, 1.0, 30.0, 700.0]])
    for nu in ARRAY_INDICES:
        # straddle the branch switches at x = 1 and x = nu + 1
        edges = [e for e in (1.0, nu + 1.0) if e > 0.0]
        x = np.concatenate([base] + [[np.nextafter(e, 0.0), e, np.nextafter(e, 2.0 * e)]
                                     for e in edges])
        got = specfun.upper_incomplete_gamma(nu, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        want = np.array([specfun.upper_incomplete_gamma(nu, v) for v in x.tolist()])
        np.testing.assert_array_equal(got, want)
    grid = np.array([[0.0, 0.5], [2.0, 9.0]])
    assert specfun.upper_incomplete_gamma(1.5, grid).shape == (2, 2)
    assert specfun.upper_incomplete_gamma(1.5, np.array([], dtype=float)).size == 0
    assert type(specfun.upper_incomplete_gamma(0.5, 1.0)) is float


def test_normal_cdf_values():
    assert specfun.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert specfun.normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    for x in [-3.0, -0.7, 0.4, 2.2]:
        assert specfun.normal_cdf(x) + specfun.normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


def test_chi2_sf_values():
    # df = 2 is exponential: sf = exp(-stat/2)
    assert specfun.chi2_sf(1.386294, 2) == pytest.approx(0.5, abs=1e-6)
    assert specfun.chi2_sf(0.0, 5) == 1.0
    for df in [1, 3, 7, 10]:
        for stat in [0.5, 2.0, 14.0]:
            want = float(mpmath.gammainc(mpmath.mpf(df) / 2, a=stat / 2.0, b=mpmath.inf,
                                         regularized=True))
            assert specfun.chi2_sf(stat, df) == pytest.approx(want, rel=1e-10)


def test_chi2_sf_domain_errors():
    with pytest.raises(ValueError):
        specfun.chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        specfun.chi2_sf(-0.5, 3)
