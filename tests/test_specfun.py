"""Oracle tests for the special functions.

mpmath at 40 digits is the independent reference for the Bessel and
incomplete gamma grids; a handful of closed-form and frozen values pin
the conventions. The incomplete gamma kernels also have their float bits
pinned at every branch edge, and a property test against mpmath over
nu in [-1, 60], x in [1e-8, 700]. A second property test holds log K_nu(z)
to mpmath for nu in [0, 60] and z down to 1e-300.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.0, 60.0), log10_z=st.floats(-300.0, math.log10(2.0)))
# one upward step passed the double range before the rescale could act,
# so these gave inf and their Bessel ratios nan
@example(nu=2.0, log10_z=-154.0)
@example(nu=3.0, log10_z=-103.0)
@example(nu=10.0, log10_z=-30.0)
@example(nu=50.0, log10_z=-30.0)
# K_{mu+1} of the base pair itself overflows at mu = 0.4
@example(nu=1.4, log10_z=-300.0)
# gam1 from a difference of two math.gamma values was 2.5e-13 off here
@example(nu=0.9996873772266973, log10_z=0.0)
def test_log_bessel_k_at_small_z_against_mpmath(nu, log10_z):
    z = 10.0 ** log10_z
    want = mpmath.log(mpmath.besselk(nu, z))
    assert specfun.log_bessel_k(nu, z) == pytest.approx(
        float(want), rel=1e-13, abs=1e-13)
    want_ratio = mpmath.exp(mpmath.log(mpmath.besselk(nu + 1, z)) - want)
    assert specfun.bessel_k_ratio(nu, z) == pytest.approx(float(want_ratio), rel=1e-10)


@pytest.mark.parametrize("mu", [1e-5, 1.01e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5])
def test_rgamma_pair_against_mpmath(mu):
    with mpmath.workdps(40):
        for m in (mu, -mu):
            rp, rm = 1 / mpmath.gamma(1 + mpmath.mpf(m)), 1 / mpmath.gamma(1 - mpmath.mpf(m))
            gam1, gam2 = specfun._rgamma_pair(m)
            assert gam1 == pytest.approx(float((rm - rp) / (2 * m)), rel=4e-16)
            assert gam2 == pytest.approx(float((rm + rp) / 2), rel=4e-16)


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


def test_incomplete_gamma_near_nu_zero_against_mpmath():
    # 0 < |nu| < 1/2 at small x pairs the Gamma(nu) pole with the first
    # series term and takes (Gamma(1+nu) - 1)/nu from a Taylor series, so
    # nothing cancels on either side of nu = 0
    for nu in (1e-10, -1e-10, 1e-8, -1e-8, 1e-4, -1e-4, 0.1, -0.1, 0.3, 0.49):
        for x in (0.001, 0.5, 0.999, 1.0, 1.0 + abs(nu) / 2.0):
            want = mpmath.gammainc(mpmath.mpf(nu), x)
            assert specfun.upper_incomplete_gamma(nu, x) == pytest.approx(
                float(want), rel=1e-12, abs=0.0)
            if nu > 0.0:
                want_q = mpmath.gammainc(mpmath.mpf(nu), x, regularized=True)
                assert specfun.regularized_gamma_q(nu, x) == pytest.approx(
                    float(want_q), rel=1e-12, abs=0.0)
    for nu in np.concatenate([np.geomspace(1e-12, 0.5, 40), -np.geomspace(1e-12, 0.5, 40)]):
        nu = float(nu)
        want = (mpmath.gamma(1 + mpmath.mpf(nu)) - 1) / nu
        assert specfun._gamma_m1_over(nu) == pytest.approx(float(want), rel=1e-14, abs=0.0)


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


def test_regularized_gamma_q_rejects_non_finite_arguments():
    for nu, x in ((0.5, math.nan), (0.5, math.inf), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="arguments must be finite"):
            specfun.regularized_gamma_q(nu, x)


ARRAY_INDICES = [2.5, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0]


def test_upper_incomplete_gamma_array_against_mpmath():
    base = np.concatenate([np.geomspace(1e-4, 60.0, 161), [0.2, 1.0, 30.0, 700.0]])
    for nu in ARRAY_INDICES:
        # straddle the branch switches at x = 1 and x = nu + 1
        edges = [v for e in (1.0, nu + 1.0) if e > 0.0
                 for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0 * e))]
        x = np.concatenate([base, edges])
        got = specfun.upper_incomplete_gamma(nu, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        for v, g in zip(edges + base[::16].tolist(), got[-len(edges):].tolist() + got[:161:16].tolist()):
            want = float(mpmath.gammainc(mpmath.mpf(nu), v))
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), (nu, v)
    grid = np.array([[0.0, 0.5], [2.0, 9.0]])
    assert specfun.upper_incomplete_gamma(1.5, grid).shape == (2, 2)
    assert specfun.upper_incomplete_gamma(1.5, np.array([], dtype=float)).size == 0
    assert type(specfun.upper_incomplete_gamma(0.5, 1.0)) is float


def test_upper_incomplete_gamma_takes_a_number_or_an_array():
    # np.ndim(x) == 0 gives a float, anything else an array of x's shape
    want = [specfun.upper_incomplete_gamma(0.5, v) for v in (1.0, 2.0)]
    for x in ([1.0, 2.0], (1.0, 2.0), np.array([1.0, 2.0])):
        got = specfun.upper_incomplete_gamma(0.5, x)
        assert isinstance(got, np.ndarray) and got.tolist() == want
    assert specfun.upper_incomplete_gamma(0.5, [[1.0], [2.0]]).shape == (2, 1)
    for x in (np.array(1.0), np.float32(1.0), 1):
        got = specfun.upper_incomplete_gamma(0.5, x)
        assert type(got) is float and got == want[0]


# float.hex of both kernels on each side of every branch edge (x = 1 and
# x = nu + 1, one ulp apart), at x = 0 and where the value underflows to 0.
# Taken before the scalar copies of the series were removed, so a number
# keeps the bits it had. nu = -0.75 is held above x = 1 only: below it,
# Gamma(nu + 1, x) now comes from the paired series. From x ~ 4.5e307 the
# continued fraction's first term is subnormal; the value there is 0.
UPPER_BITS = [
    (-1.0, 0.9999999999999999, '0x1.301e6989a4edcp-3'),
    (-1.0, 1.0000000000000002, '0x1.301e6989a4ee5p-3'),
    (-1.0, 800.0, '0x0.0p+0'),
    (-1.0, 5e307, '0x0.0p+0'),
    (-1.0, 1e308, '0x0.0p+0'),
    (-0.75, 1.0000000000000002, '0x1.4c1d46d923c44p-3'),
    (-0.5, 0.9999999999999999, '0x1.6cd8b51fac1a8p-3'),
    (-0.5, 1.0000000000000002, '0x1.6cd8b51fac1a5p-3'),
    (-0.5, 0.49999999999999994, '0x1.2e6f1748e5626p-1'),
    (-0.5, 0.5000000000000001, '0x1.2e6f1748e5622p-1'),
    (-1e-10, 0.9999999999999999, '0x1.c14c5d3ba2e98p-3'),
    (-1e-10, 1.0000000000000002, '0x1.c14c5d3ba2e6fp-3'),
    (-1e-10, 0.9999999998999999, '0x1.c14c5d3ce6808p-3'),
    (-1e-10, 0.9999999999000001, '0x1.c14c5d3ce6808p-3'),
    (0.0, 0.9999999999999999, '0x1.c14c5d3bf8f96p-3'),
    (0.0, 1.0000000000000002, '0x1.c14c5d3bf8f81p-3'),
    (0.0, 800.0, '0x0.0p+0'),
    (0.0, 5e307, '0x0.0p+0'),
    (0.0, 1e308, '0x0.0p+0'),
    (1e-10, 0.0, '0x1.2a05f1ffb61ddp+33'),
    (1e-10, 1.0000000000999998, '0x1.c14c5d3b0b724p-3'),
    (1e-10, 1.0000000001000002, '0x1.c14c5d3b0b723p-3'),
    (0.25, 0.0, '0x1.d013fc47eeeebp+1'),
    (0.25, 1.2499999999999998, '0x1.5ed18ad6e0cdcp-3'),
    (0.25, 1.2500000000000002, '0x1.5ed18ad6e0ceap-3'),
    (2.5, 0.0, '0x1.544fa6d47b391p+0'),
    (2.5, 3.4999999999999996, '0x1.2c586d562678fp-2'),
    (2.5, 3.5000000000000004, '0x1.2c586d562678cp-2'),
    (2.5, 800.0, '0x0.0p+0'),
    (2.5, 5e307, '0x0.0p+0'),
    (2.5, 1e308, '0x0.0p+0'),
]
Q_BITS = [
    (1e-10, 1.0000000000999998, '0x1.81f1bd9242cf9p-36'),
    (1e-10, 1.0000000001000002, '0x1.81f1bd9242ce6p-36'),
    (0.25, 1.2499999999999998, '0x1.830b83883926bp-5'),
    (0.25, 1.2500000000000002, '0x1.830b83883927dp-5'),
    (2.5, 3.4999999999999996, '0x1.c3df10d623ed4p-3'),
    (2.5, 3.5000000000000004, '0x1.c3df10d623ecdp-3'),
    (10000.0, 10000.999999999998, '0x1.fa8dac84ccadap-2'),
    (10000.0, 10001.000000000002, '0x1.fa8dac84d4c2fp-2'),
    (2.5, 800.0, '0x0.0p+0'),
    (2.5, 5e307, '0x0.0p+0'),
    (2.5, 1e308, '0x0.0p+0'),
]


def test_incomplete_gamma_bits_are_pinned():
    for nu, x, bits in UPPER_BITS:
        assert specfun.upper_incomplete_gamma(nu, x).hex() == bits, (nu, x)
    for nu in {nu for nu, _, _ in UPPER_BITS}:
        x = np.array([x for n, x, _ in UPPER_BITS if n == nu])
        got = specfun.upper_incomplete_gamma(nu, x)
        assert [v.hex() for v in got.tolist()] == [b for n, _, b in UPPER_BITS if n == nu], nu
    for nu, x, bits in Q_BITS:
        assert specfun.regularized_gamma_q(nu, x).hex() == bits, (nu, x)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(-1.0, 60.0), x=st.floats(1e-8, 700.0))
# Gamma(nu + 1) (1 - P) for the downward step was 5e-5 off at nu = -1 + 1e-10
@example(nu=-1.0 + 1e-10, x=0.9)
@example(nu=-0.99999, x=0.5)
# a subnormal nu log x lost its low bits, and Gamma(nu) overflowed in Q
@example(nu=5e-324, x=0.5)
def test_incomplete_gamma_kernels_against_mpmath(nu, x):
    # mpmath takes seconds as nu -> 0 (hypothesis draws 5e-324); below
    # 1e-20, Gamma(nu, x) = E1(x) (1 + O(nu log x)) to 1e-18 and Q = nu E1(x)
    tiny = abs(nu) < 1e-20
    want = mpmath.e1(x) if tiny else mpmath.gammainc(mpmath.mpf(nu), x)
    if abs(want) > 1e-300:
        assert specfun.upper_incomplete_gamma(nu, x) == pytest.approx(
            float(want), rel=1e-12, abs=0.0)
    if nu > 0.0:
        want_q = nu * want if tiny else mpmath.gammainc(mpmath.mpf(nu), x, regularized=True)
        if abs(want_q) > 1e-300:
            assert specfun.regularized_gamma_q(nu, x) == pytest.approx(
                float(want_q), rel=1e-12, abs=0.0)


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
    # the survival function has underflowed to 0 long before stat = 1e308
    assert specfun.chi2_sf(1e308, 3) == 0.0


def test_chi2_sf_domain_errors():
    with pytest.raises(ValueError):
        specfun.chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        specfun.chi2_sf(-0.5, 3)
