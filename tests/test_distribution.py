"""Distribution-level oracle tests.

The alpha > 0 pmf is checked against a direct mpmath evaluation of the
Bessel formula, the mixing density against the pmf by numerical
integration (two independent routes), the ccdf against an mpmath GIG
mixture of Poisson tails, and the closed-form families against their
textbook expressions.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from gigp import diagram
from gigp.distribution import (GigpParams, _bessel_ratios, _tables, ccdf, cdf,
                               gig_density, log_pmf, mean_asymptotic, mean_exact,
                               pmf, resolve_truncation, sample, sample_values,
                               tail_pmf_asymptotic, theta_from_mean, validate)
from gigp.shape import expected_shape_deviation, scaling_a
from gigp.specfun import bessel_k_ratio

mpmath.mp.dps = 40


def _pmf_oracle(nu, alpha, theta, j):
    # direct mpmath evaluation of the Bessel-series pmf
    th = mpmath.mpf(theta)
    al = mpmath.mpf(alpha)
    base = ((1 - th) ** (mpmath.mpf(nu) / 2) / mpmath.besselk(nu, al * mpmath.sqrt(1 - th))
            * (al * th / 2) ** j / mpmath.factorial(j) * mpmath.besselk(nu + j, al))
    return float(base)


POS_ALPHA_GRID = [(0.5, 2.0, 0.9), (-0.5, 2.0, 0.99), (0.0, 1.0, 0.5),
                  (2.0, 0.3, 0.75), (-1.0, 1.5, 0.95), (-0.25, 4.0, 0.6)]


def test_pmf_against_mpmath():
    for nu, alpha, theta in POS_ALPHA_GRID:
        p = GigpParams(nu, alpha, theta)
        for j in [0, 1, 2, 5, 20, 80]:
            want = _pmf_oracle(nu, alpha, theta, j)
            assert pmf(p, j) == pytest.approx(want, rel=1e-10)


def _bessel_sum_masses(nu, alpha, theta, jmax):
    # f_0..f_jmax at 30 digits, K_(nu+j)(alpha) carried by its upward
    # recurrence from two mpmath.besselk values
    with mpmath.workdps(30):
        th, al = mpmath.mpf(theta), mpmath.mpf(alpha)
        norm = (1 - th) ** (mpmath.mpf(nu) / 2) / mpmath.besselk(nu, al * mpmath.sqrt(1 - th))
        k0, k1 = mpmath.besselk(nu, al), mpmath.besselk(nu + 1, al)
        weight, out = norm, []
        for j in range(jmax + 1):
            out.append(weight * k0)
            weight = weight * al * th / (2 * (j + 1))
            k0, k1 = k1, k0 + 2 * (nu + j + 1) / al * k1
        return out


def test_pmf_and_ccdf_against_bessel_sum_near_theta_one():
    # the table sums only the O(1/j) part of each log step, so the pmf keeps
    # its digits across tens of thousands of terms
    for theta in (0.99, 0.999):
        for nu in (0.5, -0.5):
            p = GigpParams(nu, 2.0, theta)
            jmax = int(20.0 / (1.0 - theta))
            masses = _bessel_sum_masses(nu, 2.0, theta, jmax)
            total = mpmath.mpf(0)
            for j, want in enumerate(masses):
                if j % 37 == 0 or j == jmax:
                    assert pmf(p, j) == pytest.approx(float(want), rel=1e-12, abs=0.0)
                    # the tail cut off past the table is < 1e-15, so the
                    # relative check stops where the ccdf nears 1e-3
                    if total < 0.999:
                        assert ccdf(p, j) == pytest.approx(float(1 - total),
                                                           rel=1e-12, abs=0.0)
                total += want


def test_ccdf_deep_tail_against_bessel_sum():
    # sf carries the mass past the table cut (<= 1e-15 by the cut rule), so
    # a ccdf near 1e-5 keeps 12 digits; without it the relative error is
    # the cut mass over the ccdf, ~4e-11 here
    for nu in (0.5, -0.5):
        p = GigpParams(nu, 2.0, 0.99)
        jmax = _tables(p).jmax
        masses = _bessel_sum_masses(nu, 2.0, 0.99, 3 * jmax)
        tail, checked = mpmath.mpf(0), 0
        for j in range(3 * jmax, -1, -1):
            tail += masses[j]
            if 1e-5 <= tail <= 1e-4 and j % 5 == 0:
                assert ccdf(p, j) == pytest.approx(float(tail), rel=1e-12, abs=0.0)
                checked += 1
            if j <= jmax and tail < 1e-10:
                # up to the cut the error is what the geometric tail misses
                assert abs(ccdf(p, j) - float(tail)) < 1e-17
        assert checked > 10


def test_bessel_ratios_match_the_sequential_recurrence():
    # each window of _J_WINDOW forward steps from a crude seed must land on
    # the value the one-at-a-time recurrence from K_(nu+1)/K_nu gives
    for nu, alpha in [(0.5, 2.0), (-1.0, 1.5), (-0.25, 8.0), (1.0, 30.0), (0.5, 1e-6)]:
        ratio = bessel_k_ratio(nu, alpha)
        want = [ratio]
        for k in range(1, 5000):
            ratio = 2.0 * (nu + k) / alpha + 1.0 / ratio
            want.append(ratio)
        got = _bessel_ratios(nu, alpha, np.arange(0, 5000, dtype=float))
        assert got.tolist() == want
        later = _bessel_ratios(nu, alpha, np.arange(3000, 5000, dtype=float))
        assert later.tolist() == want[3000:]


def test_table_cut_and_support_cap():
    # the cut is the first j >= 16 with log f_j < -40 and a tail asymptote
    # below 1e-15; past _MAX_SUPPORT = 2e6 the build gives up
    assert _tables(GigpParams(0.5, 2.0, 0.99)).jmax == 3311
    assert _tables(GigpParams(0.5, 2.0, 0.9999)).jmax == 322481
    assert _tables(GigpParams(-0.5, 0.0, 0.9999, True)).jmax == 239152
    for p in (GigpParams(0.5, 0.0, 0.99999), GigpParams(0.5, 2.0, 0.99999)):
        with pytest.raises(RuntimeError, match="pmf support cutoff not reached"):
            ccdf(p, 1.0)


def test_pmf_closed_form_families():
    # negative binomial: C(nu+j-1, j) (1-theta)^nu theta^j
    p = GigpParams(2.0, 0.0, 0.5)
    assert pmf(p, 1) == pytest.approx(0.25, rel=1e-12)
    for j in range(8):
        want = math.comb(2 + j - 1, j) * 0.25 * 0.5 ** j
        assert pmf(p, j) == pytest.approx(want, rel=1e-12)
    # Fisher log-series: theta^j / (j L)
    p = GigpParams(0.0, 0.0, 0.5, zero_truncated=True)
    assert pmf(p, 1) == pytest.approx(0.5 / math.log(2.0), rel=1e-12)
    for j in range(1, 9):
        want = 0.5 ** j / (j * math.log(2.0))
        assert pmf(p, j) == pytest.approx(want, rel=1e-12)
    # extended negative binomial via gamma functions
    nu, theta = -0.5, 0.8
    p = GigpParams(nu, 0.0, theta, zero_truncated=True)
    norm = 1.0 - (1.0 - theta) ** (-nu)
    for j in range(1, 9):
        want = (-nu) * math.gamma(nu + j) * theta ** j / (
            math.gamma(nu + 1.0) * norm * math.factorial(j))
        assert pmf(p, j) == pytest.approx(want, rel=1e-12)


def test_pmf_normalization_and_mean():
    cases = [GigpParams(0.5, 2.0, 0.9), GigpParams(-0.5, 2.0, 0.99),
             GigpParams(-1.0, 1.0, 0.9), GigpParams(0.5, 2.0, 0.9, True),
             GigpParams(3.0, 0.0, 0.8), GigpParams(3.0, 0.0, 0.8, True),
             GigpParams(0.0, 0.0, 0.95, True), GigpParams(-0.5, 0.0, 0.9, True)]
    for p in cases:
        start = 1 if (p.zero_truncated or (p.alpha == 0.0 and p.nu <= 0.0)) else 0
        total = 0.0
        mean = 0.0
        for j in range(start, 4000):
            q = pmf(p, j)
            total += q
            mean += j * q
            if j > 50 and q < 1e-18:
                break
        assert total == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(mean_exact(p), rel=1e-8)


def test_log_pmf_matches_pmf():
    p = GigpParams(-0.5, 2.0, 0.9)
    for j in [0, 3, 40]:
        assert math.exp(log_pmf(p, j)) == pytest.approx(pmf(p, j), rel=1e-12)


def test_pmf_and_log_pmf_take_arrays():
    for p in (GigpParams(-0.5, 2.0, 0.9), GigpParams(-0.5, 0.0, 0.9, True)):
        js = np.arange(1, 400).reshape(-1, 7) - (0 if p.zero_truncated else 1)
        got = pmf(p, js)
        assert isinstance(got, np.ndarray) and got.shape == js.shape
        assert got.tolist() == [[pmf(p, int(j)) for j in row] for row in js]
        assert log_pmf(p, js.astype(float)).tolist() == [[log_pmf(p, int(j)) for j in row]
                                                          for row in js]
        assert type(pmf(p, 3)) is float and type(log_pmf(p, np.int64(3))) is float
        assert pmf(p, np.arange(0)).size == 0
    p = GigpParams(0.5, 2.0, 0.9)
    # one check serves both, for a number and for an array
    for fn in (pmf, log_pmf):
        for bad in (-1, 2.5, math.nan, math.inf, "3", np.array([1, -1]), np.array([1.0, 0.5])):
            with pytest.raises(ValueError, match="nonnegative integer"):
                fn(p, bad)
        with pytest.raises(ValueError, match="zero truncation"):
            fn(GigpParams(0.5, 2.0, 0.9, True), np.array([3, 0]))
    # a j past the default cut (jmax 342 here) extends the table
    assert pmf(p, np.array([5000])).tolist() == [pmf(p, 5000)]
    assert 0.0 < pmf(p, 5000) < 1e-200


def test_resolve_truncation():
    assert resolve_truncation(-0.5, 0.0, None) is True
    assert resolve_truncation(0.0, 0.0, None) is True
    assert resolve_truncation(0.5, 0.0, None) is False
    assert resolve_truncation(-0.5, 2.0, None) is False
    assert resolve_truncation(-0.5, 2.0, True) is True
    assert resolve_truncation(-0.5, 0.0, False) is False


def test_ccdf_values_and_conventions():
    p = GigpParams(-0.5, 2.0, 0.99)
    assert ccdf(p, 19.89983) == pytest.approx(0.1240714, abs=1e-5)
    assert ccdf(p, 0.0) == 1.0
    assert ccdf(p, -3.0) == 1.0
    # P(X >= x) steps at integers: ceil convention
    assert ccdf(p, 1.5) == ccdf(p, 2.0)
    assert ccdf(p, 2.0001) == ccdf(p, 3.0)
    for j in [0, 1, 7]:
        assert ccdf(p, j) - ccdf(p, j + 1) == pytest.approx(pmf(p, j), rel=1e-9)
    assert cdf(p, 2.0) == pytest.approx(pmf(p, 0) + pmf(p, 1), rel=1e-9)
    assert ccdf(p, 1e9) == 0.0


def test_ccdf_array_matches_scalar():
    p = GigpParams(-0.5, 2.0, 0.99)
    xs = np.array([-3.0, 0.0, 0.5, 1.0, 1.5, 2.0001, 19.89983, 400.0, 1e9])
    got = ccdf(p, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got.tolist() == [ccdf(p, x) for x in xs.tolist()]
    js = np.arange(0, 60, dtype=np.int64).reshape(6, 10)
    assert ccdf(p, js).tolist() == [[ccdf(p, int(j)) for j in row] for row in js]
    assert type(ccdf(p, 3)) is float and type(ccdf(p, np.float64(3.5))) is float
    with pytest.raises(ValueError):
        ccdf(p, np.array([1.0, math.nan]))


def test_ccdf_truncated_sums_to_one_from_one():
    p = GigpParams(0.0, 0.0, 0.5, zero_truncated=True)
    assert ccdf(p, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert ccdf(p, 0.5) == pytest.approx(1.0, abs=1e-12)


def _ccdf_mixture_oracle(nu, alpha, theta, j0):
    # P(X >= j0) as the GIG mixture of Poisson tails P(j0, lam): the rate
    # has density lam^(nu-1) exp(-(a lam + b/lam)/2) / (2 (b/a)^(nu/2) K_nu(sqrt(ab)))
    # with a = 2 (1-theta)/theta, b = alpha^2 theta/2; no Bessel series involved
    nu, th = mpmath.mpf(nu), mpmath.mpf(theta)
    a, b = 2 * (1 - th) / th, mpmath.mpf(alpha) ** 2 * th / 2
    norm = 2 * (b / a) ** (nu / 2) * mpmath.besselk(nu, mpmath.sqrt(a * b))
    scale = th / (1 - th)
    return mpmath.quad(
        lambda lam: lam ** (nu - 1) * mpmath.exp(-(a * lam + b / lam) / 2)
        * mpmath.gammainc(j0, 0, lam, regularized=True),
        [0, 1, j0, scale, 10 * scale, 100 * scale, mpmath.inf]) / norm


def test_ccdf_and_shape_bias_against_mixture_oracle():
    # the 0.188 gap between the scaled mean and phi_nu at theta = 0.99 is
    # the model's own finite-theta bias, not an error in ccdf
    p = GigpParams(0.5, 2.0, 0.99)
    a = scaling_a(p.theta)
    tails = {}
    for x in [0.2, 0.5, 1.0]:
        j0 = math.ceil(a * x)
        tails[x] = _ccdf_mixture_oracle(p.nu, p.alpha, p.theta, j0)
        assert ccdf(p, j0) == pytest.approx(float(tails[x]), rel=1e-10)
    xs = np.arange(0.2, 5.0001, 0.05)
    assert expected_shape_deviation(p, xs) == pytest.approx(0.1879, abs=1e-3)
    # case a: B = M / Gamma(nu), so the mean sits at Gamma(nu) F-bar(A x)
    gap = mpmath.gamma(p.nu) * tails[0.2] - mpmath.gammainc(p.nu, 0.2)
    assert float(gap) == pytest.approx(0.1879, abs=1e-3)


def test_mean_exact_values():
    assert mean_exact(GigpParams(2.0, 0.0, 0.5)) == pytest.approx(2.0, rel=1e-12)
    want = 1.0 / math.log(2.0)
    assert mean_exact(GigpParams(0.0, 0.0, 0.5, True)) == pytest.approx(want, rel=1e-12)
    # truncated mean is untruncated / (1 - f_0)
    p, pt = GigpParams(0.5, 2.0, 0.9), GigpParams(0.5, 2.0, 0.9, True)
    assert mean_exact(pt) == pytest.approx(mean_exact(p) / (1.0 - pmf(p, 0)), rel=1e-12)


def test_mean_asymptotic_cases():
    assert mean_asymptotic(GigpParams(0.5, 0.0, 0.99)) == pytest.approx(50.0, rel=1e-12)
    assert mean_asymptotic(GigpParams(-1.0, 2.0, 0.99)) == pytest.approx(4.60517, abs=1e-4)
    # nu < -2 saturates at (alpha/2)^2/(-nu-1), theta-free
    assert mean_asymptotic(GigpParams(-2.0, 2.0, 0.9)) == pytest.approx(1.0, rel=1e-12)
    assert mean_asymptotic(GigpParams(-2.0, 2.0, 0.999)) == pytest.approx(1.0, rel=1e-12)


def test_mean_asymptotic_approaches_exact():
    # ratio exact/asymptotic tends to 1 as theta -> 1
    for p0 in [GigpParams(0.5, 2.0, 0.0), GigpParams(0.0, 0.0, 0.0, True),
               GigpParams(-0.5, 2.0, 0.0), GigpParams(-0.75, 0.0, 0.0, True),
               GigpParams(-1.0, 2.0, 0.0)]:
        errs = []
        for theta in [0.9, 0.99, 0.999]:
            p = GigpParams(p0.nu, p0.alpha, theta, p0.zero_truncated)
            errs.append(abs(mean_exact(p) / mean_asymptotic(p) - 1.0))
        assert errs[2] < errs[0]
        assert errs[2] < 0.35


def test_mean_exact_allows_deep_nu_for_diagnostics():
    # saturation under heavy mixing: exact mean stays near the ceiling
    got = mean_exact(GigpParams(-2.0, 2.0, 0.9999))
    assert got == pytest.approx(1.0, abs=0.15)


def test_theta_from_mean_example_and_roundtrip():
    assert theta_from_mean(0.5, 0.0, 50.0) == pytest.approx(0.990099, abs=1e-6)
    grid = [GigpParams(0.5, 2.0, 0.9), GigpParams(0.5, 2.0, 0.99, True),
            GigpParams(2.0, 0.0, 0.3), GigpParams(0.0, 0.0, 0.95, True),
            GigpParams(-0.5, 0.0, 0.99, True), GigpParams(-1.0, 1.5, 0.9),
            GigpParams(-0.25, 4.0, 0.6)]
    for p in grid:
        eta = mean_exact(p)
        got = theta_from_mean(p.nu, p.alpha, eta, p.zero_truncated)
        assert mean_exact(GigpParams(p.nu, p.alpha, got, p.zero_truncated)) == pytest.approx(
            eta, rel=1e-8)


def test_theta_from_mean_errors():
    with pytest.raises(ValueError):
        theta_from_mean(0.5, 2.0, -1.0)
    with pytest.raises(ValueError):
        theta_from_mean(0.0, 0.0, 0.9)  # truncated mean always > 1
    with pytest.raises(ValueError):
        theta_from_mean(-1.0, 0.0, 5.0)


def test_gig_density_normalizes_and_mixes_to_pmf():
    for nu, alpha, theta in [(0.5, 2.0, 0.9), (-0.5, 1.0, 0.7), (2.0, 0.5, 0.6)]:
        p = GigpParams(nu, alpha, theta)
        total, _ = integrate.quad(lambda lam: gig_density(p, lam), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
        for j in [0, 1, 3, 7]:
            mixed, _ = integrate.quad(
                lambda lam: math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))
                * gig_density(p, lam), 0.0, np.inf)
            assert mixed == pytest.approx(pmf(p, j), rel=1e-8)


def test_gig_density_gamma_limit():
    p = GigpParams(2.0, 0.0, 0.5)
    rate = (1.0 - 0.5) / 0.5
    for lam in [0.2, 1.0, 4.0]:
        want = rate ** 2 * lam * math.exp(-rate * lam)  # gamma(2, rate)
        assert gig_density(p, lam) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        gig_density(GigpParams(0.0, 0.0, 0.5, True), 1.0)
    with pytest.raises(ValueError):
        gig_density(p, 0.0)


def test_tail_pmf_asymptotic_converges():
    cases = [GigpParams(0.5, 2.0, 0.9), GigpParams(-0.5, 2.0, 0.9),
             GigpParams(2.0, 0.0, 0.9), GigpParams(0.0, 0.0, 0.9, True),
             GigpParams(-0.5, 0.0, 0.9, True), GigpParams(0.5, 2.0, 0.9, True)]
    for p in cases:
        errs = [abs(pmf(p, j) / tail_pmf_asymptotic(p, j) - 1.0) for j in (50, 100, 300)]
        # Fisher's leading term is already exact, hence the slack
        assert errs[2] <= errs[0] + 1e-12
        assert errs[2] < 0.02


def test_validate_domain():
    validate(GigpParams(-1.0, 2.0, 0.5))
    for bad in [GigpParams(0.5, 2.0, 0.0), GigpParams(0.5, 2.0, 1.0),
                GigpParams(0.5, -1.0, 0.5), GigpParams(-1.5, 2.0, 0.5),
                GigpParams(-1.0, 0.0, 0.5, True), GigpParams(0.0, 0.0, 0.5),
                GigpParams(-0.5, 0.0, 0.5), GigpParams(math.nan, 1.0, 0.5)]:
        with pytest.raises(ValueError):
            validate(bad)
    with pytest.raises(ValueError):
        pmf(GigpParams(0.5, 2.0, 0.9, True), 0)
    with pytest.raises(ValueError):
        pmf(GigpParams(0.5, 2.0, 0.9), -1)


def _gig_moment(p, a, b, r):
    omega = math.sqrt(a * b)
    return (b / a) ** (r / 2.0) * float(
        mpmath.besselk(p + r, omega) / mpmath.besselk(p, omega))


def test_gig_sampler_moments():
    from gigp.distribution import _gig_rvs
    rng = np.random.default_rng(7)
    for p, a, b in [(0.5, 0.2222, 1.8), (-0.5, 0.0202, 1.98), (-1.0, 0.1, 0.45),
                    (2.0, 1.0, 0.5)]:
        n = 40000
        x = _gig_rvs(rng, p, a, b, n)
        m1 = _gig_moment(p, a, b, 1)
        m2 = _gig_moment(p, a, b, 2)
        sd = math.sqrt((m2 - m1 * m1) / n)
        assert x.mean() == pytest.approx(m1, abs=5.0 * sd)
        assert x.min() > 0.0


def test_sample_matches_pmf():
    p = GigpParams(0.5, 2.0, 0.9)
    n = 40000
    values = sample_values(p, 123, n)
    for j in [0, 1, 2, 5]:
        q = pmf(p, j)
        sd = math.sqrt(q * (1.0 - q) / n)
        assert np.mean(values == j) == pytest.approx(q, abs=5.0 * sd)
    eta = mean_exact(p)
    assert values.mean() == pytest.approx(eta, rel=0.05)


def test_sample_alpha_zero_matches_pmf():
    p = GigpParams(0.0, 0.0, 0.8, zero_truncated=True)
    n = 40000
    values = sample_values(p, 9, n)
    assert values.min() >= 1
    for j in [1, 2, 6]:
        q = pmf(p, j)
        sd = math.sqrt(q * (1.0 - q) / n)
        assert np.mean(values == j) == pytest.approx(q, abs=5.0 * sd)


def test_sample_truncated_has_no_zeros():
    p = GigpParams(-0.5, 1.0, 0.9, zero_truncated=True)
    values = sample_values(p, 11, 5000)
    assert values.min() >= 1
    q1 = pmf(p, 1)
    sd = math.sqrt(q1 * (1.0 - q1) / 5000)
    assert np.mean(values == 1) == pytest.approx(q1, abs=5.0 * sd)


def test_sample_returns_table_and_is_deterministic():
    p = GigpParams(-0.5, 2.0, 0.99)
    t1 = sample(p, 42, 1000)
    t2 = sample(p, 42, 1000)
    assert isinstance(t1, diagram.FrequencyTable)
    assert t1.M == 1000
    assert t1 == t2
    assert sample(p, 43, 1000) != t1
    with pytest.raises(ValueError):
        sample(p, 1, 0)
