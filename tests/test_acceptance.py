"""Acceptance suite: one test per contract criterion, at the stated tolerance.

Each criterion gets its own pass/fail line (`pytest -v`).  Statistical
criteria use frozen seeds so that reruns are byte-for-byte repeatable.
Wall-clock budgets are asserted too, with the stated limit applied to
each line that shares a multi-part budget.

The limit theorems behind criteria 7 and 10 are checked where their
finite-size error sits below the stated tolerance.  At theta = 0.99 the
exact mean M F-bar(A x)/B is 0.1879 above phi_nu at x = 0.2 (the bias
shrinks like 1.9 sqrt(1 - theta)), so the sup against phi_nu is taken at
theta = 0.999 and the theta = 0.99 sample is held to its exact mean.  The
scaled partition boundary fluctuates with sd
n^(-1/4) / sqrt(kappa (e^(kappa x) - 1)), which is 0.129 at x = 0.3 and
n = 10^4, so its sup is taken at n = 10^6 (sd 0.041).  See README.
"""

import math
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gigp.chaotic import poisson_gof_experiment, poisson_rate
from gigp.diagram import young_y
from gigp.distribution import (GigpParams, ccdf, mean_asymptotic, mean_exact,
                               pmf, sample, sample_values)
from gigp.fitgof import ks_normality, pointwise_z_test
from gigp.partition import calibrate, partition_shape, sample_partition
from gigp.shape import (expected_shape_deviation, limit_cov, scaling_a,
                        scaling_b, sup_distance, upsilon)
from gigp.specfun import chi2_sf, log_bessel_k, normal_cdf
from gigp.cli import read_frequency_csv

CHEN_CSV = Path(__file__).resolve().parents[1] / "data" / "chen.csv"

# shared evaluation grid for the identity suites
GRID = [(nu, alpha, theta)
        for nu in (-1.0, -0.5, 0.0, 0.5, 2.0)
        for alpha in (0.5, 2.0)
        for theta in (0.5, 0.9)]


def test_criterion_01_scaling_anchors():
    t0 = time.perf_counter()
    assert scaling_a(0.99) == pytest.approx(99.49916, rel=1e-3)
    assert scaling_a(0.96876) == pytest.approx(31.5076, rel=1e-3)
    assert scaling_a(0.99369) == pytest.approx(157.9781, rel=1e-3)
    anchors = [
        (GigpParams(0.5, 2.0, 0.99), 1000, 564.1896),
        (GigpParams(-0.5, 2.0, 0.99), 1000, 56.41896),
        (GigpParams(-0.5, 0.0, 0.96876, True), 6891, 343.5839),
        (GigpParams(0.0, 0.0, 0.99369, True), 138, 27.24247),
        (GigpParams(-0.5, 2.0, 0.99), 35, 1.974664),
    ]
    for params, m, want in anchors:
        assert scaling_b(params, m).b == pytest.approx(want, rel=1e-3)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_poisson_rate_anchor():
    t0 = time.perf_counter()
    params = GigpParams(-0.5, 2.0, 0.99)
    approx = poisson_rate(params, 35, 0.2)
    assert approx.lam == pytest.approx(4.342498, abs=1e-3)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_chi2_and_normal_cdf_anchors():
    t0 = time.perf_counter()
    assert chi2_sf(1.972246, 7) == pytest.approx(0.9614, abs=5e-4)
    assert normal_cdf(-3.413073) == pytest.approx(0.00032, abs=5e-5)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_bessel_identity_partial_sums():
    # sum_j (alpha theta / 2)^j K_{nu+j}(alpha) / j!  ->  K_nu(alpha s) / s^nu
    # with s = sqrt(1 - theta); terms advance by Bessel ratios so no
    # intermediate K overflows
    t0 = time.perf_counter()
    for nu, alpha, theta in GRID:
        s = math.sqrt(1.0 - theta)
        target = math.exp(log_bessel_k(nu, alpha * s) - nu * math.log(s))
        term = math.exp(log_bessel_k(nu, alpha))
        total = term
        j = 0
        while term > target * 1e-14 and j < 20_000:
            ratio = math.exp(log_bessel_k(nu + j + 1.0, alpha)
                             - log_bessel_k(nu + j, alpha))
            term *= (alpha * theta / 2.0) * ratio / (j + 1.0)
            total += term
            j += 1
        assert abs(total / target - 1.0) <= 1e-8, (nu, alpha, theta)
    assert time.perf_counter() - t0 < 10.0


def _series_mean(params: GigpParams) -> float:
    total = 0.0
    j = 1
    while True:
        step = j * pmf(params, j)
        total += step
        if j > 10 and step < total * 1e-16:
            return total
        j += 1


def test_criterion_05_mean_identity_and_asymptotics():
    t0 = time.perf_counter()
    for nu, alpha, theta in GRID:
        p = GigpParams(nu, alpha, theta)
        assert abs(_series_mean(p) / mean_exact(p) - 1.0) <= 1e-6, (nu, alpha, theta)
    # exact/asymptotic ratio walks to 1 monotonically for the four cases
    for base in [GigpParams(0.5, 2.0, 0.0), GigpParams(0.0, 0.0, 0.0, True),
                 GigpParams(-0.5, 2.0, 0.0), GigpParams(-0.75, 0.0, 0.0, True)]:
        gaps = []
        for theta in (0.9, 0.99, 0.999):
            p = GigpParams(base.nu, base.alpha, theta, base.zero_truncated)
            gaps.append(abs(mean_exact(p) / mean_asymptotic(p) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2], base
    # heavy mixing: the mean saturates near (alpha/2)^2 / (-nu - 1) = 1
    assert mean_exact(GigpParams(-2.0, 2.0, 0.9999)) == pytest.approx(1.0, abs=0.15)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_pmf_three_term_recurrence():
    t0 = time.perf_counter()
    for nu, alpha, theta in GRID:
        p = GigpParams(nu, alpha, theta)
        f = [pmf(p, j) for j in range(503)]
        for j in range(501):
            lhs = f[j + 2]
            rhs = ((nu + j + 1.0) * theta / (j + 2.0)) * f[j + 1] + (
                alpha ** 2 * theta ** 2 / (4.0 * (j + 2.0) * (j + 1.0))) * f[j]
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs), (nu, alpha, theta, j)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_expected_shape_all_cases():
    t0 = time.perf_counter()
    xs = np.arange(0.2, 5.0001, 0.05)
    cases = [GigpParams(0.5, 0.5, 0.999), GigpParams(0.0, 0.0, 0.999, True),
             GigpParams(-0.5, 0.5, 0.999), GigpParams(-0.75, 0.0, 0.999, True)]
    for p in cases:
        assert expected_shape_deviation(p, xs) < 0.05, p
    assert time.perf_counter() - t0 < 120.0


def _mean_sup_dev(table, params: GigpParams, m: int, pair, delta: float) -> float:
    # sup over x >= delta of |Y-tilde(x) - M F-bar(A x)/B|: both steps are
    # constant on (j - 1, j], so the integers from ceil(A delta) to one past
    # the largest value cover it
    js = np.arange(math.ceil(pair.a * delta), int(table.support[-1]) + 2)
    mean = m * np.array([ccdf(params, j) for j in js])
    return float(np.max(np.abs(young_y(table, js) - mean))) / pair.b


def test_criterion_07_monte_carlo_sup_distance():
    # At theta = 0.99 the exact mean M F-bar(A x)/B is 0.1879 above phi_nu
    # at x = 0.2 (expected_shape_deviation, confirmed with mpmath), more
    # than the 0.15 tolerance on its own, while the sample-to-mean sup has
    # median 0.041.  That bias shrinks like 1.9 sqrt(1 - theta), to 0.059
    # at theta = 0.999, where the sup against phi_nu is checked.  The
    # theta = 0.99 sample is held to its exact mean.
    t0 = time.perf_counter()
    m, delta = 1000, 0.2
    hits_mean = hits_shape = 0
    params = GigpParams(0.5, 2.0, 0.99)
    pair = scaling_b(params, m)
    for s in range(100):
        table = sample(params, 20260814 + s, m)
        hits_mean += _mean_sup_dev(table, params, m, pair, delta) < 0.15
    params = GigpParams(0.5, 2.0, 0.999)
    for s in range(100):
        table = sample(params, 20260814 + s, m)
        rep = sup_distance(table, params, delta)
        hits_shape += rep.sup_distance < 0.15
    assert time.perf_counter() - t0 < 120.0
    assert hits_mean >= 90, f"sup |Y-tilde - mean| < 0.15 in only {hits_mean}/100 seeds"
    assert hits_shape >= 90, f"sup_distance < 0.15 in only {hits_shape}/100 seeds"


def test_criterion_08_fluctuation_normality_and_covariance():
    t0 = time.perf_counter()
    params = GigpParams(0.5, 2.0, 0.99)
    m = 5000
    rng = np.random.default_rng(20260814)
    u1, u2 = [], []
    for _ in range(500):
        table = sample(params, rng, m)
        u1.append(upsilon(table, params, 1.0))
        u2.append(upsilon(table, params, 2.0))
    _, p_value = ks_normality(u1)
    assert p_value > 0.01
    corr = float(np.corrcoef(u1, u2)[0, 1])
    assert abs(corr - limit_cov(params.nu, 1.0, 2.0)) <= 0.1
    assert time.perf_counter() - t0 < 180.0


def test_criterion_09_chaotic_gof_rate_and_replicate_mean():
    t0 = time.perf_counter()
    params = GigpParams(-0.5, 2.0, 0.99)
    passes = sum(
        poisson_gof_experiment(params, 35, 0.2, 100, seed=20260814 + s).p_value > 0.05
        for s in range(200))
    assert passes >= 180, f"GOF passed in only {passes}/200 seeds"
    pair = scaling_b(params, 35)
    thr = pair.a * 0.2
    rng = np.random.default_rng(20260814)
    ys = np.array([np.count_nonzero(sample_values(params, rng, 35) >= thr)
                   for _ in range(200)], dtype=float)
    se = ys.std(ddof=1) / math.sqrt(len(ys))
    assert abs(ys.mean() - 4.3425) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_partition_weight_and_part_count():
    t0 = time.perf_counter()
    n = 10_000
    cfg = calibrate(n)
    rng = np.random.default_rng(31415)
    weights, parts = [], []
    for _ in range(200):
        table = sample_partition(cfg, rng)
        weights.append(table.N)
        parts.append(table.M)
    assert abs(np.mean(weights) / n - 1.0) <= 0.05
    want_parts = math.sqrt(6.0 * n) / (2.0 * math.pi) * math.log(n)
    assert abs(np.mean(parts) / want_parts - 1.0) <= 0.10
    assert time.perf_counter() - t0 < 120.0


def _partition_sup_dev(table, n: int) -> float:
    # sup over x >= 0.3 of |Y(x sqrt(n))/sqrt(n) - y(x)|; Y is constant on
    # (j_(k-1), j_k] and the shape falls, so the sup sits at x = 0.3 or at
    # a jump j_k = x sqrt(n), against Y(j_k) = suffix[k] or the right
    # limit suffix[k+1], both read from the integer support
    root = math.sqrt(n)
    first = int(np.searchsorted(table.support / root, 0.3))
    worst = abs(table.suffix[first] / root - partition_shape(0.3))
    for k in range(first, table.support.size):
        y = partition_shape(table.support[k] / root)
        worst = max(worst, abs(table.suffix[k] / root - y),
                    abs(table.suffix[k + 1] / root - y))
    return float(worst)


def test_criterion_10_partition_scaled_shape():
    # The scaled boundary at x has sd n^(-1/4) / sqrt(kappa (e^(kappa x) - 1)),
    # 0.129 at x = 0.3 and n = 10^4 (0.130 over 2000 draws), so even that
    # single point stays within 0.2 only about 88% of the time; the bias
    # there is about 0.01.  At n = 10^6 the sd at x = 0.3 is 0.041.  n = 10^4
    # stays covered by test_criterion_10_partition_weight_and_part_count.
    t0 = time.perf_counter()
    n = 1_000_000
    cfg = calibrate(n)
    rng = np.random.default_rng(271828)
    sups = np.array([_partition_sup_dev(sample_partition(cfg, rng), n)
                     for _ in range(100)])
    assert time.perf_counter() - t0 < 120.0
    hits = int(np.sum(sups < 0.2))
    assert hits >= 90, f"sup deviation < 0.2 in only {hits}/100 seeds"


def test_criterion_10_partition_conditional_uniformity():
    t0 = time.perf_counter()
    cfg = calibrate(8)
    rng = np.random.default_rng(161803)
    hits = Counter()
    for _ in range(100_000):
        table = sample_partition(cfg, rng)
        if table.N == 8:
            hits[tuple(sorted(table.counts.items()))] += 1
    assert len(hits) == 22
    obs = np.array(list(hits.values()), dtype=float)
    exp = obs.sum() / 22.0
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2_sf(stat, 21) > 0.01
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.skipif(not CHEN_CSV.exists(),
                    reason="data/chen.csv not present; see README for the schema")
def test_criterion_11_chen_pointwise_z():
    table = read_frequency_csv(str(CHEN_CSV))
    assert table.M == 138, "transcribed table should have 138 sources"
    params = GigpParams(0.0, 0.0, 0.99369, True)
    x = 100.0 / scaling_a(0.99369)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B ~ 27 sits in the chaotic range
        z, _, _ = pointwise_z_test(table, params, x)
    assert z == pytest.approx(-3.413073, abs=1e-3)
