"""Poisson approximation in the bounded-B regime."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from gigp import chaotic, distribution
from gigp.chaotic import (increment_rates, integrated_rate,
                          poisson_gof_experiment, poisson_rate, _poisson_pmf,
                          _poisson_sf, _replicate_counts)
from gigp.distribution import GigpParams, ccdf, sample_values, _sample_values_rng
from gigp.fitgof import pearson_chi2
from gigp.shape import boundary_moments, limit_shape, scaling_a, scaling_b
from gigp.specfun import chi2_sf

P61 = GigpParams(-0.5, 2.0, 0.99)
M61 = 35


def _pair():
    return scaling_b(P61, M61)


def test_poisson_rate_anchor():
    pa = poisson_rate(P61, M61, 0.2)
    assert pa.lam == pytest.approx(4.342498, abs=1e-3)
    assert pa.tv_bound == pytest.approx(0.5388, abs=1e-3)
    assert pa.tv_bound == pytest.approx(pa.lam ** 2 / M61, rel=1e-12)
    assert pa.x == 0.2
    far = poisson_rate(P61, M61, 50.0)
    assert far.lam < 1e-12 and far.tv_bound < 1e-12
    with pytest.raises(ValueError):
        poisson_rate(P61, M61, 0.0)


def test_increment_rates_telescope():
    pair = _pair()
    xs = [0.1, 0.2, 0.4]
    lams = increment_rates(P61, M61, xs)
    assert len(lams) == 3
    assert all(l >= 0.0 for l in lams)
    total = M61 * ccdf(P61, pair.a * 0.1)
    assert sum(lams) == pytest.approx(total, rel=1e-12)
    assert increment_rates(P61, M61, np.array(xs)) == lams
    single = increment_rates(P61, M61, [0.2])
    assert single[0] == pytest.approx(poisson_rate(P61, M61, 0.2).lam,
                                      rel=1e-12)
    with pytest.raises(ValueError):
        increment_rates(P61, M61, [0.2, 0.2, 0.4])
    with pytest.raises(ValueError):
        increment_rates(P61, M61, [0.4, 0.2])
    with pytest.raises(ValueError, match="strictly increasing"):
        increment_rates(P61, M61, np.array([0.4, 0.2]))


def test_cell_counts_are_independent_poissons_in_inverted_time():
    # the paper's Poisson process in inverted time at the bench's chaotic
    # params: the counts of sources in A [0.5, 1), A [1, 2) and A [2, inf)
    # follow Poisson(lambda) with lambda = 0.998, 0.356 and 0.073, where the
    # total-variation bound lambda^2 / M is at most 0.03, and are all but
    # uncorrelated: a multinomial's cells correlate by
    # -sqrt(q_i q_j / ((1 - q_i)(1 - q_j))), q = lambda / M, under 0.02 here
    # ([0.2, 0.5), where lambda^2 / M = 0.24, is left to the distance checks)
    xs, replicates = [0.5, 1.0, 2.0], 5000
    lams = increment_rates(P61, M61, xs)
    assert max(lam * lam / M61 for lam in lams) < 0.03
    values = sample_values(P61, 1, replicates * M61).reshape(replicates, M61)
    ends = scaling_a(P61.theta) * np.array(xs + [math.inf])
    counts = [np.count_nonzero((values >= lo) & (values < hi), axis=1)
              for lo, hi in zip(ends[:-1], ends[1:])]
    for lam, ys in zip(lams, counts):
        top = int(ys.max())
        expected = replicates * np.array([_poisson_pmf(k, lam) for k in range(top)]
                                         + [_poisson_sf(top, lam)])
        assert pearson_chi2(np.bincount(ys), expected).p_value > 0.01, lam
    q = np.array(lams) / M61
    for i, j in ((0, 1), (0, 2), (1, 2)):
        want = -math.sqrt(q[i] * q[j] / ((1.0 - q[i]) * (1.0 - q[j])))
        assert abs(want) < 0.02
        assert abs(np.corrcoef(counts[i], counts[j])[0, 1] - want) <= 3.0 / math.sqrt(replicates)


def test_integrated_rate_basic():
    for x in (0.2, 1.0, 3.0):
        assert integrated_rate(P61, M61, 1.0 / x) == pytest.approx(
            poisson_rate(P61, M61, x).lam, rel=1e-12)
    assert integrated_rate(P61, M61, 1e-9) == 0.0
    ts = np.linspace(0.05, 20.0, 80)
    vals = [integrated_rate(P61, M61, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        integrated_rate(P61, M61, 0.0)


def test_integrated_rate_matches_limit_curve():
    # Lambda(t) = M F-bar(A/t) ~ B phi_nu(1/t); the relative error decays
    # like alpha*sqrt(1-theta), so at theta = 0.999 the 5% window needs
    # alpha <= 1; alpha = 2 sits near 6.5% and is checked for monotone
    # convergence instead
    for nu, alpha in [(-0.5, 1.0), (0.5, 1.0), (0.0, 0.0), (0.5, 0.0)]:
        trunc = alpha == 0.0 and nu <= 0.0
        p = GigpParams(nu, alpha, 0.999, trunc)
        pair = scaling_b(p, 35)
        for t in (0.5, 1.0, 2.0, 5.0):
            ratio = integrated_rate(p, 35, t) / (
                pair.b * limit_shape(nu, 1.0 / t))
            assert abs(ratio - 1.0) < 0.05
    gaps = []
    for theta in (0.99, 0.999, 0.9999):
        p = GigpParams(-0.5, 2.0, theta)
        pair = scaling_b(p, 35)
        ratio = integrated_rate(p, 35, 1.0) / (
            pair.b * limit_shape(-0.5, 1.0))
        gaps.append(abs(ratio - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_poisson_helpers_against_known_values():
    # Poisson(2): pmf(3) = 4/3 e^-2, P(X >= 2) = 1 - 3 e^-2
    assert _poisson_pmf(3, 2.0) == pytest.approx(8.0 / 6.0 * math.exp(-2.0),
                                                 rel=1e-12)
    assert _poisson_sf(2, 2.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0),
                                                rel=1e-10)
    assert _poisson_sf(0, 2.0) == pytest.approx(1.0, rel=1e-12)
    lam = 4.3425
    tail = sum(_poisson_pmf(j, lam) for j in range(9, 60))
    assert _poisson_sf(9, lam) == pytest.approx(tail, rel=1e-9)


def test_poisson_sf_from_the_mean_plus_one_matches_scipy():
    # for lam >= k + 1 the tail is 1 - Q(k, lam)
    for k, lam in [(1, 2.0), (3, 4.342498), (9, 10.0), (20, 60.0), (50, 51.0)]:
        assert _poisson_sf(k, lam) == pytest.approx(stats.poisson.sf(k - 1, lam), rel=1e-12)


def test_m_sources_must_be_a_positive_integer():
    calls = [lambda m: poisson_rate(P61, m, 1.0), lambda m: increment_rates(P61, m, [1.0, 2.0]),
             lambda m: integrated_rate(P61, m, 1.0), lambda m: boundary_moments(P61, m, 1.0),
             lambda m: scaling_b(P61, m)]
    for call in calls:
        for m in (-5, -3, 0, 10.5):
            with pytest.raises(ValueError, match="m_sources must be a positive integer"):
                call(m)


def test_poisson_sf_keeps_its_digits_below_the_mean_plus_one():
    # for lam < k + 1 the tail is P(k, lam) itself, which 1 - Q(k, lam)
    # loses to cancellation: relative errors 3.9e-14, 6.9e-4 and 0.21 here
    for k, lam in [(13, 4.342498), (20, 2.0), (30, 4.0)]:
        with mpmath.workdps(40):
            want = float(mpmath.gammainc(k, 0, lam, regularized=True))
        assert _poisson_sf(k, lam) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_gof_experiment_plumbing():
    rep = poisson_gof_experiment(P61, M61, 0.2, 100, seed=20260814)
    assert rep.observed.sum() == 100
    assert rep.expected.sum() == pytest.approx(100.0, rel=1e-12)
    assert np.all(rep.expected >= 5.0)
    assert rep.df == len(rep.bins) - 1
    # one seed's p-value passes 0.05 only 95% of the time; the rejection
    # rate over 200 seeds is test_criterion_09's, so this checks plumbing
    assert rep.statistic == pytest.approx(
        sum((o - e) ** 2 / e for o, e in zip(rep.observed.tolist(), rep.expected.tolist())),
        rel=1e-12)
    assert rep.p_value == chi2_sf(rep.statistic, rep.df)
    fitted = poisson_gof_experiment(P61, M61, 0.2, 100, seed=20260814,
                                    fit_lambda=True)
    assert fitted.df == len(fitted.bins) - 2
    with pytest.raises(ValueError):
        poisson_gof_experiment(P61, M61, 0.2, 1, seed=0)
    with pytest.raises(ValueError):
        poisson_gof_experiment(P61, M61, -1.0, 50, seed=0)


def test_gof_experiment_replicate_mean():
    pair = _pair()
    thr = pair.a * 0.2
    rng = np.random.default_rng(77)
    ys = [np.count_nonzero(_sample_values_rng(P61, rng, M61) >= thr)
          for _ in range(100)]
    lam = M61 * ccdf(P61, thr)
    assert abs(np.mean(ys) - lam) <= 3.0 * math.sqrt(lam / 100.0)


def _counts_one_at_a_time(params, rng, m_sources, threshold, replicates):
    return np.array([np.count_nonzero(_sample_values_rng(params, rng, m_sources) >= threshold)
                     for _ in range(replicates)], dtype=np.int64)


@pytest.mark.parametrize("replicates", [2, 255, 256, 257, 1000])
@pytest.mark.parametrize("m", [1, 35])
def test_replicate_counts_in_blocks_match_the_one_at_a_time_loop(monkeypatch, replicates, m):
    # the counts of each block of rows must be those of one compare per
    # replicate, in order, on either side of the block edge
    thr = scaling_b(P61, m).a * 0.2
    got = _replicate_counts(P61, np.random.default_rng(5), m, thr, replicates)
    want = _counts_one_at_a_time(P61, np.random.default_rng(5), m, thr, replicates)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    for fit_lambda in (False, True):
        reports = []
        for counts in (_replicate_counts, _counts_one_at_a_time):
            monkeypatch.setattr(chaotic, "_replicate_counts", counts)
            try:
                rep = poisson_gof_experiment(P61, m, 0.2, replicates, seed=5,
                                             fit_lambda=fit_lambda)
                reports.append((rep.statistic, rep.df, rep.bins, rep.observed.tolist(),
                                rep.expected.tolist()))
            except ValueError as exc:  # too few replicates for one bin of expected >= 5
                reports.append(str(exc))
        assert reports[0] == reports[1]
        assert m == 1 or replicates < 255 or not isinstance(reports[0], str)


def test_replicate_counts_make_each_block_once_past_block_0(monkeypatch):
    # at theta = 0.9999 (B ~ 2) the table has many blocks and the draws
    # reach past block 0, where the table keeps no columns: the sampler
    # calls of one experiment share the ones they make, so each is made once
    params, m = GigpParams(-0.5, 2.0, 0.9999), 350
    thr = scaling_b(params, m).a * 0.2
    want = _counts_one_at_a_time(params, np.random.default_rng(5), m, thr, 600)
    made, block = [], distribution._Tables._block
    monkeypatch.setattr(distribution._Tables, "_block", lambda t, b: made.append(b) or block(t, b))
    got = _replicate_counts(params, np.random.default_rng(5), m, thr, 600)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert max(made) > 1 and len(made) == len(set(made))


def test_replicate_counts_at_theta_0_99999_keep_one_call_per_replicate():
    # a 788-block table, whose draws at m = 35 reach blocks far past
    # block 0: the shared block columns leave the counts those of one
    # sampler call per replicate
    params, m = GigpParams(0.5, 2.0, 0.99999), 35
    assert len(distribution._tables(params).below) == 788
    thr = scaling_b(params, m).a * 0.2
    got = _replicate_counts(params, np.random.default_rng(5), m, thr, 300)
    want = _counts_one_at_a_time(params, np.random.default_rng(5), m, thr, 300)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert 0 < got.sum() < 300 * m


@pytest.mark.parametrize("theta, m", [(0.99, 35), (0.9999, 350)])
def test_values_past_the_threshold_are_the_uniforms_past_its_cum(theta, m):
    # the sampler's value is >= A x0 exactly when its uniform is >= P(X < A x0),
    # the entry cum[ceil(A x0) - 1] of block 0: so a replicate's Y can be
    # counted from the same stream's uniforms, with no draw
    params = GigpParams(-0.5, 2.0, theta)
    thr = scaling_a(theta) * 0.2
    cum = distribution._tables(params).cum
    assert math.ceil(thr) <= distribution._BLOCK
    values, uniforms = np.random.default_rng(1), np.random.default_rng(1)
    ys = [np.count_nonzero(_sample_values_rng(params, values, m) >= thr) for _ in range(2000)]
    us = [np.count_nonzero(uniforms.random(m) >= cum[math.ceil(thr) - 1]) for _ in range(2000)]
    assert ys == us
    assert 0 < sum(ys) < 2000 * m


def test_gof_experiment_warns_in_regular_regime():
    # B = 564 >> 50: warns about the regime; with lambda ~ 550 spread over
    # hundreds of values, 5 replicates leave no bin with expected >= 5
    p = GigpParams(0.5, 2.0, 0.99)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            poisson_gof_experiment(p, 1000, 0.2, 5, seed=1)
