"""Tail-line fitting, theta estimation, chi-square plumbing, z-test, KS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gigp.diagram import FrequencyTable, table_from_sample
from gigp.distribution import GigpParams, ccdf, pmf, sample_values, theta_from_mean
from gigp.fitgof import alpha_from_b, fit_tail_line, ks_normality, pearson_chi2, pointwise_z_test
from gigp.shape import scaling_b
from gigp.specfun import chi2_sf, normal_cdf

LOG2 = math.log(2.0)


def _geometric_table(nu: int):
    # heights y_j = B (j/A)^(nu-1) e^(-j/A) with A = 1/log 2 are exact
    # integers: nu = 1 gives 2^(20-j), nu = 2 gives j 2^(20-j)
    if nu == 1:
        counts = {j: 2 ** (19 - j) for j in range(1, 20)}
        counts[20] = 1
    else:
        counts = {j: 2 ** (19 - j) * (j - 1) for j in range(2, 20)}
        counts[20] = 20
    return FrequencyTable(counts)


def test_fit_tail_line_exact_flat_curve():
    # nu = 1: v is constant, slope exactly 0, intercept log B = 20 log 2
    a = 1.0 / LOG2
    fit = fit_tail_line(_geometric_table(1), a, -1.0, 3.0)
    assert abs(fit.slope) < 1e-10
    assert fit.intercept == pytest.approx(20.0 * LOG2, abs=1e-10)
    assert fit.nu_hat == fit.slope + 1.0
    assert fit.logB_hat == fit.intercept
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_tail_line_exact_sloped_curve():
    # nu = 2: y = B x e^(-x) with B = 2^20 / log 2
    a = 1.0 / LOG2
    fit = fit_tail_line(_geometric_table(2), a, -1.0, 3.5)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.0 ** 20 / LOG2), abs=1e-9)
    assert fit.nu_hat == pytest.approx(2.0, abs=1e-10)


def test_fit_tail_line_default_window():
    a = 1.0 / LOG2
    t = _geometric_table(1)
    fit = fit_tail_line(t, a)
    us = sorted(math.log(j / a) for j in t.counts)
    lo = us[int(round(0.2 * (len(us) - 1)))]
    hi = us[int(round(0.8 * (len(us) - 1)))]
    assert fit.fit_range == (pytest.approx(lo), pytest.approx(hi))


def test_fit_tail_line_errors():
    a = 1.0 / LOG2
    with pytest.raises(ValueError):
        fit_tail_line(_geometric_table(1), a, 2.55, 3.0)  # < 3 points
    with pytest.raises(ValueError):
        fit_tail_line(_geometric_table(1), 0.0)
    with pytest.raises(ValueError):
        fit_tail_line(FrequencyTable({1: 4, 2: 2}), a)


def test_fit_tail_line_deep_windows_approach_limit_slope():
    # exact boundary at giant M: the fitted slope climbs toward nu - 1 as
    # the window moves into the tail, where phi's (nu-1)/x curvature fades
    p = GigpParams(0.5, 2.0, 0.99)
    big = 10 ** 9
    pair = scaling_b(p, big)
    counts = {}
    for j in range(1, 4000):
        c = round(big * pmf(p, j))
        if c > 0:
            counts[j] = c
    t = FrequencyTable(counts)
    slopes = [fit_tail_line(t, pair.a, *win).slope
              for win in [(0.0, 1.5), (1.0, 2.0), (1.5, 2.5)]]
    assert slopes[0] > slopes[1] > slopes[2] > -0.5
    assert abs(slopes[2] - (-0.5)) < 0.05


def test_fit_tail_line_monte_carlo_slope():
    # the estimator centers on the deterministic window slope (-0.379 at
    # u in [0, 1.5], theta = 0.99) rather than the asymptotic -0.5; the
    # gap is the finite-x curvature of phi, not estimator bias
    p = GigpParams(0.5, 2.0, 0.99)
    m = 10_000
    pair = scaling_b(p, m)
    det_pts = []
    for j in range(1, 3000):
        u = math.log(j / pair.a)
        if 0.0 <= u <= 1.5:
            det_pts.append((u, math.log(m * ccdf(p, j)) + j / pair.a))
    du = np.array([q[0] for q in det_pts])
    dv = np.array([q[1] for q in det_pts])
    det_slope = float(np.polyfit(du, dv, 1)[0])
    rng = np.random.default_rng(424242)
    slopes = np.array([
        fit_tail_line(table_from_sample(sample_values(p, rng, m)),
                      pair.a, 0.0, 1.5).slope
        for _ in range(100)
    ])
    assert abs(slopes.mean() - det_slope) < 0.05
    assert np.mean(np.abs(slopes - (-0.5)) <= 0.25) >= 0.90


def test_alpha_from_b_round_trip():
    p = GigpParams(-0.5, 2.0, 0.99)
    b = scaling_b(p, 1000).b
    assert alpha_from_b(-0.5, 0.99, 1000, b) == pytest.approx(2.0, abs=1e-9)
    p = GigpParams(-1.0, 1.5, 0.97)
    b = scaling_b(p, 500).b
    assert alpha_from_b(-1.0, 0.97, 500, b) == pytest.approx(1.5, abs=1e-9)


def test_alpha_from_b_not_identifiable():
    assert alpha_from_b(0.5, 0.99, 1000, 500.0) is None
    assert alpha_from_b(0.0, 0.99, 1000, 500.0) is None
    assert alpha_from_b(1.5, 0.99, 1000, 500.0) is None
    with pytest.raises(ValueError):
        alpha_from_b(-0.5, 0.99, 1000, 0.0)
    with pytest.raises(ValueError):
        alpha_from_b(-0.5, 1.0, 1000, 50.0)


# theta matching a table's mean N/M, as fit and gof estimate it without --theta


def test_estimate_theta_closed_form():
    # eta-hat = 50 with nu = 0.5, alpha = 0: theta = 50 / 50.5
    t = FrequencyTable({50: 2})
    assert theta_from_mean(0.5, 0.0, t.N / t.M) == pytest.approx(0.990099, abs=1e-6)


def test_estimate_theta_consistency():
    p = GigpParams(0.5, 2.0, 0.99)
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = table_from_sample(sample_values(p, rng, 20_000))
        assert theta_from_mean(0.5, 2.0, t.N / t.M) == pytest.approx(0.99, abs=0.005)
    pt = GigpParams(-0.5, 0.0, 0.95, zero_truncated=True)
    for _ in range(3):
        t = table_from_sample(sample_values(pt, rng, 20_000))
        assert theta_from_mean(-0.5, 0.0, t.N / t.M) == pytest.approx(0.95, abs=0.01)


def test_pearson_chi2_exact_match():
    rep = pearson_chi2([10, 20, 30], [10.0, 20.0, 30.0])
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.df == 2


def test_pearson_chi2_edge_merging_and_df():
    # 10 bins, one merge at each edge -> 8 bins; with the reference rate
    # specified (nothing fitted) df = 8 - 1 = 7; fitting it costs one more
    expected = [2.0, 3.0, 30.0, 30.0, 20.0, 10.0, 10.0, 10.0, 3.0, 2.0]
    observed = [1, 4, 28, 33, 19, 11, 9, 10, 4, 1]
    rep = pearson_chi2(observed, expected)
    assert len(rep.bins) == 8
    assert rep.df == 7
    assert pearson_chi2(observed, expected, n_fitted_params=1).df == 6
    assert np.all(rep.expected >= 5.0)
    assert rep.bins[0] == "0-1" and rep.bins[-1] == "8-9"
    assert rep.observed.dtype == np.int64 and rep.expected.dtype == np.float64
    assert rep.observed.sum() == sum(observed)
    assert rep.p_value == pytest.approx(chi2_sf(rep.statistic, 7), rel=1e-12)


def test_pearson_chi2_merged_layout_invariance():
    # two observed vectors equal after merging give identical reports
    expected = [2.0, 3.0, 30.0, 30.0, 20.0, 10.0, 10.0, 10.0, 3.0, 2.0]
    obs_a = [1, 4, 28, 33, 19, 11, 9, 10, 4, 1]
    obs_b = [5, 0, 28, 33, 19, 11, 9, 10, 0, 5]
    ra = pearson_chi2(obs_a, expected)
    rb = pearson_chi2(obs_b, expected)
    assert ra.statistic == pytest.approx(rb.statistic, rel=1e-14)
    assert ra.df == rb.df


def test_pearson_chi2_interior_merge():
    rep = pearson_chi2([9, 3, 10], [10.0, 2.0, 10.0])
    assert len(rep.bins) == 2
    assert rep.df == 1
    # interior bin folds into the smaller (left on ties) neighbor
    assert rep.bins == ["0-1", "2"]


def _merged_bins_by_rescan(expected, min_expected):
    # the merge order as first written: after every interior merge the
    # search for a straggler starts again from bin 0
    bins = [[str(i), 0, e, str(i)] for i, e in enumerate(expected)]

    def merge(i):
        bins[i][2] += bins[i + 1][2]
        bins[i][3] = bins[i + 1][3]
        del bins[i + 1]

    while len(bins) >= 2 and bins[0][2] < min_expected:
        merge(0)
    while len(bins) >= 2 and bins[-1][2] < min_expected:
        merge(len(bins) - 2)
    while len(bins) >= 2 and any(b[2] < min_expected for b in bins):
        i = next(k for k, b in enumerate(bins) if b[2] < min_expected)
        if i == 0:
            merge(0)
        elif i == len(bins) - 1 or bins[i - 1][2] <= bins[i + 1][2]:
            merge(i - 1)
        else:
            merge(i)
    return [(lo, hi, e) for lo, _, e, hi in bins]


def test_pearson_chi2_resumed_search_matches_rescan():
    rng = np.random.default_rng(11)
    layouts = [np.tile([9.0, 0.5, 0.3, 0.2, 6.0, 0.1], 400)]  # many stragglers
    layouts += [rng.choice([0.05, 0.4, 1.5, 3.0, 6.0, 20.0], size=rng.integers(20, 300))
                for _ in range(300)]
    for expected in layouts:
        observed = rng.poisson(expected)
        # scale so the expected total meets the observed one exactly
        expected = expected * observed.sum() / expected.sum()
        want = _merged_bins_by_rescan(expected.tolist(), 5.0)
        if len(want) < 2:
            continue
        rep = pearson_chi2(observed.tolist(), expected.tolist())
        assert [(lab.split("-")[0], lab.split("-")[-1], e)
                for lab, e in zip(rep.bins, rep.expected.tolist())] == want
        assert rep.df == len(want) - 1


def test_pearson_chi2_errors():
    with pytest.raises(ValueError):
        pearson_chi2([1, 2], [1.0])
    with pytest.raises(ValueError):
        pearson_chi2([-1, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson_chi2([10, 10], [10.0, 0.0])
    with pytest.raises(ValueError):
        pearson_chi2([100, 100], [100.0, 150.0])
    with pytest.raises(ValueError):
        pearson_chi2([2, 2], [2.0, 2.0])  # everything merges away
    with pytest.raises(ValueError):
        pearson_chi2([10, 10], [10.0, 10.0], n_fitted_params=1)  # df 0
    for labels in (["a"], ["a", "b", "c"]):  # one label per bin, not fewer or more
        with pytest.raises(ValueError, match="one entry per bin"):
            pearson_chi2([10, 10], [10.0, 10.0], labels=labels)
    # a nan threshold would merge nothing, as if every bin met it
    with pytest.raises(ValueError, match="min_expected must be a number"):
        pearson_chi2([10, 10], [10.0, 10.0], min_expected=math.nan)
    assert pearson_chi2([1, 10], [1.0, 10.0], min_expected=0.0).bins == ["0", "1"]
    with pytest.raises(ValueError):
        pearson_chi2([10, 10], [10.0, 10.0], min_expected=math.inf)  # one bin left
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="expected counts must be finite and >= 0"):
            pearson_chi2([10, 10], [10.0, bad])


def test_pearson_chi2_merges_zero_expected_counts():
    # an underflowed pmf leaves bins with expected 0; they fold like any other
    rep = pearson_chi2([50, 30, 0, 20, 1], [45.0, 35.0, 0.0, 21.0, 0.0])
    assert rep.bins == ["0", "1", "2-4"]
    assert rep.observed.tolist() == [50, 30, 21]
    assert rep.expected.tolist() == [45.0, 35.0, 21.0]
    # a merged bin must still expect something, and min_expected = 0 merges nothing
    with pytest.raises(ValueError, match="expected counts must be positive"):
        pearson_chi2([50, 30, 0, 20], [50.0, 30.0, 0.0, 20.0], min_expected=0.0)


def _pearson_chi2_by_lists(observed, expected, n_fitted_params=0, min_expected=5.0,
                           labels=None):
    # the reference: bins as lists, merged in place; quadratic in the bin
    # count, since each interior merge deletes from the middle of the list.
    # Returns (statistic, df, p_value, [(label, observed, expected), ...])
    def merge_two(bins, i):
        bins[i][1] = bins[i][1] + bins[i + 1][1]
        bins[i][2] = bins[i][2] + bins[i + 1][2]
        bins[i][3] = bins[i + 1][3]
        del bins[i + 1]

    obs = [int(o) for o in observed]
    exp = [float(e) for e in expected]
    if len(obs) != len(exp) or not obs:
        raise ValueError("observed and expected must be equal-length and nonempty")
    if any(o < 0 for o in obs):
        raise ValueError("observed counts must be nonnegative")
    if any(not e > 0.0 for e in exp):
        raise ValueError("expected counts must be positive")
    if n_fitted_params < 0:
        raise ValueError("n_fitted_params must be >= 0")
    total_o, total_e = sum(obs), sum(exp)
    if abs(total_e - total_o) > 0.005 * total_o:
        raise ValueError("expected total differs from observed total by more than 0.5%")
    if labels is None:
        labels = [str(i) for i in range(len(obs))]
    bins = [[labels[i], obs[i], exp[i], labels[i]] for i in range(len(obs))]
    while len(bins) >= 2 and bins[0][2] < min_expected:
        merge_two(bins, 0)
    while len(bins) >= 2 and bins[-1][2] < min_expected:
        merge_two(bins, len(bins) - 2)
    i = 0
    while len(bins) >= 2:
        i = next((k for k in range(i, len(bins)) if bins[k][2] < min_expected), None)
        if i is None:
            break
        if i > 0 and (i == len(bins) - 1 or bins[i - 1][2] <= bins[i + 1][2]):
            merge_two(bins, i - 1)
        else:
            merge_two(bins, i)
    if len(bins) < 2:
        raise ValueError("fewer than 2 bins remain after merging")
    df = len(bins) - n_fitted_params - 1
    if df < 1:
        raise ValueError("no degrees of freedom left after merging and fitting")
    stat = sum((o - e) ** 2 / e for _, o, e, _ in bins)
    out = [(lo if lo == hi else f"{lo}-{hi}", o, e) for lo, o, e, hi in bins]
    return stat, df, chi2_sf(stat, df), out


def _report_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 40), st.floats(1e-3, 20.0)),
                      min_size=1, max_size=60),
       rescale=st.booleans(), fitted=st.integers(0, 2),
       min_expected=st.sampled_from([0.5, 1.0, 5.0, 10.0]))
def test_pearson_chi2_matches_the_list_reference(pairs, rescale, fitted, min_expected):
    observed = np.array([o for o, _ in pairs], dtype=np.int64)
    expected = np.array([e for _, e in pairs])
    if rescale and observed.sum() > 0:  # meet the observed total, as a fitted model does
        expected = expected * observed.sum() / expected.sum()
    want = _report_or_error(_pearson_chi2_by_lists, observed.tolist(), expected.tolist(),
                            fitted, min_expected)
    rep = _report_or_error(pearson_chi2, observed, expected, fitted, min_expected)
    if isinstance(want, str):
        assert rep == want
        return
    got = (rep.statistic, rep.df, rep.p_value,
           list(zip(rep.bins, rep.observed.tolist(), rep.expected.tolist())))
    assert got == want


def test_pointwise_z_test_centered():
    p = GigpParams(0.5, 2.0, 0.9, zero_truncated=True)
    pair = scaling_b(p, 60)
    t = FrequencyTable({1: 40, 2: 12, 3: 8})
    with pytest.warns(UserWarning):  # tiny M keeps B in the chaotic range
        z, p2, p1 = pointwise_z_test(t, p, 0.5 / pair.a)
    assert z == pytest.approx(0.0, abs=1e-12)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)


def test_pointwise_z_test_null_coverage():
    p = GigpParams(0.5, 2.0, 0.99)
    m = 2000
    rng = np.random.default_rng(99)
    p2s = []
    zs = []
    for _ in range(200):
        t = table_from_sample(sample_values(p, rng, m))
        z, p2, _ = pointwise_z_test(t, p, 1.0)
        zs.append(z)
        p2s.append(p2)
    zs = np.array(zs)
    p2s = np.array(p2s)
    assert abs(np.mean(np.abs(zs) < 1.96) - 0.95) <= 0.05
    for level in (0.1, 0.05, 0.01):
        se = math.sqrt(level * (1.0 - level) / 200.0)
        assert np.mean(p2s <= level) <= level + 3.0 * se


def test_pointwise_z_test_warns_in_chaotic_regime():
    p = GigpParams(-0.5, 2.0, 0.99)
    t = FrequencyTable({1: 20, 2: 5, 3: 10})
    with pytest.warns(UserWarning):
        pointwise_z_test(t, p, 0.2)


def test_ks_normality_self_consistency():
    rng = np.random.default_rng(5)
    hits = sum(ks_normality(rng.standard_normal(10_000))[1] > 0.01
               for _ in range(100))
    assert hits >= 95


def test_ks_normality_power_and_errors():
    rng = np.random.default_rng(6)
    d, p = ks_normality(rng.standard_normal(10_000) + 1.0)
    assert p < 1e-6
    assert d > 0.3
    with pytest.raises(ValueError):
        ks_normality(np.zeros(19))


def test_ks_normality_matches_the_loop():
    rng = np.random.default_rng(12)
    for n in (20, 100, 5000):
        x = 1.1 * rng.standard_normal(n) + 0.05
        d_loop = 0.0
        for i, xi in enumerate(np.sort(x).tolist()):
            f = normal_cdf(xi)
            d_loop = max(d_loop, (i + 1) / n - f, f - i / n)
        assert ks_normality(x)[0] == d_loop


def test_ks_normality_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10_000)
    d, p = ks_normality(x)
    ref = scipy_stats.kstest(x, "norm")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=0.2)
