"""Scaling anchors, limit-shape convergence, and fluctuation statistics."""

import math

import numpy as np
import pytest

from gigp.diagram import FrequencyTable, table_from_sample
from gigp.distribution import GigpParams, ccdf, sample_values
from gigp.fitgof import ks_normality
from gigp.shape import (ScalingPair, classify_regime, expected_shape_deviation,
                        limit_cov, limit_shape, scaling_a, scaling_b,
                        sup_distance, tail_transform, upsilon)
from gigp.specfun import upper_incomplete_gamma


def test_scaling_a_anchors():
    assert scaling_a(0.99) == pytest.approx(99.49916, abs=1e-4)
    assert scaling_a(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert scaling_a(0.96876) == pytest.approx(31.5076, abs=1e-3)
    for bad in [0.0, 1.0, -0.5, 2.0]:
        with pytest.raises(ValueError):
            scaling_a(bad)
    # any real number: numpy scalars too
    assert scaling_a(np.float32(0.9)) == scaling_a(float(np.float32(0.9)))
    assert scaling_a(np.float64(0.99)) == scaling_a(0.99)


def test_scaling_b_anchors():
    pair = scaling_b(GigpParams(0.5, 2.0, 0.99), 1000)
    assert pair.case_label == "a"
    assert pair.b == pytest.approx(564.1896, abs=1e-3)
    assert pair.a == pytest.approx(99.49916, abs=1e-4)
    pair = scaling_b(GigpParams(-0.5, 2.0, 0.99), 1000)
    assert pair.case_label == "c"
    assert pair.b == pytest.approx(56.41896, abs=1e-4)
    pair = scaling_b(GigpParams(-0.5, 0.0, 0.96876, True), 6891)
    assert pair.case_label == "d"
    assert pair.b == pytest.approx(343.5839, abs=1e-2)
    pair = scaling_b(GigpParams(0.0, 0.0, 0.99369, True), 138)
    assert pair.case_label == "b"
    assert pair.b == pytest.approx(27.24247, abs=1e-4)
    pair = scaling_b(GigpParams(-0.5, 2.0, 0.99), 35)
    assert pair.b == pytest.approx(1.974664, abs=1e-5)
    with pytest.raises(ValueError):
        scaling_b(GigpParams(-1.0, 0.0, 0.5, True), 100)
    with pytest.raises(ValueError):
        scaling_b(GigpParams(0.5, 2.0, 0.5), 0)


def test_classify_regime():
    assert classify_regime(ScalingPair(99.5, 564.19, "a")) == "regular"
    assert classify_regime(ScalingPair(99.5, 1.974664, "c")) == "chaotic"
    # the split is the fixed B = 50, inclusive
    assert classify_regime(ScalingPair(99.5, 50.0, "a")) == "regular"
    assert classify_regime(ScalingPair(99.5, math.nextafter(50.0, 0.0), "a")) == "chaotic"
    with pytest.raises(TypeError):
        classify_regime(ScalingPair(99.5, 564.19, "a"), threshold=1000.0)


def test_limit_shape_is_incomplete_gamma():
    assert limit_shape(1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert limit_shape(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    xs = np.array([0.0, 0.5, 3.0])
    assert limit_shape(0.5, xs).tolist() == [limit_shape(0.5, x) for x in xs.tolist()]
    assert limit_shape(0.5, xs.tolist()).tolist() == limit_shape(0.5, xs).tolist()


def test_phi_tail_ratio_at_30():
    # phi_nu(x) ~ x^(nu-1) e^(-x); the 5% window holds from nu = -0.5 up,
    # the nu = -1 end sits at 6.1%
    for nu in [-0.5, 0.0, 0.5, 1.0, 2.0]:
        ratio = upper_incomplete_gamma(nu, 30.0) / (30.0 ** (nu - 1.0) * math.exp(-30.0))
        assert abs(ratio - 1.0) <= 0.05
    for nu in [-1.0, -0.75]:
        ratio = upper_incomplete_gamma(nu, 30.0) / (30.0 ** (nu - 1.0) * math.exp(-30.0))
        assert abs(ratio - 1.0) <= 0.065


def test_expected_shape_converges_all_cases():
    xs = np.arange(0.2, 5.0001, 0.05)
    cases = [GigpParams(0.5, 0.5, 0.0), GigpParams(0.0, 0.0, 0.0, True),
             GigpParams(-0.5, 0.5, 0.0), GigpParams(-0.75, 0.0, 0.0, True)]
    for p0 in cases:
        devs = [expected_shape_deviation(
            GigpParams(p0.nu, p0.alpha, th, p0.zero_truncated), xs)
            for th in (0.9, 0.99, 0.999)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05


def test_sup_distance_synthetic_exact_curve():
    # table built so Y(j) = round(B phi_1(j/A)): deviation is discreteness
    # only; at nu = 1 (case a, alpha = 0) B = M, and the last row holds the
    # rounded rest of the curve so that M = B
    nu, a, b = 1.0, 20.0, 2000
    p = GigpParams(nu, 0.0, math.exp(-1.0 / a))
    heights = [round(b * math.exp(-j / a)) for j in range(0, 140)]
    counts = {j: heights[j] - heights[j + 1] for j in range(139) if heights[j] > heights[j + 1]}
    counts[139] = heights[139]
    table = FrequencyTable(counts)
    assert table.M == b and scaling_b(p, table.M).b == b
    report = sup_distance(table, p, delta=0.05)
    # rounding merges sub-unit rungs deep in the tail, so allow a few ulps of B
    worst_point = float(np.max(np.abs(report.y_scaled - report.phi)))
    assert worst_point <= 3.0 / b
    max_step = max(counts.values())
    assert report.sup_distance <= max_step / b + 3.0 / b
    # A delta must be finite too, as the model is read at j = A delta
    for delta in (0.0, math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="delta must be positive, with A delta finite"):
            sup_distance(table, p, delta=delta)


def test_sup_distance_fills_upsilon_and_msd():
    p = GigpParams(0.5, 2.0, 0.99)
    table = table_from_sample(sample_values(p, 3, 1000))
    rich = sup_distance(table, p, 0.2)
    assert np.all(rich.msd >= 0.0)
    assert rich.upsilon[0] == pytest.approx(upsilon(table, p, rich.x[0]), rel=1e-12)


def test_shape_report_columns():
    p = GigpParams(0.5, 2.0, 0.99)
    report = sup_distance(table_from_sample(sample_values(p, 3, 1000)), p, 0.2)
    cols = [report.x, report.y_scaled, report.phi, report.upsilon, report.msd]
    assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1
               for c in cols)
    n = len(report.x)
    assert n > 1 and all(len(c) == n for c in cols)
    assert len(report.pointwise) == n
    assert list(report.pointwise[1]) == ["x", "y_scaled", "phi", "upsilon", "msd"]
    assert list(report.pointwise[1].values()) == [c[1] for c in cols]


def test_sup_distance_phi_underflow():
    # x = 2000/A = 1386.29 is so deep that phi_nu(x) is 0.0: upsilon has
    # no value there, NaN in its column and None in the per-point view
    p = GigpParams(0.5, 2.0, 0.5)
    report = sup_distance(FrequencyTable({0: 99, 2000: 1}), p, 0.2)
    assert len(report.x) == 2
    assert report.x[1] == pytest.approx(1386.29, abs=0.01)
    assert report.phi[1] == 0.0
    assert math.isnan(report.upsilon[1]) and not math.isnan(report.upsilon[0])
    assert report.pointwise[1]["upsilon"] is None
    assert report.pointwise[0]["upsilon"] == report.upsilon[0]


def test_sup_distance_reads_model_mean_at_integer_jumps():
    # a jump record compares Y(j) with the model mean M P(X >= j)/B at the
    # same integer j; a*(j/a) can round above j, which once read P(X >= j+1)
    p = GigpParams(0.5, 2.0, 0.99)
    m = 1000
    table = table_from_sample(sample_values(p, 1, m))
    pair = scaling_b(p, m)
    report = sup_distance(table, p, 0.2)
    # the first record sits at x = delta, where Y and the mean are read at
    # ceil(A delta); here that is also the nearest integer
    assert round(0.2 * pair.a) == math.ceil(0.2 * pair.a)
    for r in report.pointwise:
        fbar = ccdf(p, round(r["x"] * pair.a))
        mean = m * fbar / pair.b
        ups = math.sqrt(pair.b / r["phi"]) * (r["y_scaled"] - mean)
        msd = m * fbar * (1.0 - fbar) / (pair.b * pair.b) + (mean - r["phi"]) ** 2
        assert r["upsilon"] == pytest.approx(ups, rel=1e-12, abs=1e-12)
        assert r["msd"] == pytest.approx(msd, rel=1e-12, abs=1e-12)


def test_upsilon_centered_table_gives_zero():
    # truncated model has F-bar(x) = 1 for x <= 1, so any table with all
    # values >= 1 and exactly M sources is centered there
    p = GigpParams(0.5, 2.0, 0.9, zero_truncated=True)
    pair = scaling_b(p, 60)
    table = FrequencyTable({3: 60})
    x = 0.5 / pair.a
    assert upsilon(table, p, x) == pytest.approx(0.0, abs=1e-12)


def test_upsilon_errors():
    p = GigpParams(0.5, 2.0, 0.9)
    table = FrequencyTable({1: 100})
    with pytest.raises(ValueError):
        upsilon(table, p, 0.0)
    with pytest.raises(ValueError):
        upsilon(table, p, 800.0)  # phi underflows


def test_limit_cov_values():
    assert limit_cov(0.5, 1.3, 1.3) == 1.0
    assert limit_cov(1.0, 1.0, 2.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert 0.0 < limit_cov(-0.5, 0.5, 3.0) < 1.0
    with pytest.raises(ValueError):
        limit_cov(1.0, 2.0, 1.0)


def test_tail_transform():
    u, v = tail_transform([1.0, math.e], [1.0, math.e])
    assert u.tolist() == [0.0, 1.0] and v[0] == 1.0
    assert v[1] == pytest.approx(1.0 + math.e, rel=1e-12)
    nu, b = -0.5, 40.0
    xs = np.linspace(0.3, 4.0, 20)
    ys = [b * x ** (nu - 1.0) * math.exp(-x) for x in xs]
    u, v = tail_transform(xs, ys)
    np.testing.assert_allclose(v, math.log(b) + (nu - 1.0) * u, rtol=0.0, atol=1e-12)
    # libm's logs, as the point-by-point form took them
    assert u.tolist() == [math.log(x) for x in xs.tolist()]
    assert v.tolist() == [math.log(y) + x for x, y in zip(xs.tolist(), ys)]
    for bad in (([0.0], [1.0]), ([1.0], [-1.0]), ([1.0, 2.0], [1.0])):
        with pytest.raises(ValueError):
            tail_transform(*bad)


MC_PARAMS = GigpParams(0.5, 2.0, 0.99)
MC_M = 5000
MC_REPS = 500


@pytest.fixture(scope="module")
def upsilon_mc():
    """500 replicate draws of (Upsilon(0.5), Upsilon(1), Upsilon(2))."""
    rng = np.random.default_rng(20260814)
    out = np.empty((MC_REPS, 3))
    for r in range(MC_REPS):
        table = table_from_sample(sample_values(MC_PARAMS, rng, MC_M))
        out[r] = [upsilon(table, MC_PARAMS, x) for x in (0.5, 1.0, 2.0)]
    return out


def test_upsilon_mc_moments(upsilon_mc):
    u1 = upsilon_mc[:, 1]
    assert abs(u1.mean()) <= 0.15
    assert 0.8 <= u1.var(ddof=1) <= 1.2


def test_upsilon_mc_normality(upsilon_mc):
    _, p = ks_normality(upsilon_mc[:, 1])
    assert p > 0.01


def test_upsilon_mc_covariance(upsilon_mc):
    u1, u2 = upsilon_mc[:, 1], upsilon_mc[:, 2]
    want = limit_cov(MC_PARAMS.nu, 1.0, 2.0)
    got = float(np.corrcoef(u1, u2)[0, 1])
    assert abs(got - want) <= 0.1


def test_increment_correlation_matches_multinomial(upsilon_mc):
    # increments of sqrt(phi) Upsilon over disjoint x-intervals are scaled
    # multinomial cell counts, so their exact correlation is
    # -sqrt(p1 p2 / ((1-p1)(1-p2))); independence only emerges once the
    # occupancy fractions vanish, which theta = 0.99 is nowhere near
    pair = scaling_b(MC_PARAMS, MC_M)
    fb = [ccdf(MC_PARAMS, pair.a * x) for x in (0.5, 1.0, 2.0)]
    p1, p2 = fb[0] - fb[1], fb[1] - fb[2]
    want = -math.sqrt(p1 * p2 / ((1.0 - p1) * (1.0 - p2)))
    phis = [upper_incomplete_gamma(MC_PARAMS.nu, x) for x in (0.5, 1.0, 2.0)]
    v = upsilon_mc * np.sqrt(phis)
    d1 = v[:, 0] - v[:, 1]
    d2 = v[:, 1] - v[:, 2]
    corr = float(np.corrcoef(d1, d2)[0, 1])
    assert corr == pytest.approx(want, abs=4.0 / math.sqrt(MC_REPS))
