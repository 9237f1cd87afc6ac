"""Frequency table / Young boundary tests, mostly exact small cases."""

import math

import numpy as np
import pytest

from gigp.diagram import (FrequencyTable, martingale_w, scaled_y,
                          table_from_sample, young_y)
from gigp.distribution import GigpParams, ccdf
from gigp.shape import boundary_moments


def test_table_from_sample_example():
    t = table_from_sample([4, 2, 2, 2, 1, 1])
    assert t.counts == {1: 2, 2: 3, 4: 1}
    assert t.M == 6
    assert t.N == 12


def test_young_y_steps():
    t = table_from_sample([4, 2, 2, 2, 1, 1])
    assert young_y(t, 3) == 1
    assert young_y(t, 2) == 4
    assert young_y(t, 5) == 0
    assert young_y(t, 0) == 6
    assert young_y(t, -1) == 6
    assert young_y(t, 1.5) == 4
    assert young_y(t, 4) == 1
    assert young_y(t, 4.0001) == 0


def test_zero_values_count_toward_m_not_n():
    t = table_from_sample([0, 0, 3])
    assert t.M == 3
    assert t.N == 3
    assert young_y(t, 0) == 3
    assert young_y(t, 0.5) == 1


def test_boundary_vectorized():
    t = table_from_sample([4, 2, 2, 2, 1, 1])
    xs = [0.0, 1.0, 2.5, 4.0, 9.0]
    got = young_y(t, np.array(xs))
    assert got.dtype == np.int64
    assert got.tolist() == [young_y(t, x) for x in xs] == [6, 6, 1, 1, 0]
    assert type(young_y(t, 2.5)) is int


def test_scaled_y():
    t = table_from_sample([4, 2, 2, 2, 1, 1])
    assert scaled_y(t, 2.0, 6.0, 1.0) == pytest.approx(4.0 / 6.0)
    with pytest.raises(ValueError):
        scaled_y(t, 0.0, 6.0, 1.0)


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        FrequencyTable({-1: 2})
    with pytest.raises(ValueError):
        FrequencyTable({1: -2})
    with pytest.raises(ValueError):
        table_from_sample([1, -2])
    for bad in ([1.5], [1.0, math.inf], [1.0, math.nan], [1.0, 2.0 ** 64], [2 ** 64]):
        with pytest.raises(ValueError):
            table_from_sample(bad)
    with pytest.raises(ValueError):
        table_from_sample([])
    t = FrequencyTable({1: 2, 3: 0})
    assert t.counts == {1: 2}
    for bad in ({2.5: 1}, {"2": 1}, {(1, 2): 1}, {2: 1.5}, {2: math.nan},
                {10 ** 19: 1}, {10 ** 30: 1}, {1: 2 ** 63}):
        with pytest.raises(ValueError):
            FrequencyTable(bad)
    with pytest.raises(ValueError):
        FrequencyTable({1: 2 ** 62, 2: 2 ** 62})  # M past 64-bit counts


def test_frequency_table_arrays():
    t = FrequencyTable({7: 1, 2.0: 3, 0: 4, 5: 0})
    assert t.support.tolist() == [0, 2, 7] and t.mult.tolist() == [4, 3, 1]
    assert t.support.dtype == np.int64 and t.mult.dtype == np.int64
    assert t.suffix.tolist() == [8, 4, 1, 0]
    assert (t.M, t.N) == (8, 13)
    assert t.counts == {0: 4, 2: 3, 7: 1}
    with pytest.raises(ValueError):
        t.support[0] = 1  # read-only
    # the totals are exact integers past 64 bits
    big = FrequencyTable({2 ** 62: 4, 1: 1})
    assert big.N == 2 ** 64 + 1 and type(big.N) is int and type(big.M) is int
    # the sampler's path and the dict path give equal tables
    values = np.random.default_rng(3).poisson(4.0, size=500)
    from_dict = FrequencyTable({int(j): int((values == j).sum()) for j in set(values.tolist())})
    assert table_from_sample(values) == from_dict
    assert table_from_sample(values.tolist()) == from_dict
    # sorted draws are counted in place, unsorted ones in a sorted copy
    ordered, drawn = np.sort(values), values.copy()
    assert table_from_sample(ordered) == from_dict and np.array_equal(values, drawn)
    assert table_from_sample(np.array([3])).counts == {3: 1}
    assert FrequencyTable({}).M == 0 and FrequencyTable({}).support.size == 0


def test_boundary_moments_binomial():
    p = GigpParams(0.5, 2.0, 0.9)
    m = 50
    mean, var, cov = boundary_moments(p, m, 2.0)
    q = ccdf(p, 2.0)
    assert mean == pytest.approx(m * q, rel=1e-12)
    assert var == pytest.approx(m * q * (1.0 - q), rel=1e-12)
    assert cov == pytest.approx(var, rel=1e-12)
    _, _, cov2 = boundary_moments(p, m, 2.0, 5.0)
    q2 = ccdf(p, 5.0)
    assert cov2 == pytest.approx(m * q2 * (1.0 - q), rel=1e-12)
    with pytest.raises(ValueError):
        boundary_moments(p, m, 5.0, 2.0)
    with pytest.raises(ValueError):
        boundary_moments(p, 0, 1.0)


def test_martingale_w_exact_small_case():
    values = [1, 2, 3]
    cdf = lambda x: 0.25 if x == 2.0 else None
    # t = 1/2: threshold 1/t = 2, one value below it
    assert martingale_w(values, cdf, 0.5) == pytest.approx(1 / 0.25 - 3)
    assert martingale_w(values, cdf, 0.0) == 0.0
    with pytest.raises(ValueError):
        martingale_w(values, lambda x: 0.0, 0.5)
    with pytest.raises(ValueError):
        martingale_w(values, cdf, -0.5)


def test_martingale_w_zero_mean():
    # model F(x) = P(X < x) makes W(t) mean-zero at every t
    from gigp.distribution import cdf as model_cdf, sample_values
    p = GigpParams(0.5, 2.0, 0.9)
    rng = np.random.default_rng(5)
    f = lambda x: model_cdf(p, x)
    for t in [0.2, 0.7]:
        ws = [martingale_w(sample_values(p, rng, 200), f, t) for _ in range(300)]
        ws = np.asarray(ws)
        se = ws.std(ddof=1) / np.sqrt(len(ws))
        assert abs(ws.mean()) < 5.0 * se + 1e-9
