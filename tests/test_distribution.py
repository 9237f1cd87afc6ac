"""Distribution-level oracle tests.

The alpha > 0 pmf is checked against a direct mpmath evaluation of the
Bessel formula and against the Poisson law mixed over scipy's GIG (the
gamma at alpha = 0) by numerical integration (two independent routes),
the ccdf against an mpmath GIG mixture of Poisson tails, and the
closed-form families against their textbook expressions.
"""

import hashlib
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from gigp import diagram, distribution
from gigp.distribution import (GigpParams, _bessel_ratios, _family_head, _log_norm, _tables,
                               ccdf, log_pmf, mean_asymptotic, mean_exact, pmf,
                               resolve_truncation, sample, sample_values, theta_from_mean,
                               validate)
from gigp.shape import expected_shape_deviation, scaling_a, scaling_b, sup_distance
from gigp.specfun import bessel_k_ratio

mpmath.mp.dps = 40


def _pmf_oracle(nu, alpha, theta, j):
    # direct mpmath evaluation of the Bessel-series pmf
    th = mpmath.mpf(theta)
    al = mpmath.mpf(alpha)
    base = ((1 - th) ** (mpmath.mpf(nu) / 2) / mpmath.besselk(nu, al * mpmath.sqrt(1 - th))
            * (al * th / 2) ** j / mpmath.factorial(j) * mpmath.besselk(nu + j, al))
    return float(base)


def _tail_pmf_asymptotic(p, j):
    # the leading tail term c j^(nu-1) theta^j with the family constant c,
    # under truncation over the closed-form 1 - f0; a closed form, so it
    # builds no table and holds past the support cap
    validate(p)
    logv = (_family_head(p)[2] - _log_norm(p) + (p.nu - 1.0) * math.log(j)
            + j * math.log(p.theta))
    return math.exp(logv) if logv > -745.0 else 0.0


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


def test_ccdf_does_not_depend_on_earlier_calls():
    # at gof's estimated theta on a 1e5-source table the fresh table stops
    # at j = 3023; ccdf past it read 0 until a pmf call had grown the table
    theta = 0.98908835
    p = GigpParams(0.5, 0.0, theta)
    want = stats.nbinom.sf(5999, 0.5, 1.0 - theta)
    distribution._tables.cache_clear()
    before = ccdf(p, 6000)
    pmf(p, np.arange(8331))
    after = ccdf(p, 6000)
    for got in (before, after):
        assert got > 0.0 and got == pytest.approx(want, rel=1e-10, abs=0.0)
    assert ccdf(p, 8331) == pytest.approx(stats.nbinom.sf(8330, 0.5, 1.0 - theta),
                                          rel=1e-10, abs=0.0)
    # where P(X >= x) underflows it reads 0
    assert ccdf(p, 1e9) == 0.0
    assert before == after

    # bit for bit: on a fresh table (jmax = 3311 here) and after a pmf
    # call past the cut, in either order
    p = GigpParams(0.5, 2.0, 0.99)
    reads = [lambda: ccdf(p, 500.0), lambda: log_pmf(p, 3500), lambda: ccdf(p, 3300.0),
             lambda: ccdf(p, 4200.0), lambda: log_pmf(p, np.arange(3000, 3900))]
    want = []
    for read in reads:
        distribution._tables.cache_clear()
        want.append(read())
    distribution._tables.cache_clear()
    pmf(p, 3999)
    for read, value in zip(reads + reads[::-1], want + want[::-1]):
        assert np.array_equal(read(), value)


def test_ccdf_just_below_the_support_cap(monkeypatch):
    # x + 16 A passes the 1e8-entry cap here; the sum runs to the cap
    # instead of raising, and past the cap ccdf reads 0. Each call extends
    # the pmf past the cut only as far as the last call has not
    p = GigpParams(0.5, 0.0, 0.999999)
    computed = []
    log_steps = distribution._log_steps

    def counted(nu, alpha, lo, hi, *rest):
        computed.append(hi - lo)
        return log_steps(nu, alpha, lo, hi, *rest)

    assert _tables(p).jmax == 32_229_948
    monkeypatch.setattr(distribution, "_log_steps", counted)
    for x in (9e7, 9.5e7, 9.9e7):
        asymptote = _tail_pmf_asymptotic(p, int(x)) / (1.0 - p.theta)
        computed.clear()
        assert ccdf(p, x) == pytest.approx(asymptote, rel=0.01, abs=0.0)
        if x > 9e7:
            assert sum(computed) <= distribution._MAX_SUPPORT - x + distribution._BLOCK
    assert ccdf(p, 1.5e8) == 0.0


@pytest.mark.parametrize("nu, theta", [
    (0.5, 0.99999), (0.5, 0.999999), (2.0, 0.99999),
    # 1.5e-12 off at j ~ 1.3e7: the running sum of log steps is one sequential
    # sum across 9,323 blocks, and its rounding grows with the orders summed
    pytest.param(2.0, 0.999999, marks=pytest.mark.xfail(strict=True, reason="1.5e-12 off"))])
def test_ccdf_near_theta_one_against_the_negative_binomial_tail(nu, theta):
    # at alpha = 0 the table is the negative binomial, whose tail P(X >= j)
    # is the regularized incomplete beta I_theta(j, nu), checked at 1,000
    # points wherever ccdf >= 1e-5: up to 1.4e7 at 0.999999, within the
    # table's first half
    p = GigpParams(nu, 0.0, theta)
    js = np.linspace(1.0, _tables(p).jmax / 2, 1000).round()
    got = ccdf(p, js)
    keep = got >= 1e-5
    assert not keep[-1]
    want = special.betainc(js[keep], nu, theta)
    assert np.max(np.abs(got[keep] / want - 1.0)) < 1e-12


def test_blocks_below_j_star_carry_the_bessel_ratio(monkeypatch):
    # at (0.5, 3e4, 0.9) every block lies below j* ~ 120,012, where the Bessel
    # ratios come from the scalar loop: each block runs it on from its mark's
    # ratio, so only block 0 starts it from K_(nu+1)/K_nu: once a table, across
    # the build, the blocks that a ccdf and a sample read, and scalar log_pmf
    # reads past block 0
    p = GigpParams(0.5, 3e4, 0.9)
    calls = []

    def counted(nu, alpha):
        calls.append((nu, alpha))
        return bessel_k_ratio(nu, alpha)

    monkeypatch.setattr(distribution, "bessel_k_ratio", counted)
    distribution._tables.cache_clear()
    try:
        assert _tables(p).jmax == 90_321
        ccdf(p, np.arange(70_000))
        sample(p, 1, 100_000)
        for j in (20_000, 50_000, 90_000):
            log_pmf(p, j)
        assert calls == [(0.5, 3e4)]
    finally:
        distribution._tables.cache_clear()


def test_ccdf_past_the_cut_is_linear_in_points():
    # each grid end takes one suffix-sum pass, not one per point
    p = GigpParams(0.5, 2.0, 0.9999)
    distribution._tables.cache_clear()
    try:
        jmax = _tables(p).jmax
        start = time.perf_counter()
        got = ccdf(p, np.arange(3 * jmax))
        assert time.perf_counter() - start < 0.5
        assert got[0] == 1.0 and np.all(np.diff(got) <= 0.0) and got[-1] > 0.0
    finally:
        distribution._tables.cache_clear()


def test_bessel_ratios_match_the_sequential_recurrence():
    # each window of forward steps from a crude seed, fewer at higher orders,
    # must land on the value the one-at-a-time recurrence from K_(nu+1)/K_nu gives
    for nu, alpha in [(0.5, 2.0), (-1.0, 1.5), (-0.25, 8.0), (1.0, 30.0), (0.5, 1e-6),
                      (-0.999, 0.01), (3.0, 100.0), (0.3, 300.0)]:
        ratio = bessel_k_ratio(nu, alpha)
        want = [ratio]
        for k in range(1, 301_000):
            ratio = 2.0 * (nu + k) / alpha + 1.0 / ratio
            want.append(ratio)
        got = _bessel_ratios(nu, alpha, np.arange(0, 5000, dtype=float), want[0])
        assert got.tolist() == want[:5000]
        for lo in (1024, 3000, 65_536, 300_000):
            later = _bessel_ratios(nu, alpha, np.arange(lo, lo + 1000, dtype=float), want[lo - 1])
            assert later.tolist() == want[lo:lo + 1000]
        # a block sizes its window from its own first order: at (0.5, 2) the
        # window has 2 steps from r_min = 2^18 on, so the block from 266,240
        # takes 2 where one sized from the power of 2 below it took 3
        got = _bessel_ratios(nu, alpha, np.arange(266_240, 270_336, dtype=float),
                             want[266_239])
        assert got.tolist() == want[266_240:270_336]
    # at alpha = 3e4, j* ~ 120,012: blocks below it, and the one across it,
    # run the scalar loop on from the ratio carried from the block below
    nu, alpha = 0.5, 3e4
    ratio = bessel_k_ratio(nu, alpha)
    want = [ratio]
    for k in range(1, 126_976):
        ratio = 2.0 * (nu + k) / alpha + 1.0 / ratio
        want.append(ratio)
    for lo in (4096, 69_632, 118_784, 122_880):
        got = _bessel_ratios(nu, alpha, np.arange(lo, lo + 4096, dtype=float), want[lo - 1])
        assert got.tolist() == want[lo:lo + 4096]


@pytest.mark.parametrize("alpha", [1e-306, 1e-308])
def test_bessel_ratios_past_the_float_range_raise(alpha):
    # block 0's last ratio, 2 (nu + 4095) / alpha, passes 1.8e308: the read
    # raises before numpy overflows (its warning is an error under the test config)
    with pytest.raises(OverflowError, match="Bessel ratios are out of floating-point range"):
        ccdf(GigpParams(-0.5, alpha, 0.9), 1.0)
    # at 1e-304 it is 8.2e307, and the table reads
    assert 0.0 < ccdf(GigpParams(-0.5, 1e-304, 0.9), 1.0) < 1e-300


def test_table_cut_past_the_mass_for_nu_above_one():
    # the tail asymptote c j^(nu-1) theta^j rises up to j = (nu-1) A, so a cut
    # searched from j = 16 could stop the table before the mass
    for nu in (2.0, 13.0, 20.0, 50.0, 200.0):
        for theta in (0.5, 0.9, 0.99):
            for alpha in (0.0, 2.0):
                p = GigpParams(nu, alpha, theta)
                t = _tables(p)
                assert abs(np.exp(t.log_f(np.arange(t.jmax + 1))).sum() - 1.0) < 1e-9
                values = sample_values(p, 1, 2000)
                se = values.std() / math.sqrt(values.size)
                assert abs(values.mean() - mean_exact(p)) < 5.0 * se
                if alpha == 0.0:
                    x = mean_exact(p)
                    want = stats.nbinom.sf(math.ceil(x) - 1, nu, 1.0 - theta)
                    assert ccdf(p, x) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_table_cut_and_support_cap():
    # the cut is the first j >= max(16, (nu - 1) A) with f_j < e^-40 and a
    # tail asymptote below 1e-15, both relative to the running total of the
    # table's masses, so a truncated alpha -> 0+ table cuts near its alpha = 0
    # limit (183,613 at 0.9999); past _MAX_SUPPORT = 1e8 the build gives up
    for p, jmax in ((GigpParams(0.5, 2.0, 0.99), 3311),
                    (GigpParams(0.5, 2.0, 0.9999), 322481),
                    (GigpParams(0.5, 2.0, 0.99999), 3223604),
                    (GigpParams(-0.5, 0.0, 0.9999, True), 239152),
                    (GigpParams(-0.9, 1e-8, 0.9999, True), 183816),
                    (GigpParams(-0.9, 1e-8, 0.5, True), 46)):
        assert _tables(p).jmax == jmax
    for p in (GigpParams(0.5, 0.0, 0.9999998), GigpParams(0.5, 2.0, 0.9999998)):
        with pytest.raises(RuntimeError, match="pmf support cutoff not reached"):
            ccdf(p, 1.0)


def test_build_past_the_cap_gives_up_before_it_allocates():
    # at theta = 0.9999998 the tail asymptote is still above 1e-15 at the
    # 1e8-entry cap, so no cut can fire there: the build raises before it
    # fills any of the 1e8 entries, as log_pmf does when asked for a j past the cap
    cases = [(distribution._build_tables, GigpParams(0.5, 2.0, 0.9999998)),
             (distribution._build_tables, GigpParams(0.5, 0.0, 0.9999998)),
             (distribution._build_tables, GigpParams(-0.5, 2.0, 0.9999998)),
             (distribution._build_tables, GigpParams(-0.5, 0.0, 0.9999998, True)),
             (lambda p: log_pmf(p, distribution._MAX_SUPPORT + 1), GigpParams(0.5, 2.0, 0.5))]
    for call, p in cases:
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="pmf support cutoff not reached"):
                call(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_a_build_that_reaches_the_cap_raises_once(monkeypatch):
    # at (-0.5, 1e-6, 0.99999, truncated) the give-up test reads the
    # unnormalized tail constant and lets the build start, but the table's
    # raw total is ~1e-6: with the cap at 2e6 no cut comes, so the build
    # makes all 489 blocks up to the cap, and only then raises. No error is
    # kept, so the next read builds again; under the 1e8 cap the cut comes
    # at 2,282,789
    p = GigpParams(-0.5, 1e-6, 0.99999, True)
    made = []
    log_steps = distribution._log_steps

    def counted(nu, alpha, lo, hi, *rest):
        made.append(lo)
        return log_steps(nu, alpha, lo, hi, *rest)

    distribution._tables.cache_clear()
    monkeypatch.setattr(distribution, "_log_steps", counted)
    monkeypatch.setattr(distribution, "_MAX_SUPPORT", 2_000_000)
    for reads in (1, 2):
        with pytest.raises(RuntimeError, match="pmf support cutoff not reached"):
            _tables(p)
        assert len(made) == 489 * reads
    assert distribution._tables.cache_info().currsize == 0
    monkeypatch.undo()
    assert _tables(p).jmax == 2_282_789


def test_tables_keep_the_64_most_recently_read(monkeypatch):
    # a 65th table evicts only the least recently read one: after 66 reads
    # the last 64 are all still kept, and reading them again builds none
    built = []
    build = distribution._build_tables

    def counted(params):
        built.append(params)
        return build(params)

    monkeypatch.setattr(distribution, "_build_tables", counted)
    distribution._tables.cache_clear()
    ps = [GigpParams(0.5, 0.0, 0.5 + k / 1000) for k in range(66)]
    for p in ps:
        _tables(p)
    assert built == ps
    for p in ps[2:]:
        _tables(p)
    assert built == ps
    assert distribution._tables.cache_info().currsize == 64
    _tables(ps[0])
    assert built == ps + ps[:1]


# ccdf at (0.5, 2, 0.9999) on 200 points in (jmax - 16 A, jmax + 32 A)
NEAR_CUT_DIGEST = "e1fef05e4fd1482057a7fbf1a3a9c6ee93bf9556168dfd91ed06f2a79f04cd9e"


def test_table_holds_two_columns_and_log_f_only_once_read():
    # at (0.5, 2, 0.9999), 322,482 entries, the build holds one block of f
    # at a time and keeps its mass, then the two columns for block 0
    # (j <= 4,096) only, with two carries per 4,096-entry block: its
    # tracemalloc peak stays under 1 MiB, a fifth of the two dense columns
    p = GigpParams(0.5, 2.0, 0.9999)
    grid = np.linspace(0.2, 30.0, 3000)
    distribution._build_tables(GigpParams(0.5, 2.0, 0.9))
    expected_shape_deviation(GigpParams(0.5, 2.0, 0.9), grid)
    distribution._tables.cache_clear()
    tracemalloc.start()
    try:
        t = _tables(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20

    def held():
        return {name: (getattr(t, name).dtype, getattr(t, name).shape) for name in t.__slots__
                if isinstance(getattr(t, name), np.ndarray)}

    def containers():
        return [name for name in t.__slots__ if isinstance(getattr(t, name), (dict, list, tuple))]

    size = distribution._BLOCK
    blocks = -(-t.jmax // size)
    block_0 = {"head": (np.dtype(float), (1,)), "sf": (np.dtype(float), (size + 1,)),
               "cum": (np.dtype(float), (size + 1,)), "below": (np.dtype(float), (blocks,)),
               "past": (np.dtype(float), (blocks,))}
    assert held() == block_0 and containers() == ["marks"] and not hasattr(t, "_blocks")
    cum, sf = t.cum, t.sf

    # a ccdf grid out to 30 A meets 40 of the 79 blocks and keeps none of
    # their columns, so it leaves under 0.1 MiB on the table (keeping them
    # would leave 2.46 MiB)
    tracemalloc.start()
    try:
        expected_shape_deviation(p, grid)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2 ** 20

    # log f is made again for each read and kept by none, and so are the
    # columns of every block past block 0: a sample, sup_distance, ccdf
    # reads far from and near the cut, pmf and log_pmf leave the build's
    # arrays only. The near-cut values are those the table gave when it
    # kept a prefix
    table = sample(p, 1, 100_000)
    sup_distance(table, p, 0.2)
    ccdf(p, [0.0, 100.0, 100_000.0, t.jmax - 20_000.0])
    span = -16.0 / math.log(p.theta)
    near = ccdf(p, np.linspace(t.jmax - span, t.jmax + 2.0 * span, 202)[1:-1])
    assert hashlib.sha256(near.tobytes()).hexdigest() == NEAR_CUT_DIGEST
    pmf(p, 5)
    log_pmf(p, t.jmax)
    assert _tables(p) is t and t.cum is cum and t.sf is sf
    assert held() == block_0 and containers() == ["marks"]


def test_a_scalar_read_makes_at_most_one_block(monkeypatch):
    # log_pmf at one j makes the 4,096-order block that holds it, from that
    # block's mark. The value is the one a span from 0 gives
    p = GigpParams(0.5, 2.0, 0.9999)
    spans = {300_000: 4_096, 70_000: 4_096, 131_073: 4_096, 50_000: 4_096, 8_193: 4_096,
             3_000: 4_096, 5: 4_096}
    distribution._tables.cache_clear()
    want = log_pmf(p, np.arange(300_001))
    computed = []
    log_steps = distribution._log_steps

    def counted(nu, alpha, lo, hi, *rest):
        computed.append(hi - lo)
        return log_steps(nu, alpha, lo, hi, *rest)

    monkeypatch.setattr(distribution, "_log_steps", counted)
    try:
        for j, orders in spans.items():
            computed.clear()
            assert log_pmf(p, j) == want[j]
            assert computed == [orders]
    finally:
        distribution._tables.cache_clear()


def test_table_ends_cum_at_infinity():
    # cum[jmax] = +inf sends every u >= cum[jmax - 1] to jmax, where a clip
    # to jmax used to
    p = GigpParams(-0.5, 2.0, 0.95)
    t = _tables(p)
    assert t.cum[-1] == math.inf
    assert pmf(p, 7) == math.exp(log_pmf(p, 7))

    class EdgeRng:
        def random(self, count):
            return np.array([0.0, t.cum[-2], np.nextafter(1.0, 0.0)])

    assert distribution._sample_values_rng(p, EdgeRng(), 3).tolist() == [0, t.jmax, t.jmax]


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


def _in_domain(p):
    try:
        validate(p)
    except ValueError:
        return False
    return True


def _norm_case(p):
    return pytest.param(
        p, id=f"{p.nu}-{p.alpha}-{p.theta}-{'trunc' if p.zero_truncated else 'plain'}")


NORM_CASES = [_norm_case(p) for p in (GigpParams(nu, alpha, theta, truncated)
                                      for nu in (-1.0, -0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 3.0)
                                      for alpha in (0.0, 1e-6, 0.01, 0.5, 2.0, 10.0)
                                      for theta in (0.01, 0.5, 0.9, 0.99, 0.9999)
                                      for truncated in (False, True))
              if _in_domain(p)]
# zero-truncated tables at large alpha, whose first masses are tiny (log f_1
# is -84 to -204 at alpha = 300) or underflow (all of block 0 at 3e4)
NORM_CASES += [_norm_case(GigpParams(nu, alpha, theta, True)) for nu in (-0.5, 0.5, 3.0)
               for alpha in (300.0, 3e4) for theta in (0.5, 0.9)]
NORM_CASES.append(pytest.param(
    GigpParams(0.5, 3e4, 0.9), id="0.5-30000.0-0.9-plain", marks=pytest.mark.xfail(
        strict=True, reason="untruncated tables drift off 1 at large alpha, 1 + 2.2e-10 "
                            "here (FOUND line in CHANGES.md)")))


@pytest.mark.parametrize("p", NORM_CASES)
def test_pmf_sums_to_one_over_the_domain(p):
    # the table's pmf up to its cut plus the ccdf past it; P(X >= j) is 1
    # exactly up to j0, the first j with mass
    jmax = _tables(p).jmax
    js = np.arange(1 if p.zero_truncated else 0, jmax + 1)
    f = pmf(p, js)
    assert ccdf(p, 0.0) == 1.0 and ccdf(p, float(js[np.flatnonzero(f)[0]])) == 1.0
    total = math.fsum(f.tolist()) + ccdf(p, jmax + 1)
    assert abs(total - 1.0) <= 1e-12


# zero truncation as alpha -> 0+ with nu < 0, where f0 -> 1 and the closed
# form 1 - f0 cancels (the table summed to 0.72 at the first triple); at
# nu = -1 the closed form is not even positive
TRUNCATED_NEAR_ALPHA_0 = [(-0.9, 1e-8, 0.5), (-0.9, 1e-8, 0.99), (-0.999, 1e-6, 0.9),
                          (-0.9, 1e-4, 0.9), (-0.5, 1e-6, 0.5), (-1.0, 1e-8, 0.9)]


@pytest.mark.parametrize("nu, alpha, theta", TRUNCATED_NEAR_ALPHA_0)
def test_truncated_pmf_near_alpha_zero_against_mpmath(nu, alpha, theta):
    # the table divides by its own total; the oracle by 1 - f0 at 30 digits
    p = GigpParams(nu, alpha, theta, True)
    jmax = _tables(p).jmax
    masses = _bessel_sum_masses(nu, alpha, theta, jmax)
    js = np.unique(np.geomspace(1, jmax, 30).round().astype(int))
    want = [float(masses[j] / (1 - masses[0])) for j in js]
    assert pmf(p, js) == pytest.approx(want, rel=1e-12, abs=0.0)


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
    assert 1.0 - ccdf(p, 2.0) == pytest.approx(pmf(p, 0) + pmf(p, 1), rel=1e-9)
    assert ccdf(p, 1e9) == 0.0


def test_ccdf_array_matches_scalar():
    p = GigpParams(-0.5, 2.0, 0.99)
    xs = np.array([-3.0, 0.0, 0.5, 1.0, 1.5, 2.0001, 19.89983, 400.0, 1e9])
    got = ccdf(p, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got.tolist() == [ccdf(p, x) for x in xs.tolist()]
    # near the cut and past it, whole grid cells apart and in one
    jmax = _tables(p).jmax
    xs = jmax + np.array([-900.0, -3.5, 0.0, 1.0, 40.0, 2500.0, 7000.0])
    got = ccdf(p, xs)
    assert np.all(got > 0.0) and np.all(np.diff(got) < 0.0)
    for x, value in zip(xs.tolist(), got.tolist()):
        distribution._tables.cache_clear()
        assert ccdf(p, x) == value
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


def test_ccdf_near_theta_one_against_the_mixture_oracle():
    # at theta = 0.99999 the table runs to 3.2e6; its sf at j <= 3,000 is a
    # suffix sum over every block's mass (the oracle's gammainc series stops
    # converging from j ~ 1e4)
    for p in (GigpParams(0.5, 2.0, 0.99999), GigpParams(-0.5, 2.0, 0.99999)):
        with mpmath.workdps(20):
            want = float(_ccdf_mixture_oracle(p.nu, p.alpha, p.theta, 3000))
        assert ccdf(p, 3000) == pytest.approx(want, rel=1e-12, abs=0.0)


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


def test_tiny_alpha_reaches_the_alpha_zero_family():
    # K_nu at these alpha passes the double range: mean_exact was nan and inf,
    # and at an integer nu the table build stopped with a math domain error
    assert mean_exact(GigpParams(2.0, 1e-154, 0.5)) == pytest.approx(2.0, rel=1e-12)
    assert mean_exact(GigpParams(0.5, 1e-300, 0.5)) == pytest.approx(0.5, rel=1e-12)
    j = np.arange(40)
    for nu in (3.0, 2.5):
        assert pmf(GigpParams(nu, 1e-154, 0.5), j) == pytest.approx(
            pmf(GigpParams(nu, 0.0, 0.5), j), rel=1e-12)


def test_mean_exact_allows_deep_nu_for_diagnostics():
    # saturation under heavy mixing: exact mean stays near the ceiling
    got = mean_exact(GigpParams(-2.0, 2.0, 0.9999))
    assert got == pytest.approx(1.0, abs=0.15)


_CLOSED_FORM_NORM = ("mean_exact divides by the closed-form 1 - f0, which loses its digits "
                     "as alpha -> 0+ with nu < 0 (FOUND line in CHANGES.md)")


@pytest.mark.parametrize("p", [
    GigpParams(-0.5, 2.0, 0.99, True), GigpParams(0.5, 2.0, 0.9, True),
    GigpParams(0.0, 0.0, 0.5, True),
    # 0.750 against the table's 1.040, and a math domain error against 1.010
    pytest.param(GigpParams(-0.9, 1e-8, 0.5, True), id="-0.9-1e-08-0.5-truncated",
                 marks=pytest.mark.xfail(strict=True, reason=_CLOSED_FORM_NORM)),
    pytest.param(GigpParams(-1.0, 1e-8, 0.5, True), id="-1.0-1e-08-0.5-truncated",
                 marks=pytest.mark.xfail(strict=True, reason=_CLOSED_FORM_NORM))])
def test_truncated_mean_exact_is_the_table_mean(p):
    # no zero-truncated mean is below 1, and the table's sum of j f_j up to
    # its cut is the mean within the tail's 1e-15
    js = np.arange(1, _tables(p).jmax + 1)
    want = math.fsum((js * pmf(p, js)).tolist())
    got = mean_exact(p)
    assert got >= 1.0 and got == pytest.approx(want, rel=1e-9, abs=0.0)


# tables of 2.5e4 to 3.8e6 entries, each past block 0; the two truncated
# triples near alpha = 0 whose mean_exact is off (strict xfails above) are
# left out
MEAN_GRID = [GigpParams(nu, alpha, theta, truncated) for theta in (0.999, 0.99999)
             for nu, alpha, truncated in ((0.5, 2.0, False), (-0.5, 2.0, False),
                                          (2.0, 0.0, False), (-0.5, 0.0, True))]


@pytest.mark.parametrize("p", MEAN_GRID)
def test_sample_mean_is_mean_exact(p):
    # 1e5 draws, sorted (sample) and in draw order (sample_values): each mean
    # is within 5 standard errors of mean_exact, by the draws' own variance
    m = 100_000
    table = sample(p, 1, m)
    js = table.support.astype(float)
    mean = float(table.mult @ js) / m
    values = sample_values(p, 2, m)
    for got, var in ((mean, float(table.mult @ (js - mean) ** 2) / (m - 1)),
                     (values.mean(), values.var(ddof=1))):
        assert abs(got - mean_exact(p)) < 5.0 * math.sqrt(var / m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_first_step_that_underflows_gives_log_f_1_without_a_warning():
    # at (-0.9, 1e-200) the first step s_0 = alpha r_0 / 2 ~ (alpha/2)^0.8
    # underflows to 0, so log f_1 is -inf and every mass is at j = 0
    p = GigpParams(-0.9, 1e-200, 0.9)
    distribution._tables.cache_clear()
    assert pmf(p, 0) == 1.0 and pmf(p, 1) == 0.0


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
    # alpha^2 underflows at nu = -1: the seed is its limit 0, not 4 eta / 0
    with pytest.raises(ValueError, match="too large to invert"):
        theta_from_mean(-1.0, 1e-300, 5.0)


def _gig_density(p):
    """The untruncated model's mixing law of the Poisson rate: the GIG
    density prop. to lam^(nu-1) exp(-(1-theta) lam/theta - alpha^2 theta/(4 lam)),
    in scipy's parametrization, and its gamma limit at alpha = 0."""
    if p.alpha == 0.0:
        return stats.gamma(p.nu, scale=p.theta / (1.0 - p.theta)).pdf
    root = math.sqrt(1.0 - p.theta)
    return stats.geninvgauss(p.nu, p.alpha * root,
                             scale=p.alpha * p.theta / (2.0 * root)).pdf


def test_gig_density_normalizes_and_mixes_to_pmf():
    # the GIGP is the Poisson law mixed over the GIG; at alpha = 0, the
    # negative binomial mixed over the gamma
    for nu, alpha, theta in [(0.5, 2.0, 0.9), (-0.5, 1.0, 0.7), (2.0, 0.5, 0.6),
                             (2.0, 0.0, 0.5), (0.5, 0.0, 0.9)]:
        p = GigpParams(nu, alpha, theta)
        density = _gig_density(p)
        total, _ = integrate.quad(density, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
        for j in [0, 1, 3, 7]:
            mixed, _ = integrate.quad(
                lambda lam: math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))
                * density(lam), 0.0, np.inf)
            assert mixed == pytest.approx(pmf(p, j), rel=1e-8)


def test_tail_pmf_asymptotic_converges():
    cases = [GigpParams(0.5, 2.0, 0.9), GigpParams(-0.5, 2.0, 0.9),
             GigpParams(2.0, 0.0, 0.9), GigpParams(0.0, 0.0, 0.9, True),
             GigpParams(-0.5, 0.0, 0.9, True), GigpParams(0.5, 2.0, 0.9, True)]
    for p in cases:
        errs = [abs(pmf(p, j) / _tail_pmf_asymptotic(p, j) - 1.0) for j in (50, 100, 300)]
        # Fisher's leading term is already exact, hence the slack
        assert errs[2] <= errs[0] + 1e-12
        assert errs[2] < 0.02
    # a closed form: no table is built, so none is needed under the cap
    p = GigpParams(0.5, 0.0, 0.99999)
    distribution._tables.cache_clear()
    for j in (10, 10 ** 4, 10 ** 6):
        want = (1.0 - p.theta) ** 0.5 / math.gamma(0.5) * j ** -0.5 * p.theta ** j
        assert _tail_pmf_asymptotic(p, j) == pytest.approx(want, rel=1e-12)
    assert distribution._tables.cache_info().currsize == 0


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


# every public entry point, and the tail oracle, takes (nu, alpha, theta)
# through validate(); theta_from_mean reads the bad theta as its target mean
NON_FINITE_ENTRY_POINTS = {
    "pmf": lambda p: pmf(p, 2),
    "log_pmf": lambda p: log_pmf(p, 2),
    "ccdf": lambda p: ccdf(p, 3.0),
    "mean_exact": mean_exact,
    "mean_asymptotic": mean_asymptotic,
    "tail_pmf_asymptotic": lambda p: _tail_pmf_asymptotic(p, 5),
    "sample_values": lambda p: sample_values(p, 1, 10),
    "scaling_b": lambda p: scaling_b(p, 100),
    "theta_from_mean": lambda p: theta_from_mean(p.nu, p.alpha, 10.0 * p.theta),
}


@pytest.mark.parametrize("entry, field, value", [
    (entry, field, value) for entry in NON_FINITE_ENTRY_POINTS
    for field in ("nu", "alpha", "theta")
    for value in (math.nan, math.inf, -math.inf)])
def test_non_finite_parameters_are_rejected(entry, field, value):
    fields = {"nu": 0.5, "alpha": 1.0, "theta": 0.5, field: value}
    with pytest.raises(ValueError):
        NON_FINITE_ENTRY_POINTS[entry](GigpParams(**fields))


# one triple per alpha = 0 family, truncated and not where it exists, and
# at alpha > 0; no pinned CLI document covers a truncated nu > 0 or a
# truncated alpha > 0 table. Digest re-taken when zero-truncated tables came
# to divide by their own total, not the closed-form 1 - f0: the sf of the
# eight truncated triples moved, by 1.6e-14 relative at most, and the f of
# five of them by 7.1e-15; none cut elsewhere. The untruncated tables, and
# the means, tail constants and thetas of all twelve, kept their bits.
FOLD_GRID = [GigpParams(0.5, 0.0, 0.9), GigpParams(0.5, 0.0, 0.9, True),
             GigpParams(2.5, 0.0, 0.7, True), GigpParams(0.0, 0.0, 0.9, True),
             GigpParams(0.0, 0.0, 0.3, True), GigpParams(-0.5, 0.0, 0.9, True),
             GigpParams(-0.9, 0.0, 0.5, True), GigpParams(0.5, 2.0, 0.9),
             GigpParams(0.5, 2.0, 0.9, True), GigpParams(-0.5, 1.0, 0.99, True),
             GigpParams(-1.0, 2.0, 0.5, True), GigpParams(0.0, 2.0, 0.8)]
FOLD_DIGEST = "316d2966d556a0ce6fc9f93710698b4083339edc360a8410268f6196faff6eb3"


def test_family_head_and_truncation_bits_are_pinned():
    h = hashlib.sha256()
    for p in FOLD_GRID:
        eta = mean_exact(p)
        h.update(repr((eta, _tail_pmf_asymptotic(p, 37),
                       theta_from_mean(p.nu, p.alpha, eta, p.zero_truncated))).encode())
        t = _tables(p)
        h.update(t.log_f(np.arange(t.jmax + 1)).tobytes())
        h.update(t.sf.tobytes())
    assert h.hexdigest() == FOLD_DIGEST


@pytest.mark.parametrize("p", FOLD_GRID + [GigpParams(0.5, 2.0, 0.9999)])
def test_log_f_is_made_again_bit_for_bit(p):
    # the table keeps no log f: log_pmf, pmf and a ccdf near the cut make it
    # again from the blocks, and read the same bits on a fresh table, after
    # a sample and after a ccdf past the cut
    jmax = _tables(p).jmax
    span = -16.0 / math.log(p.theta)
    js = np.arange(1 if p.zero_truncated else 0, jmax + 1)
    xs = np.linspace(jmax - span, jmax + 2.0 * span, 52)[1:-1]
    reads = [lambda: log_pmf(p, js), lambda: pmf(p, js), lambda: ccdf(p, xs)]
    firsts = [lambda: None, lambda: sample(p, 1, 1000), lambda: ccdf(p, jmax + 3.0 * span)]
    got = []
    for first in firsts:
        for read in reads:
            distribution._tables.cache_clear()
            first()
            got.append(read().tobytes())
    assert got[3:6] == got[:3] and got[6:] == got[:3]


# FOLD_GRID's tables stay in block 0; these pass it: the four bench shape
# cases, nu > 1, the truncated alpha -> 0+ tables, and a table whose blocks
# all lie below j* and so run on from a carried Bessel ratio
BLOCK_GRID = [GigpParams(0.5, 2.0, 0.9999), GigpParams(0.0, 2.0, 0.9999),
              GigpParams(-0.5, 2.0, 0.9999), GigpParams(-0.5, 0.0, 0.9999, True),
              GigpParams(20.0, 2.0, 0.999), GigpParams(-1.0, 0.5, 0.9999, True),
              GigpParams(-0.9, 1e-8, 0.9999, True), GigpParams(0.5, 3e4, 0.9)]


def _fsum_prefixes(f, ends):
    """math.fsum(f[:end]) at each of the increasing ends, carried exactly
    from one end to the next as a pair of floats."""
    out, hi, lo, at = [], 0.0, 0.0, 0
    for end in ends:
        part = [hi, lo, *f[at:end]]
        hi = math.fsum(part)
        lo = math.fsum([*part, -hi])
        out.append(hi)
        at = end
    return np.array(out)


@pytest.mark.parametrize("p", FOLD_GRID + BLOCK_GRID)
def test_blocks_match_the_dense_table_bit_for_bit(p):
    distribution._tables.cache_clear()
    try:
        t = _tables(p)
        n, blocks = t.jmax + 1, range(len(t.below))
        cum = np.concatenate([t._block(b)[0] for b in blocks])
        sf = np.concatenate([t._block(b)[1] for b in blocks])
        assert len(cum) == n and len(sf) == n + 1 and cum[-1] == math.inf and sf[-1] == 0.0
        # against exact sums of the dense f, at every block edge and every
        # 97th j: cum, and sf with the table's tail past the cut; P(X >= j) is
        # 1 exactly up to the first j with mass. Each block's cumsum rounds
        # up to 4,097 times near 1, so cum is held to 5e-13 (the dense
        # sequential cumsum is off by 3.8e-13 at (0.5, 2, 0.9999))
        with np.errstate(under="ignore"):
            f = np.exp(t.log_f(np.arange(n)))
        edges = [distribution._first(b) + k for b in blocks for k in (-1, 0)]
        js = np.unique(np.clip([*range(0, n, 97), *edges, n - 2], 0, n - 2))
        want = _fsum_prefixes(f.tolist(), js + 1)
        assert np.all(np.abs(cum[js] - want) <= 5e-13)
        rev = [t.tail, *f[::-1].tolist()]
        want = _fsum_prefixes(rev, n + 1 - js[::-1])[::-1]
        first = np.concatenate([[0.0], cum[:-1]])[js] == 0.0
        assert np.all(sf[js][first] == 1.0)
        assert np.all(np.abs(sf[js] - want)[~first] <= 1e-14 * want[~first])
        # bit for bit, a block's columns are the same kept at build, made
        # again, or made on a fresh table in another order
        assert all(np.array_equal(x, y) for x, y in zip((t.cum, t.sf), t._block(0)))
        distribution._tables.cache_clear()
        fresh = _tables(p)
        for b in reversed(blocks):
            assert all(np.array_equal(x, y) for x, y in zip(t._block(b), fresh._block(b)))
        # draws, sorted or not, on the table with every block made and on a fresh one;
        u = np.random.default_rng(17).random(20_000)
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], t.below, u])
        kept = {}  # the second draw reads the columns the first made
        for draw_u in (u, np.sort(u)):
            got = t.draw(draw_u, kept)
            assert got.min() >= 0 and got.max() <= t.jmax
            distribution._tables.cache_clear()
            assert np.array_equal(_tables(p).draw(draw_u), got)
        # ccdf away from the cut reads sf
        distribution._tables.cache_clear()
        js = np.arange(t.jmax + 2, dtype=float)
        js = js[js <= t.jmax + 16.0 / math.log(p.theta)]
        assert np.array_equal(ccdf(p, js[::-1])[::-1], sf[:len(js)])
    finally:
        distribution._tables.cache_clear()


# theta_from_mean's bracket exits that FOLD_GRID does not reach: eta too
# large and too small, with the seed clamped at u = 1e-14 or 1 - 1e-14 or
# walked there, and a bracket found only at either clamp. Digest taken before
# the bracket loops became while loops.
BRACKET_EXITS = [(-1.0, 1e-300, 5.0, None), (0.5, 0.0, 1e300, None),
                 (-0.999999, 1.0, 10.0, None), (-0.999999, 2.0, 1.0001, True),
                 (-1.0, 1.0, 1.0001, True), (-1.0, 1.0, 10.0, True),
                 (-0.999999, 1.0, 1.0001, None), (2.5, 0.001, 2.25179981368522e14, None),
                 (-1.0, 1.0, 1.0001, None)]
BRACKET_DIGEST = "262620edccb3ca30d42f9023922c63a26fe3ecb5f74e407ebdce71afb8136ad2"


def test_theta_from_mean_bracket_exits_are_pinned():
    h = hashlib.sha256()
    for args in BRACKET_EXITS:
        try:
            got = repr(theta_from_mean(*args))
        except ValueError as exc:
            got = str(exc)
        h.update(got.encode())
    assert h.hexdigest() == BRACKET_DIGEST


@pytest.mark.parametrize("nu, alpha, eta", [
    (-0.9, 0.0, 10.0), (0.5, 0.0, 4e13), (0.5, 2.0, 4.5e13), (-0.5, 0.0, 1e4),
    (1.0, 0.0, 1e-12), (0.5, 1.0, 1e-11)])
def test_theta_from_mean_stops_where_theta_cannot_be_resolved(nu, alpha, eta):
    # the mean steps by more than the 1e-9 tolerance between adjacent doubles
    # of theta (near 1) or of u = 1 - theta (near 0); these raised "bisection
    # did not converge"
    truncated = alpha == 0.0 and nu <= 0.0
    got = theta_from_mean(nu, alpha, eta)

    def off(theta):
        return mean_exact(GigpParams(nu, alpha, theta, truncated)) - eta

    # the nearest thetas on either side that the bisection on u can reach
    u = 1.0 - got
    below = off(min(math.nextafter(got, 0.0), 1.0 - math.nextafter(u, 1.0)))
    above = off(max(math.nextafter(got, 1.0), 1.0 - math.nextafter(u, 0.0)))
    assert below < 0.0 < above
    assert abs(off(got)) <= min(-below, above)


def test_numpy_scalars_are_real_numbers():
    assert mean_exact(GigpParams(np.int64(1), 0.0, 0.9)) == mean_exact(GigpParams(1.0, 0.0, 0.9))
    assert (theta_from_mean(np.int64(1), np.float32(2.0), 5.0)
            == theta_from_mean(1.0, 2.0, 5.0))
    p = GigpParams(np.float32(0.5), np.int32(2), np.float64(0.9))
    assert p == GigpParams(0.5, 2.0, 0.9) and type(p.alpha) is float
    with pytest.raises(ValueError, match="nu must be a finite number"):
        validate(GigpParams("1", 0.0, 0.9))


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
    # at theta = 0.3 most untruncated draws are 0; the truncated table
    # gives j = 0 no mass, so no draw lands there
    heavy = GigpParams(0.5, 2.0, 0.3, zero_truncated=True)
    assert pmf(GigpParams(0.5, 2.0, 0.3), 0) > 0.5
    for count in (1, 2, 35, 20_000):
        values = sample_values(heavy, count, count)
        assert values.shape == (count,) and values.min() >= 1
    p = GigpParams(-0.5, 1.0, 0.9, zero_truncated=True)
    values = sample_values(p, 11, 5000)
    assert values.min() >= 1
    q1 = pmf(p, 1)
    sd = math.sqrt(q1 * (1.0 - q1) / 5000)
    assert np.mean(values == 1) == pytest.approx(q1, abs=5.0 * sd)


def test_table_draws_at_theta_0_99999_match_pmf():
    # the draws of a 3.2e6-entry table, truncated and not, against its pmf at
    # small j and its ccdf across the mass, which runs to ~A = 1e5 and past
    n = 20000
    for p in (GigpParams(0.5, 2.0, 0.99999), GigpParams(0.5, 2.0, 0.99999, True)):
        values = sample_values(p, 5, n)
        assert values.shape == (n,)
        assert values.min() >= (1 if p.zero_truncated else 0)
        for j in (1, 2, 5):
            q = pmf(p, j)
            sd = math.sqrt(q * (1.0 - q) / n)
            assert np.mean(values == j) == pytest.approx(q, abs=5.0 * sd)
        for x in (1e3, 1e4, 1e5, 3e5):
            q = ccdf(p, x)
            sd = math.sqrt(q * (1.0 - q) / n)
            assert np.mean(values >= x) == pytest.approx(q, abs=5.0 * sd)


def test_sample_past_the_table_cap():
    # every family draws from its table up to the cap: at theta = 0.99999,
    # truncated or not; past the cap, at 0.9999998, every draw raises the
    # cap's error
    for p in (GigpParams(0.5, 2.0, 0.99999), GigpParams(0.5, 2.0, 0.99999, True),
              GigpParams(0.5, 0.0, 0.99999)):
        values = sample_values(p, 1, 1000)
        assert values.shape == (1000,) and values.min() >= (1 if p.zero_truncated else 0)
        assert values.mean() == pytest.approx(mean_exact(p), rel=0.2)
    for p in (GigpParams(0.5, 2.0, 0.9999998), GigpParams(0.5, 0.0, 0.9999998)):
        with pytest.raises(RuntimeError, match="pmf support cutoff not reached"):
            sample_values(p, 1, 10)


def test_truncated_draws_near_alpha_zero_are_fast():
    # at (-0.5, 1e-6, 0.99999, truncated) 1 - f_0 ~ 1e-6; the truncated
    # table gives j = 0 no mass, so 1e5 draws take its build and one
    # inverse-cdf pass
    p = GigpParams(-0.5, 1e-6, 0.99999, True)
    distribution._tables.cache_clear()
    start = time.perf_counter()
    values = sample_values(p, 1, 100_000)
    assert time.perf_counter() - start < 1.0
    assert values.shape == (100_000,) and values.min() >= 1


def test_a_one_off_draw_keeps_no_block_columns():
    # 1e5 sorted draws from a 3.2e6-entry table reach 171 blocks past block
    # 0; each block's cum is made for its search and dropped, so the peak is
    # the uniforms, the draws and one block (10.1 MiB when the draw kept
    # every cum it made until it returned)
    p = GigpParams(0.5, 2.0, 0.99999)
    _tables(p)
    tracemalloc.start()
    try:
        sample(p, 1, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


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


# bench shape cases a-d at theta = 0.9999, the alpha = 0 families (the ENB is
# case d), one draw and a 3.2e6-entry table at theta = 0.99999
SAMPLER_CASES = [(GigpParams(0.5, 2.0, 0.9999), 100_000),
                 (GigpParams(0.0, 2.0, 0.9999), 100_000),
                 (GigpParams(-0.5, 2.0, 0.9999), 100_000),
                 (GigpParams(-0.5, 0.0, 0.9999, True), 100_000),
                 (GigpParams(0.5, 0.0, 0.99), 20_000), (GigpParams(0.5, 0.0, 0.99, True), 20_000),
                 (GigpParams(0.0, 0.0, 0.99, True), 20_000), (GigpParams(0.5, 2.0, 0.9), 1),
                 (GigpParams(0.5, 2.0, 0.99999), 20_000)]


@pytest.mark.parametrize("p, n", SAMPLER_CASES)
def test_sample_is_the_table_of_sample_values(p, n):
    # sample is the table of the same draws, in any seed form
    assert sample(p, 5, n) == diagram.table_from_sample(sample_values(p, 5, n))
    rng = np.random.default_rng(6)
    assert sample(p, rng, n) == diagram.table_from_sample(sample_values(p, 6, n))


@pytest.mark.parametrize("p", [GigpParams(0.5, 2.0, 0.9999), GigpParams(-0.5, 2.0, 0.99),
                               GigpParams(0.5, 2.0, 0.99999, True)])
def test_ordered_draws_are_the_sorted_draws(p):
    # sample draws from sorted uniforms: the same draws as sample_values, in
    # increasing order
    got = distribution._sample_values_rng(p, np.random.default_rng(8), 5_000, ordered=True)
    assert np.array_equal(got, np.sort(sample_values(p, 8, 5_000)))


def test_sample_values_keep_draw_order():
    # one uniform a draw, so at theta = 0.99999 the same seed gives the same
    # quantiles of a law about ten times as wide
    assert sample_values(GigpParams(0.5, 2.0, 0.9999), 1, 6).tolist() == [
        2510, 19452, 205, 19150, 880, 1652]
    assert sample_values(GigpParams(0.5, 2.0, 0.99999), 1, 6).tolist() == [
        24367, 193383, 1776, 190368, 8291, 15880]


@pytest.mark.parametrize("bounds", [[], [3.0], [2.0, 2.0, 5.0, 9.0], [0.0, 1.0, 7.0, 7.0, 8.0]])
def test_by_block_yields_each_reached_block_once_with_its_keys(bounds):
    # block b takes the keys in [bounds[b - 1], bounds[b]); blocks that no
    # key reaches, including the empty ones between equal bounds, yield nothing
    keys = np.array([8.5, 2.0, 0.5, 7.0, 2.0, 9.0, 4.0, 1.0])
    at = np.arange(len(keys)) * 10
    bounds = np.array(bounds)
    got = [(b, a.tolist(), k.tolist())
           for b, a, k in distribution._by_block(at, keys, bounds)]
    want = {}
    for i in np.argsort(keys, kind="stable").tolist():
        b = int(np.sum(bounds <= keys[i]))
        want.setdefault(b, ([], []))
        want[b][0].append(int(at[i]))
        want[b][1].append(float(keys[i]))
    assert got == [(b, *want[b]) for b in sorted(want)]
    assert all(type(b) is int for b, _, _ in got)
