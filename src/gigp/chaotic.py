"""Poisson approximation of the boundary when B stays bounded.

With B = O(1) the scaled diagram no longer concentrates: Y(A x) is a
Binomial(M, F-bar(A x)) count with a small success probability, so it
is approximated by Poisson(lambda) with lambda = M F-bar(A x) and total
variation error at most lambda^2 / M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import table_from_sample
from .distribution import GigpParams, _sample_values_rng, ccdf, validate
from .fitgof import GofReport, _open_top_chi2
from .shape import _check_m_sources, classify_regime, scaling_a, scaling_b
from .specfun import _lower_p_series, regularized_gamma_q

_BLOCK_ROWS = 256  # replicates counted per compare-and-count pass


@dataclass(frozen=True)
class PoissonApprox:
    lam: float
    tv_bound: float
    x: float


def poisson_rate(params: GigpParams, m_sources: int, x: float) -> PoissonApprox:
    """Poisson(lambda) approximation of Y(A x): lambda = M F-bar(A x),
    A = scaling_a(theta)."""
    validate(params)
    _check_m_sources(m_sources)
    if not x > 0.0:
        raise ValueError("x must be positive")
    fbar = ccdf(params, scaling_a(params.theta) * x)
    lam = m_sources * fbar
    return PoissonApprox(lam, lam * fbar, x)


def increment_rates(params: GigpParams, m_sources: int,
                    xs: Sequence[float]) -> list[float]:
    """Rates of the increment counts over [x_i, x_{i+1}), last cell open-ended."""
    validate(params)
    _check_m_sources(m_sources)
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        raise ValueError("xs must be nonempty")
    if not np.all(xs > 0.0):
        raise ValueError("xs must be positive")
    if np.any(xs[1:] <= xs[:-1]):
        raise ValueError("xs must be strictly increasing")
    fbars = ccdf(params, scaling_a(params.theta) * xs)
    return (m_sources * (fbars[:-1] - fbars[1:])).tolist() + [m_sources * float(fbars[-1])]


def integrated_rate(params: GigpParams, m_sources: int, t: float) -> float:
    """Lambda(t) = M F-bar(A/t), the integrated rate in inverted time."""
    validate(params)
    _check_m_sources(m_sources)
    if not t > 0.0:
        raise ValueError("t must be positive")
    return m_sources * ccdf(params, scaling_a(params.theta) / t)


def _poisson_pmf(j: int, lam: float) -> float:
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1.0))


def _poisson_sf(k: int, lam: float) -> float:
    """P(Poisson(lam) >= k)."""
    if k <= 0:
        return 1.0
    if lam < k + 1.0:
        # the series for P(k, lam) itself; 1 - Q(k, lam) cancels here
        return float(_lower_p_series(float(k), np.array([lam]))[0])
    return 1.0 - regularized_gamma_q(float(k), lam)


def _replicate_counts(params: GigpParams, rng: np.random.Generator, m_sources: int,
                      threshold: float, replicates: int) -> np.ndarray:
    """Y = the count of values >= threshold in each of `replicates` samples
    of m_sources. One sampler call per replicate, in order, keeps the RNG
    stream; the calls share the table columns past block 0 that they make."""
    ys, blocks = np.empty(replicates, dtype=np.int64), {}
    rows = np.empty((min(replicates, _BLOCK_ROWS), m_sources), dtype=np.int64)
    for lo in range(0, replicates, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, replicates)
        for r in range(hi - lo):
            rows[r] = _sample_values_rng(params, rng, m_sources, blocks=blocks)
        ys[lo:hi] = np.count_nonzero(rows[:hi - lo] >= threshold, axis=1)
    return ys


def poisson_gof_experiment(params: GigpParams, m_sources: int, x0: float,
                           replicates: int, seed: int,
                           fit_lambda: bool = False,
                           min_expected: float = 5.0) -> GofReport:
    """Grouped chi-square test of Y(A x0) across replicates against Poisson.

    Simulates `replicates` frequency tables of M sources, records
    Y(A x0) for each, bins the counts by value with an open upper bin,
    and tests against Poisson(lambda). lambda is M F-bar(A x0) in
    specified mode (df = bins - 1) or the replicate mean in fitted mode
    (df = bins - 2).
    """
    validate(params)
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")
    pair = scaling_b(params, m_sources)
    if classify_regime(pair) == "regular":
        warnings.warn("B is in the regular regime; the Poisson approximation "
                      "is meant for bounded B", stacklevel=2)
    threshold = pair.a * x0
    ys = _replicate_counts(params, np.random.default_rng(seed), m_sources,
                           threshold, replicates)
    lam = float(np.mean(ys)) if fit_lambda else m_sources * ccdf(params, threshold)
    return _open_top_chi2(table_from_sample(ys), 0, lambda jmax: np.array(
        [_poisson_pmf(j, lam) for j in range(jmax)] + [_poisson_sf(jmax, lam)]),
        1 if fit_lambda else 0, min_expected)
