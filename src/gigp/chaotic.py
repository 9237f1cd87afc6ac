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

from .distribution import GigpParams, _sample_values_rng, ccdf, validate
from .fitgof import GofReport, pearson_chi2
from .shape import scaling_b, classify_regime
from .specfun import regularized_gamma_q, upper_incomplete_gamma


@dataclass(frozen=True)
class PoissonApprox:
    lam: float
    tv_bound: float
    x: float


def poisson_rate(params: GigpParams, m_sources: int, a_scale: float,
                 x: float) -> PoissonApprox:
    """Poisson(lambda) approximation of Y(A x): lambda = M F-bar(A x)."""
    validate(params)
    if not (a_scale > 0.0 and x > 0.0):
        raise ValueError("a_scale and x must be positive")
    fbar = ccdf(params, a_scale * x)
    lam = m_sources * fbar
    return PoissonApprox(lam, lam * fbar, x)


def increment_rates(params: GigpParams, m_sources: int, a_scale: float,
                    xs: Sequence[float]) -> list[float]:
    """Rates of the increment counts over [x_i, x_{i+1}), last cell open-ended."""
    validate(params)
    if not xs:
        raise ValueError("xs must be nonempty")
    if any(not x > 0.0 for x in xs):
        raise ValueError("xs must be positive")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly increasing")
    fbars = ccdf(params, a_scale * np.asarray(xs, dtype=float))
    return (m_sources * (fbars[:-1] - fbars[1:])).tolist() + [m_sources * float(fbars[-1])]


def integrated_rate(params: GigpParams, m_sources: int, a_scale: float,
                    t: float) -> float:
    """Lambda(t) = M F-bar(A/t), the integrated rate in inverted time."""
    validate(params)
    if not t > 0.0:
        raise ValueError("t must be positive")
    return m_sources * ccdf(params, a_scale / t)


def _poisson_pmf(j: int, lam: float) -> float:
    if lam <= 0.0:
        return 1.0 if j == 0 else 0.0
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1.0))


def _poisson_sf(k: int, lam: float) -> float:
    """P(Poisson(lam) >= k)."""
    if k <= 0:
        return 1.0
    if lam <= 0.0:
        return 0.0
    return 1.0 - regularized_gamma_q(float(k), lam)


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
    rng = np.random.default_rng(seed)
    ys = np.empty(replicates, dtype=np.int64)
    for r in range(replicates):
        values = _sample_values_rng(params, rng, m_sources)
        ys[r] = np.count_nonzero(values >= threshold)
    lam = float(np.mean(ys)) if fit_lambda else m_sources * ccdf(params, threshold)
    jmax = int(ys.max())
    observed = np.bincount(ys, minlength=jmax + 1)
    expected = [replicates * _poisson_pmf(j, lam) for j in range(jmax)]
    expected.append(replicates * _poisson_sf(jmax, lam))
    labels = [str(j) for j in range(jmax)] + [f"{jmax}+"]
    return pearson_chi2(list(observed), expected,
                        n_fitted_params=1 if fit_lambda else 0,
                        min_expected=min_expected, labels=labels)
