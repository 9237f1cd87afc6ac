"""Estimation and goodness-of-fit: tail-line fitting, parameter recovery,
Pearson chi-square with bin merging, the pointwise z-test and a KS-vs-
normal utility."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import FrequencyTable
from .distribution import GigpParams, resolve_truncation, theta_from_mean
from .shape import classify_regime, scaling_b, tail_transform, upsilon
from .specfun import chi2_sf, normal_cdf


@dataclass(frozen=True)
class TailFit:
    slope: float
    intercept: float
    nu_hat: float      # slope + 1
    logB_hat: float    # intercept
    r_squared: float
    fit_range: tuple[float, float]


@dataclass
class GofReport:
    statistic: float
    df: int
    p_value: float
    bins: list[tuple[str, int, float]]


def tail_points(table: FrequencyTable, a_scale: float) -> np.ndarray:
    """tail_transform of the boundary at its jumps j >= 1, (x, y) = (j/A, Y(j)),
    as an (n, 2) array of (u, v) rows."""
    tail = table.support >= 1
    pts = zip((table.support[tail] / a_scale).tolist(),
              table.suffix[:-1][tail].astype(float).tolist())
    return np.array(tail_transform(pts), dtype=float).reshape(-1, 2)


def fit_tail_line(table: FrequencyTable, a_scale: float,
                  u_min: float | None = None,
                  u_max: float | None = None) -> TailFit:
    """OLS line through the tail-transformed boundary points.

    Points are (x_k, Y(A x_k)) at the jump locations x_k = j/A of the
    scaled boundary. In (u, v) = (log x, log y + x) coordinates the
    model tail is the line v = log B + (nu - 1) u, so slope + 1
    estimates nu and the intercept estimates log B. The default window
    keeps the central 60% of the transformed abscissae.
    """
    if not a_scale > 0.0:
        raise ValueError("a_scale must be positive")
    uv = tail_points(table, a_scale)
    us = np.sort(uv[:, 0])
    if u_min is None:
        u_min = us[int(round(0.2 * (len(us) - 1)))] if len(us) else 0.0
    if u_max is None:
        u_max = us[int(round(0.8 * (len(us) - 1)))] if len(us) else 0.0
    kept = uv[(uv[:, 0] >= u_min) & (uv[:, 0] <= u_max)]
    if len(kept) < 3:
        raise ValueError("fewer than 3 tail points in the fit window")
    u, v = kept.T.copy()
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((v - v.mean()) ** 2).sum())
    # an exactly linear v leaves only float rounding in both sums, where
    # the ratio form would report garbage
    exact = ss_res <= 1e-20 * len(kept) * max(1.0, float((v * v).mean()))
    if exact:
        r2 = 1.0
    elif ss_tot > 0.0:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    else:
        r2 = 0.0
    return TailFit(float(slope), float(intercept), float(slope) + 1.0,
                   float(intercept), r2, (float(u_min), float(u_max)))


def alpha_from_b(nu: float, theta: float, m_sources: int, b_hat: float) -> float | None:
    """Invert the case-c scaling B3 for alpha; None when B does not involve alpha.

    Only -1 <= nu < 0 with alpha > 0 puts alpha into B:
    B = M (alpha/2)^(-2 nu) (1-theta)^(-nu) / Gamma(-nu).
    """
    if not -1.0 <= nu < 0.0:
        return None
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if m_sources < 1:
        raise ValueError("m_sources must be >= 1")
    if not b_hat > 0.0:
        raise ValueError("b_hat must be positive")
    base = b_hat * math.gamma(-nu) / (m_sources * math.pow(1.0 - theta, -nu))
    if base <= 0.0:
        raise ValueError("inversion base must be positive")
    return 2.0 * math.pow(base, -1.0 / (2.0 * nu))


def _check_zero_row(table: FrequencyTable | None, zero_truncated: bool) -> None:
    """ValueError when a zero-truncated model meets a table with a j = 0 row."""
    if zero_truncated and table is not None and table.support[0] == 0:
        raise ValueError(f"a zero-truncated model gives j = 0 no mass, but the data has "
                         f"{int(table.mult[0])} sources in its j = 0 row")


def estimate_theta(nu: float, alpha: float, table: FrequencyTable,
                   zero_truncated: bool | None = None) -> float:
    """theta matching the sample mean N/M at fixed nu, alpha."""
    if table.M < 1:
        raise ValueError("table has no sources")
    zero_truncated = resolve_truncation(nu, alpha, zero_truncated)
    _check_zero_row(table, zero_truncated)
    return theta_from_mean(nu, alpha, table.N / table.M, zero_truncated)


def _merge_two(bins: list[list], i: int) -> None:
    # fold bin i+1 into bin i
    bins[i][1] = bins[i][1] + bins[i + 1][1]
    bins[i][2] = bins[i][2] + bins[i + 1][2]
    bins[i][3] = bins[i + 1][3]
    del bins[i + 1]


def pearson_chi2(observed: Sequence[int], expected: Sequence[float],
                 n_fitted_params: int = 0, min_expected: float = 5.0,
                 labels: Sequence[str] | None = None) -> GofReport:
    """Pearson chi-square with outward-in edge merging of sparse bins.

    Edge bins with expected < min_expected are folded inward first (the
    deterministic order makes the statistic a function of the merged
    layout only); any interior stragglers then fold into the smaller
    neighbor. df = merged_bins - n_fitted_params - 1.
    """
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
    # each working bin is [first_label, observed, expected, last_label]
    bins = [[labels[i], obs[i], exp[i], labels[i]] for i in range(len(obs))]
    while len(bins) >= 2 and bins[0][2] < min_expected:
        _merge_two(bins, 0)
    while len(bins) >= 2 and bins[-1][2] < min_expected:
        _merge_two(bins, len(bins) - 2)
    # every bin before the last straggler's index stays >= min_expected
    # after either merge, since expected counts are positive, so each
    # search resumes there
    i = 0
    while len(bins) >= 2:
        i = next((k for k in range(i, len(bins)) if bins[k][2] < min_expected), None)
        if i is None:
            break
        if i > 0 and (i == len(bins) - 1 or bins[i - 1][2] <= bins[i + 1][2]):
            _merge_two(bins, i - 1)
        else:
            _merge_two(bins, i)
    if len(bins) < 2:
        raise ValueError("fewer than 2 bins remain after merging")
    df = len(bins) - n_fitted_params - 1
    if df < 1:
        raise ValueError("no degrees of freedom left after merging and fitting")
    stat = sum((o - e) ** 2 / e for _, o, e, _ in bins)
    out = [(lo if lo == hi else f"{lo}-{hi}", o, e) for lo, o, e, hi in bins]
    return GofReport(stat, df, chi2_sf(stat, df), out)


def pointwise_z_test(table: FrequencyTable, params: GigpParams,
                     x: float) -> tuple[float, float, float]:
    """(z, two_sided_p, one_sided_p) for the deviation of Y-tilde(x) from the model.

    z is upsilon(table, params, x), asymptotically standard normal in the
    regular regime; the one-sided p is the lower tail P(Z <= z).
    """
    if classify_regime(scaling_b(params, table.M)) == "chaotic":
        warnings.warn("B is below the regular-regime threshold; "
                      "the normal approximation may be poor", stacklevel=2)
    z = upsilon(table, params, x)
    return z, 2.0 * normal_cdf(-abs(z)), normal_cdf(z)


def _kolmogorov_q(lam: float) -> float:
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_normality(samples: Sequence[float]) -> tuple[float, float]:
    """KS distance to the standard normal with the asymptotic p-value."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n < 20:
        raise ValueError("need at least 20 samples")
    d = 0.0
    for i, x in enumerate(arr):
        f = normal_cdf(float(x))
        d = max(d, (i + 1) / n - f, f - i / n)
    en = math.sqrt(n)
    return d, _kolmogorov_q((en + 0.12 + 0.11 / en) * d)
