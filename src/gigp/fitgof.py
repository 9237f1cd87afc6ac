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
from .distribution import GigpParams
from .shape import classify_regime, scaling_b, tail_transform, upsilon
from .specfun import _libm, chi2_sf, normal_cdf


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
    """A chi-square test and its merged bins as three columns: labels ("j",
    or "lo-hi" for a run), int64 observed and float64 expected counts."""
    statistic: float
    df: int
    p_value: float
    bins: list[str]
    observed: np.ndarray
    expected: np.ndarray


def tail_points(table: FrequencyTable, a_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) = tail_transform(j / A, Y(j)) at the boundary's jumps j >= 1."""
    tail = table.support >= 1
    return tail_transform(table.support[tail] / a_scale, table.suffix[:-1][tail])


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
    u, v = tail_points(table, a_scale)
    us = np.sort(u)
    if u_min is None:
        u_min = us[int(round(0.2 * (len(us) - 1)))] if len(us) else 0.0
    if u_max is None:
        u_max = us[int(round(0.8 * (len(us) - 1)))] if len(us) else 0.0
    kept = (u >= u_min) & (u <= u_max)
    if np.count_nonzero(kept) < 3:
        raise ValueError("fewer than 3 tail points in the fit window")
    u, v = u[kept], v[kept]
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((v - v.mean()) ** 2).sum())
    # an exactly linear v leaves only float rounding in both sums, where
    # the ratio form would report garbage
    exact = ss_res <= 1e-20 * len(u) * max(1.0, float((v * v).mean()))
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


def pearson_chi2(observed: Sequence[int], expected: Sequence[float],
                 n_fitted_params: int = 0, min_expected: float = 5.0,
                 labels: Sequence[str] | None = None) -> GofReport:
    """Pearson chi-square with outward-in edge merging of sparse bins.

    Edge bins with expected < min_expected are folded inward first (the
    deterministic order makes the statistic a function of the merged
    layout only); any interior stragglers then fold into the smaller
    neighbor, the left one on ties, in linear passes. An expected count may
    be 0 (an underflowed pmf) where its merged bin's is > 0.
    df = merged_bins - n_fitted_params - 1.
    """
    obs = np.asarray(observed, dtype=np.int64)
    exp = np.asarray(expected, dtype=float)
    if obs.ndim != 1 or obs.shape != exp.shape or not obs.size:
        raise ValueError("observed and expected must be equal-length and nonempty")
    if labels is not None and len(labels) != obs.size:
        raise ValueError("labels must have one entry per bin")
    if np.any(obs < 0):
        raise ValueError("observed counts must be nonnegative")
    if not np.all(np.isfinite(exp) & (exp >= 0.0)):
        raise ValueError("expected counts must be finite and >= 0")
    if n_fitted_params < 0:
        raise ValueError("n_fitted_params must be >= 0")
    if math.isnan(min_expected):
        raise ValueError("min_expected must be a number, not nan")
    o, e = obs.tolist(), exp.tolist()
    if abs(sum(e) - sum(o)) > 0.005 * sum(o):
        raise ValueError("expected total differs from observed total by more than 0.5%")
    # the right edge folds into bin hi, summing right to left
    hi = len(e) - 1
    while hi > 0 and e[hi] < min_expected:
        o[hi - 1] += o[hi]
        e[hi - 1] += e[hi]
        hi -= 1
    # then one pass from the left: a straggler takes in the bin to its right
    # while its finished left neighbour is larger, else folds left. With none
    # finished this is the left edge's fold, which meets the right's only
    # when one bin is left, an error either way
    out = []  # [first bin, observed, expected] of each finished bin
    i = 0
    while i <= hi:
        start, co, ce = i, o[i], e[i]
        i += 1
        while ce < min_expected and i <= hi and not (out and out[-1][2] <= e[i]):
            co, ce, i = co + o[i], ce + e[i], i + 1
        if ce < min_expected and out:
            out[-1][1] += co
            out[-1][2] += ce
        else:
            out.append([start, co, ce])
    if not all(ce > 0.0 for _, _, ce in out):
        raise ValueError("expected counts must be positive")
    if len(out) < 2:
        raise ValueError("fewer than 2 bins remain after merging")
    first, out_o, out_e = zip(*out)
    df = len(out) - n_fitted_params - 1
    if df < 1:
        raise ValueError("no degrees of freedom left after merging and fitting")
    stat = sum((oi - ei) ** 2 / ei for oi, ei in zip(out_o, out_e))
    labels = [str(k) for k in range(obs.size)] if labels is None else labels
    ends = (labels[k - 1] for k in (*first[1:], obs.size))
    bins = [a if a == b else f"{a}-{b}" for a, b in zip((labels[k] for k in first), ends)]
    return GofReport(stat, df, chi2_sf(stat, df), bins,
                     np.array(out_o, dtype=np.int64), np.array(out_e))


def _open_top_chi2(table: FrequencyTable, j_lo: int, p: np.ndarray, n_fitted_params: int,
                   min_expected: float) -> GofReport:
    """pearson_chi2 of a table with no value below j_lo over the bins j_lo,
    ..., j_end - 1 and "j_hi+" from its largest value j_hi, whose
    probabilities are p: the last one is that of all j >= j_end, for the
    j_end <= j_hi that its length gives."""
    j_hi = int(table.support[-1])
    j_end = j_lo + len(p) - 1
    k = int(table.support.searchsorted(j_end))
    observed = np.zeros(len(p), dtype=np.int64)
    observed[table.support[:k] - j_lo] = table.mult[:k]
    observed[-1] = table.mult[k:].sum()
    labels = [str(j) for j in range(j_lo, j_end)] + [f"{j_hi}+"]
    return pearson_chi2(observed, table.M * p, n_fitted_params, min_expected, labels)


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
    f = _libm(normal_cdf, arr)
    i = np.arange(n)
    d = float(np.max(np.maximum((i + 1) / n - f, f - i / n)))
    en = math.sqrt(n)
    return d, _kolmogorov_q((en + 0.12 + 0.11 / en) * d)
