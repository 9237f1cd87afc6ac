"""Scaling coefficients, the limit shape phi_nu, and fluctuation statistics.

The scaled boundary Y-tilde(x) = Y(A x)/B with A = -1/log(theta) and a
case-dependent B approaches phi_nu(x) = integral_x^inf s^(nu-1) e^(-s) ds
as theta -> 1 and B -> infinity. When B stays bounded the regime is
chaotic and the Poisson machinery in the chaotic module applies instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import FrequencyTable, young_y
from .distribution import GigpParams, ccdf, validate
from .specfun import upper_incomplete_gamma


@dataclass(frozen=True)
class ScalingPair:
    a: float
    b: float
    case_label: str  # one of a (nu>0), b (nu=0), c (nu<0, alpha>0), d (nu<0, alpha=0)


@dataclass(frozen=True)
class PointRecord:
    x: float
    y_scaled: float
    phi: float
    upsilon: float | None = None
    msd: float | None = None


@dataclass
class ShapeReport:
    delta: float
    sup_distance: float
    pointwise: list[PointRecord]


def limit_shape(nu: float, x):
    """phi_nu(x), the upper incomplete gamma function as a shape curve.

    x may be a numpy array; the curve then comes back as one.
    """
    return upper_incomplete_gamma(nu, x)


def scaling_a(theta: float) -> float:
    """Item-axis scale A = -1/log(theta)."""
    if not (isinstance(theta, (int, float)) and 0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    return -1.0 / math.log(theta)


def scaling_b(params: GigpParams, m_sources: int) -> ScalingPair:
    """Source-axis scale B with its case label; A comes along for the ride."""
    validate(params)
    if m_sources < 1 or int(m_sources) != m_sources:
        raise ValueError("m_sources must be a positive integer")
    nu, alpha, theta = params.nu, params.alpha, params.theta
    u = 1.0 - theta
    if nu > 0.0:
        label, b = "a", m_sources / math.gamma(nu)
    elif nu == 0.0:
        label, b = "b", m_sources / (-math.log(u))
    elif alpha > 0.0:
        label = "c"
        b = m_sources * math.pow(0.5 * alpha, -2.0 * nu) * math.pow(u, -nu) / math.gamma(-nu)
    else:
        label = "d"
        b = m_sources * (-nu) * math.pow(u, -nu) / math.gamma(nu + 1.0)
    return ScalingPair(scaling_a(theta), b, label)


def classify_regime(pair: ScalingPair, threshold: float = 50.0) -> str:
    """'regular' when B clears the threshold (inclusive), else 'chaotic'."""
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    return "regular" if pair.b >= threshold else "chaotic"


def upsilon(table: FrequencyTable, params: GigpParams, m_sources: int,
            pair: ScalingPair, x: float) -> float:
    """The fluctuation statistic sqrt(B/phi) (Y-tilde(x) - M F-bar(A x)/B)."""
    if not x > 0.0:
        raise ValueError("x must be positive")
    phi = upper_incomplete_gamma(params.nu, x)
    if phi <= 0.0:
        raise ValueError("phi_nu(x) underflowed; x is too deep in the tail")
    y_scaled = young_y(table, pair.a * x) / pair.b
    mean_scaled = m_sources * ccdf(params, pair.a * x) / pair.b
    return math.sqrt(pair.b / phi) * (y_scaled - mean_scaled)


def limit_cov(nu: float, x: float, x2: float) -> float:
    """Limiting Cov(Upsilon(x), Upsilon(x2)) = sqrt(phi(x2)/phi(x)) for x <= x2."""
    if not 0.0 < x <= x2:
        raise ValueError("need 0 < x <= x2")
    phi1 = upper_incomplete_gamma(nu, x)
    phi2 = upper_incomplete_gamma(nu, x2)
    return math.sqrt(phi2 / phi1)


def tail_transform(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """(x, y) -> (u, v) = (log x, log y + x); a straight line for the model tail."""
    out = []
    for x, y in points:
        if not (x > 0.0 and y > 0.0):
            raise ValueError("tail_transform needs positive coordinates")
        out.append((math.log(x), math.log(y) + x))
    return out


def sup_distance(table: FrequencyTable, pair: ScalingPair, nu: float, delta: float,
                 params: GigpParams | None = None,
                 m_sources: int | None = None) -> ShapeReport:
    """sup over x >= delta of |Y-tilde(x) - phi_nu(x)| on the exact jump grid.

    Both one-sided limits of the step function enter at each jump, so
    the sup is exact, not a dense-grid approximation. When params and
    m_sources are given, the pointwise records also carry the
    fluctuation statistic and the mean squared deviation
    Var(Y-tilde) + bias^2, with the model mean M F-bar(j)/B read at the
    same integer j as Y(j). Every column is one whole-array pass.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    a, b = pair.a, pair.b
    boundary = table.boundary()
    support = boundary.support
    suffix = boundary.suffix

    # the point x = delta, then each jump x_k = j/A >= delta (so j >= 1)
    # with Y at the jump (mass at j included) and its right limit
    jump_x = support / a
    k0 = int(np.searchsorted(jump_x, delta, side="left"))
    y_delta = float(boundary.at(a * delta))
    xs = np.concatenate(([delta], jump_x[k0:]))
    upper = np.concatenate(([y_delta], suffix[k0:-1])).astype(float)
    lower = np.concatenate(([y_delta], suffix[k0 + 1:])).astype(float)

    phi = upper_incomplete_gamma(nu, xs)
    y_scaled = upper / b
    dev = np.maximum(np.abs(y_scaled - phi), np.abs(lower / b - phi))
    sup = max(0.0, float(dev.max()))
    ups = msd = [None] * len(xs)
    if params is not None and m_sources is not None:
        fbar = ccdf(params, np.concatenate(([a * delta], support[k0:])))
        mean_scaled = m_sources * fbar / b
        with np.errstate(divide="ignore", invalid="ignore"):
            ups_arr = np.sqrt(b / phi) * (y_scaled - mean_scaled)
        ups = [u if p > 0.0 else None for u, p in zip(ups_arr.tolist(), phi.tolist())]
        bias = mean_scaled - phi
        msd = (m_sources * fbar * (1.0 - fbar) / (b * b) + bias * bias).tolist()
    pointwise = [PointRecord(*rec) for rec in
                 zip(xs.tolist(), y_scaled.tolist(), phi.tolist(), ups, msd)]
    return ShapeReport(delta, sup, pointwise)


def expected_shape_deviation(params: GigpParams, xs: Sequence[float]) -> float:
    """max over xs of |M F-bar(A x)/B - phi_nu(x)|; B/M does not depend on M."""
    pair = scaling_b(params, 1)
    xs = np.asarray(xs, dtype=float)
    mean_scaled = ccdf(params, pair.a * xs) / pair.b
    return float(np.max(np.abs(mean_scaled - upper_incomplete_gamma(params.nu, xs)),
                        initial=0.0))
