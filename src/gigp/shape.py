"""Scaling coefficients, the limit shape phi_nu, and fluctuation statistics.

The scaled boundary Y-tilde(x) = Y(A x)/B with A = -1/log(theta) and a
case-dependent B approaches phi_nu(x) = integral_x^inf s^(nu-1) e^(-s) ds
as theta -> 1 and B -> infinity. When B stays bounded the regime is
chaotic and the Poisson machinery in the chaotic module applies instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import FrequencyTable, young_y
from .distribution import GigpParams, ccdf, validate
from .specfun import _libm, upper_incomplete_gamma

_REGULAR_B = 50.0  # the smallest B that classify_regime calls regular


@dataclass(frozen=True)
class ScalingPair:
    a: float
    b: float
    case_label: str  # one of a (nu>0), b (nu=0), c (nu<0, alpha>0), d (nu<0, alpha=0)


@dataclass(eq=False)
class ShapeReport:
    """sup_distance's result: the sup and one float64 column per point, in increasing x."""
    delta: float
    sup_distance: float
    x: np.ndarray
    y_scaled: np.ndarray
    phi: np.ndarray
    upsilon: np.ndarray  # NaN where phi underflows to 0
    msd: np.ndarray

    @property
    def pointwise(self) -> list[dict]:
        """One dict per point, keys x, y_scaled, phi, upsilon, msd, None for a NaN."""
        cols = (self.x, self.y_scaled, self.phi, self.upsilon, self.msd)
        return [{"x": x, "y_scaled": y, "phi": p, "upsilon": None if math.isnan(u) else u,
                 "msd": s} for x, y, p, u, s in zip(*(c.tolist() for c in cols))]


def limit_shape(nu: float, x):
    """phi_nu(x), the upper incomplete gamma function as a shape curve.

    x is a number, which gives a float, or an array of them, which gives an array.
    """
    return upper_incomplete_gamma(nu, x)


def scaling_a(theta: float) -> float:
    """Item-axis scale A = -1/log(theta)."""
    if not (isinstance(theta, numbers.Real) and 0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    return -1.0 / math.log(theta)


def _check_delta(delta: float, theta: float) -> None:
    """sup_distance reads the model at j = A delta, so delta > 0 with A delta finite."""
    if not (delta > 0.0 and math.isfinite(scaling_a(theta) * delta)):
        raise ValueError("delta must be positive, with A delta finite")


def _check_m_sources(m_sources: int) -> None:
    if m_sources < 1 or int(m_sources) != m_sources:
        raise ValueError("m_sources must be a positive integer")


def scaling_b(params: GigpParams, m_sources: int) -> ScalingPair:
    """Source-axis scale B with its case label; A comes along for the ride."""
    validate(params)
    _check_m_sources(m_sources)
    nu, alpha, theta = params.nu, params.alpha, params.theta
    u = 1.0 - theta
    try:
        if nu > 0.0:
            label, b = "a", m_sources / math.gamma(nu)
        elif nu == 0.0:
            label, b = "b", m_sources / (-math.log(u))
        elif alpha > 0.0:
            label = "c"
            b = (m_sources * math.pow(0.5 * alpha, -2.0 * nu) * math.pow(u, -nu)
                 / math.gamma(-nu))
        else:
            label = "d"
            b = m_sources * (-nu) * math.pow(u, -nu) / math.gamma(nu + 1.0)
    except OverflowError:
        # Gamma(nu) past nu ~ 171.6, or (alpha/2)^(-2 nu) for a huge alpha
        raise ValueError("the scale B is out of floating-point range at "
                         "these parameters") from None
    return ScalingPair(scaling_a(theta), b, label)


def classify_regime(pair: ScalingPair) -> str:
    """'regular' when B >= 50 (_REGULAR_B), else 'chaotic'."""
    return "regular" if pair.b >= _REGULAR_B else "chaotic"


def _fluctuation(table: FrequencyTable, params: GigpParams, x, j):
    """(phi, Y-tilde, F-bar, Upsilon = sqrt(B/phi) (Y-tilde - M F-bar/B)) at x,
    Y and F-bar read at j = A x (the integer at a jump); Upsilon NaN where phi is 0."""
    b = scaling_b(params, table.M).b
    phi = upper_incomplete_gamma(params.nu, x)
    y_scaled = young_y(table, j) / b
    fbar = ccdf(params, j)
    ups = np.sqrt(b / np.where(phi > 0.0, phi, np.nan)) * (y_scaled - table.M * fbar / b)
    return phi, y_scaled, fbar, ups


def upsilon(table: FrequencyTable, params: GigpParams, x: float) -> float:
    """The fluctuation statistic sqrt(B/phi) (Y-tilde(x) - M F-bar(A x)/B),
    with M = table.M and (A, B) = scaling_b(params, M)."""
    if not x > 0.0:
        raise ValueError("x must be positive")
    phi, _, _, ups = _fluctuation(table, params, x, scaling_a(params.theta) * x)
    if phi <= 0.0:
        raise ValueError("phi_nu(x) underflowed; x is too deep in the tail")
    return float(ups)


def boundary_moments(params: GigpParams, m_sources: int, x: float,
                     x2: float | None = None) -> tuple[float, float, float]:
    """(mean, variance, covariance) of Y(x) (and Y(x2)) under the model.

    Y(x) is Binomial(M, F-bar(x)), and for x <= x2 the covariance of
    Y(x), Y(x2) is M F-bar(x2) (1 - F-bar(x)).
    """
    _check_m_sources(m_sources)
    if x2 is None:
        x2 = x
    if x2 < x:
        raise ValueError("x2 must be >= x")
    p1, p2 = ccdf(params, np.array([x, x2], dtype=float)).tolist()
    mean = m_sources * p1
    var = m_sources * p1 * (1.0 - p1)
    cov = m_sources * p2 * (1.0 - p1)
    return mean, var, cov


def limit_cov(nu: float, x: float, x2: float) -> float:
    """Limiting Cov(Upsilon(x), Upsilon(x2)) = sqrt(phi(x2)/phi(x)) for x <= x2."""
    if not 0.0 < x <= x2:
        raise ValueError("need 0 < x <= x2")
    phi1 = upper_incomplete_gamma(nu, x)
    phi2 = upper_incomplete_gamma(nu, x2)
    return math.sqrt(phi2 / phi1)


def tail_transform(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (x, y) -> (u, v) = (log x, log y + x); a straight line for
    the model tail. The logs are libm's, as the scalar kernels take them."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or not (np.all(x > 0.0) and np.all(y > 0.0)):
        raise ValueError("tail_transform needs equal-length 1-d arrays of positive coordinates")
    return _libm(math.log, x), _libm(math.log, y) + x


def sup_distance(table: FrequencyTable, params: GigpParams, delta: float) -> ShapeReport:
    """sup over x >= delta of |Y-tilde(x) - phi_nu(x)| on the exact jump grid.

    M = table.M, (A, B) = scaling_b(params, M) and nu = params.nu. Both
    one-sided limits of the step function enter at each jump, so the sup
    is exact, not a dense-grid approximation. The report also carries,
    per point, the fluctuation statistic and the mean squared deviation
    Var(Y-tilde) + bias^2, with the model mean M F-bar(j)/B read at the
    same integer j as Y(j). Every column is one whole-array pass.
    """
    _check_delta(delta, params.theta)
    pair = scaling_b(params, table.M)
    a, b, m = pair.a, pair.b, table.M
    support, suffix = table.support, table.suffix

    # the point x = delta, then each jump x_k = j/A >= delta (so j >= 1)
    # with Y at the jump (mass at j included) and its right limit
    jump_x = support / a
    k0 = int(np.searchsorted(jump_x, delta, side="left"))
    xs = np.concatenate(([delta], jump_x[k0:]))
    phi, y_scaled, fbar, ups = _fluctuation(
        table, params, xs, np.concatenate(([a * delta], support[k0:])))
    lower = np.concatenate(([y_scaled[0]], suffix[k0 + 1:] / b))
    dev = np.maximum(np.abs(y_scaled - phi), np.abs(lower - phi))
    sup = max(0.0, float(dev.max()))
    bias = m * fbar / b - phi
    msd = m * fbar * (1.0 - fbar) / (b * b) + bias * bias
    return ShapeReport(delta, sup, xs, y_scaled, phi, ups, msd)


def expected_shape_deviation(params: GigpParams, xs: Sequence[float]) -> float:
    """max over xs of |M F-bar(A x)/B - phi_nu(x)|; B/M does not depend on M."""
    pair = scaling_b(params, 1)
    xs = np.asarray(xs, dtype=float)
    mean_scaled = ccdf(params, pair.a * xs) / pair.b
    return float(np.max(np.abs(mean_scaled - upper_incomplete_gamma(params.nu, xs)),
                        initial=0.0))
