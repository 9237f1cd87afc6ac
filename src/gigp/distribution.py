"""The generalized inverse Gaussian-Poisson (GIGP) count distribution.

Parameters are (nu, alpha, theta) with nu >= -1, alpha >= 0 and
0 < theta < 1. For alpha > 0 the pmf is

    f_j = (1-theta)^(nu/2) / K_nu(alpha sqrt(1-theta))
          * (alpha theta / 2)^j / j! * K_(nu+j)(alpha)

and zero truncation divides the j >= 1 masses by 1 - f_0. At alpha = 0
the family degenerates: nu > 0 gives the negative binomial, nu = 0 the
Fisher log-series and -1 < nu < 0 an extended negative binomial, the
last two existing only in zero-truncated form. The corner nu = -1,
alpha = 0 is excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagram
from .specfun import bessel_k_ratio, log_bessel_k

_LOG_TAIL_EPS = math.log(1e-15)
_MAX_SUPPORT = 2_000_000
_J_WINDOW = 12  # forward steps that settle a crude Bessel ratio seed


@dataclass(frozen=True)
class GigpParams:
    nu: float
    alpha: float
    theta: float
    zero_truncated: bool = False


def validate(params: GigpParams) -> GigpParams:
    """Check the parameter domain and return the params unchanged."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    for name, value in (("nu", nu), ("alpha", alpha), ("theta", theta)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if nu < -1.0:
        raise ValueError("nu must be >= -1")
    if nu == -1.0 and alpha == 0.0:
        raise ValueError("the corner nu = -1, alpha = 0 is excluded")
    if alpha == 0.0 and nu <= 0.0 and not params.zero_truncated:
        raise ValueError("alpha = 0 with nu <= 0 exists only zero-truncated")
    return params


def _check_mean_domain(params: GigpParams) -> None:
    # like validate() but lets nu < -1 through when alpha > 0, so the
    # heavy-mixing diagnostics of the mean can be exercised
    nu, alpha, theta = params.nu, params.alpha, params.theta
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        validate(params)


class _Tables:
    """Cached pmf arrays for one parameter triple (post truncation)."""

    __slots__ = ("f", "logf", "sf", "cum", "jmax", "log_tail_const")

    def __init__(self, f, logf, sf, cum, jmax, log_tail_const):
        self.f = f
        self.logf = logf
        self.sf = sf
        self.cum = cum
        self.jmax = jmax
        self.log_tail_const = log_tail_const


_CACHE: dict[GigpParams, _Tables] = {}


def _log_trunc_norm(params: GigpParams) -> float:
    """log(1 - f_0) of the untruncated family, used to rescale under truncation."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    if alpha > 0.0:
        logf0 = (0.5 * nu * math.log1p(-theta)
                 + log_bessel_k(nu, alpha)
                 - log_bessel_k(nu, alpha * math.sqrt(1.0 - theta)))
        return math.log(-math.expm1(logf0))
    if nu > 0.0:
        return math.log(-math.expm1(nu * math.log1p(-theta)))
    if nu == 0.0:
        # log-series has no untruncated version; normalization handled directly
        return 0.0
    return math.log(-math.expm1(-nu * math.log1p(-theta)))


def _bessel_ratios(nu: float, alpha: float, j: np.ndarray) -> np.ndarray:
    """r_j = K_(nu+j+1)(alpha) / K_(nu+j)(alpha) at the consecutive orders j.

    The forward recurrence r_j = 2 (nu+j)/alpha + 1/r_(j-1) shrinks an
    error in r_(j-1) by 1/r_(j-1)^2 <= 1/64 once nu + j >= 4 alpha, so
    from _J_WINDOW steps past that order every r_j is reached, bit for bit
    as the sequential loop gives it, from the crude seed 2 (nu+j-12)/alpha
    at j - 12: one whole-array pass per window step. Below it the scalar
    loop runs from r_0.
    """
    r = np.empty_like(j)
    lo, hi = int(j[0]), int(j[-1]) + 1
    j_star = max(math.ceil(4.0 * alpha - nu) + _J_WINDOW, lo)
    if lo < j_star:
        ratio = bessel_k_ratio(nu, alpha)
        head = [ratio]
        for k in range(1, min(hi, j_star)):
            ratio = 2.0 * (nu + k) / alpha + 1.0 / ratio
            head.append(ratio)
        r[:len(head) - lo] = head[lo:]
    tail, jt = r[j_star - lo:], j[j_star - lo:]
    if tail.size:
        step = np.empty_like(jt)
        np.subtract(jt, _J_WINDOW - nu, out=tail)
        tail *= 2.0 / alpha
        for k in range(_J_WINDOW - 1, -1, -1):
            np.subtract(jt, k, out=step)
            step += nu
            step *= 2.0
            step /= alpha
            np.reciprocal(tail, out=tail)
            tail += step
    return r


def _log_steps(nu: float, alpha: float, lo: int, hi: int) -> np.ndarray:
    """s_j = log(f_(j+1) / (theta f_j)) for lo <= j < hi.

    This is the O(1/j) part of each log-pmf step: log((nu+j)/(j+1)) at
    alpha = 0, log(alpha r_j / (2 (j+1))) with the Bessel ratio r_j
    otherwise. Summing only these keeps the running sum small; the
    linear j log(theta) part is added per index.
    """
    j = np.arange(lo, hi, dtype=float)
    if alpha > 0.0:
        s = _bessel_ratios(nu, alpha, j)
        s *= 0.5 * alpha
    else:
        s = j + nu
    j += 1.0
    s /= j
    return np.log(s, out=s)


def _first_cut(logf: np.ndarray, j_first: int, cut_from: int, log_tail_const: float,
               nu: float, theta: float) -> int | None:
    """First j >= cut_from in this stretch (logf[k] is at j = j_first + k) with
    log f_j < -40 and a tail asymptote below 1e-15, or None."""
    k0 = max(cut_from - j_first, 0)
    cand = np.flatnonzero(logf[k0:] < -40.0)
    if cand.size == 0:
        return None
    j = cand + (j_first + k0)
    log_tail = (log_tail_const + (nu - 1.0) * np.log(j)
                + j * math.log(theta) - math.log1p(-theta))
    hit = np.flatnonzero(log_tail < _LOG_TAIL_EPS)
    return int(j[hit[0]]) if hit.size else None


def _build_tables(params: GigpParams, need_j: int) -> _Tables:
    nu, alpha, theta = params.nu, params.alpha, params.theta
    log_theta = math.log(theta)

    # each family's first supported index j0, log f_(j0) and tail constant
    if alpha > 0.0:
        logk_small = log_bessel_k(nu, alpha * math.sqrt(1.0 - theta))
        j0 = 0
        log_f0 = 0.5 * nu * math.log1p(-theta) + log_bessel_k(nu, alpha) - logk_small
        log_tail_const = (0.5 * nu * math.log1p(-theta)
                          - nu * math.log(0.5 * alpha)
                          - math.log(2.0) - logk_small)
    elif nu > 0.0:
        log_norm = _log_trunc_norm(params) if params.zero_truncated else 0.0
        log_tail_const = nu * math.log1p(-theta) - math.lgamma(nu) - log_norm
        if params.zero_truncated:
            j0 = 1
            log_f0 = math.log(nu) + nu * math.log1p(-theta) + log_theta - log_norm
        else:
            j0 = 0
            log_f0 = nu * math.log1p(-theta)
    elif nu == 0.0:
        log_l = math.log(-math.log1p(-theta))
        j0, log_f0, log_tail_const = 1, log_theta - log_l, -log_l
    else:
        log_norm = _log_trunc_norm(params)
        log_tail_const = math.log(-nu) - math.lgamma(nu + 1.0) - log_norm
        j0, log_f0 = 1, math.log(-nu) + log_theta - log_norm

    # log f_j = log f_(j0) + (j - j0) log(theta) + sum_(j0 <= i < j) s_i, in
    # stretches that double until the cut rule fires
    parts = [np.full(j0 + 1, -math.inf)]
    parts[0][j0] = log_f0
    cut_from = max(16, need_j)
    lo, acc = j0, 0.0
    while True:
        hi = min(max(2 * lo, 1024), _MAX_SUPPORT)
        logf = _log_steps(nu, alpha, lo, hi)
        logf[0] += acc
        np.cumsum(logf, out=logf)
        acc = float(logf[-1])
        # logf[k] is log f_j at j = lo + 1 + k
        lin = np.arange(lo + 1 - j0, hi + 1 - j0, dtype=float)
        lin *= log_theta
        lin += log_f0
        logf += lin
        cut = _first_cut(logf, lo + 1, cut_from, log_tail_const, nu, theta)
        if cut is not None:
            parts.append(logf[:cut - lo])
            break
        parts.append(logf)
        if hi >= _MAX_SUPPORT:
            raise RuntimeError("pmf support cutoff not reached")
        lo = hi
    logf = np.concatenate(parts)
    del parts
    if alpha > 0.0 and params.zero_truncated:
        log_norm = math.log(-math.expm1(logf[0]))
        logf -= log_norm
        logf[0] = -math.inf
        log_tail_const -= log_norm

    with np.errstate(under="ignore"):
        f = np.exp(logf)
    # the mass past the cut, summed as a geometric series with the last
    # step's ratio r = f_J / f_(J-1): T = f_J r / (1 - r)
    r = f[-1] / f[-2] if 0.0 < f[-1] < f[-2] else 0.0
    tail = f[-1] * r / (1.0 - r)
    # suffix sums accumulate smallest terms first, then take T; P(X >= 0)
    # = 1 exactly, and past the table the ccdf reads 0
    sf = np.empty(len(f) + 1)
    sf[-1] = 0.0
    np.cumsum(f[::-1], out=sf[-2::-1])
    sf[1:-1] += tail
    sf[0] = 1.0
    cum = np.cumsum(f)
    return _Tables(f, logf, sf, cum, len(f) - 1, log_tail_const)


def _tables(params: GigpParams, need_j: int = 0) -> _Tables:
    cached = _CACHE.get(params)
    if cached is not None and cached.jmax >= need_j:
        return cached
    built = _build_tables(params, need_j)
    if len(_CACHE) > 64:
        _CACHE.clear()
    _CACHE[params] = built
    return built


def _pmf_index(params: GigpParams, j) -> tuple[_Tables, np.ndarray]:
    """The pmf table for params and j as indices into it, after the
    argument check that pmf and log_pmf share."""
    validate(params)
    js = np.asarray(j)
    if js.dtype.kind == "f":
        ok = np.all(np.isfinite(js) & (js == np.floor(js)) & (js >= 0))
    else:
        ok = js.dtype.kind in "iu" and np.all(js >= 0)
    if not ok:
        raise ValueError("j must be a nonnegative integer")
    if params.zero_truncated and np.any(js == 0):
        raise ValueError("j = 0 has no mass under zero truncation")
    t = _tables(params, int(js.max(initial=0)))
    return t, js.astype(np.intp)


def pmf(params: GigpParams, j):
    """P(X = j) for an integer j, or an array of them from one table lookup."""
    t, idx = _pmf_index(params, j)
    out = t.f[idx]
    return float(out) if out.ndim == 0 else out


def log_pmf(params: GigpParams, j):
    """log P(X = j), finite for every j in the support; j as in pmf."""
    t, idx = _pmf_index(params, j)
    out = t.logf[idx]
    return float(out) if out.ndim == 0 else out


def ccdf(params: GigpParams, x):
    """Upper tail F-bar(x) = P(X >= x) = 1 - sum_{j < x} f_j.

    x is a number, which gives a float, or an array of them, which gives
    an array of the same shape from one table lookup.
    """
    validate(params)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    t = _tables(params)
    j = np.clip(np.ceil(xs), 0, t.jmax + 1).astype(np.intp)
    out = t.sf[j]
    return float(out) if out.ndim == 0 else out


def cdf(params: GigpParams, x: float) -> float:
    """Strict lower tail F(x) = P(X < x), the complement of ccdf."""
    return 1.0 - ccdf(params, x)


def mean_exact(params: GigpParams) -> float:
    """E[X], or the zero-truncated mean when the params say so.

    Unlike validate(), nu < -1 is allowed here when alpha > 0 so that
    the saturation of the mean under heavy mixing can be inspected.
    """
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    if alpha > 0.0:
        root = math.sqrt(1.0 - theta)
        eta = 0.5 * alpha * theta / root * bessel_k_ratio(nu, alpha * root)
        if params.zero_truncated:
            eta /= math.exp(_log_trunc_norm(params))
        return eta
    if nu > 0.0:
        eta = nu * theta / (1.0 - theta)
        if params.zero_truncated:
            eta /= math.exp(_log_trunc_norm(params))
        return eta
    if nu == 0.0:
        return theta / ((1.0 - theta) * (-math.log1p(-theta)))
    return (-nu) * theta * math.pow(1.0 - theta, -nu - 1.0) / math.exp(_log_trunc_norm(params))


def mean_asymptotic(params: GigpParams) -> float:
    """Leading term of the mean as theta -> 1, by the five regimes of nu."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    u = 1.0 - theta
    if nu > 0.0:
        return nu / u
    if nu == 0.0:
        return 1.0 / (u * (-math.log(u)))
    if nu > -1.0:
        if alpha == 0.0:
            return (-nu) * math.pow(u, -nu - 1.0)
        return (math.gamma(nu + 1.0) * math.pow(0.5 * alpha, -2.0 * nu)
                / (math.gamma(-nu) * math.pow(u, nu + 1.0)))
    if nu == -1.0:
        return (0.5 * alpha) ** 2 * (-math.log(u))
    return (0.5 * alpha) ** 2 / (-nu - 1.0)


def _theta_seed(nu: float, alpha: float, eta: float) -> float:
    """Closed-form inverse of the asymptotic mean; returns u = 1 - theta."""
    if nu > 0.0:
        return nu / eta
    if nu == 0.0:
        return 1.0 / (eta * math.log(eta)) if eta > 2.0 else 0.5
    if nu > -1.0:
        if alpha == 0.0:
            return math.pow((-nu) / eta, 1.0 / (nu + 1.0))
        c = math.gamma(nu + 1.0) * math.pow(0.5 * alpha, -2.0 * nu) / math.gamma(-nu)
        return math.pow(c / eta, 1.0 / (nu + 1.0))
    return math.exp(-4.0 * eta / (alpha * alpha))


def resolve_truncation(nu: float, alpha: float, zero_truncated: bool | None) -> bool:
    """zero_truncated, or when it is None the default: truncated exactly for
    the alpha = 0 families with nu <= 0, which exist only zero-truncated."""
    if zero_truncated is None:
        return alpha == 0.0 and nu <= 0.0
    return zero_truncated


def theta_from_mean(nu: float, alpha: float, eta_target: float,
                    zero_truncated: bool | None = None) -> float:
    """Solve mean_exact = eta_target for theta at fixed nu, alpha.

    Bisection on u = 1 - theta, seeded by the closed-form asymptotic
    inverse. zero_truncated = None leaves it to resolve_truncation.
    """
    if not (math.isfinite(eta_target) and eta_target > 0.0):
        raise ValueError("eta_target must be positive and finite")
    if nu < -1.0 or alpha < 0.0 or (nu == -1.0 and alpha == 0.0):
        raise ValueError("invalid (nu, alpha)")
    zero_truncated = resolve_truncation(nu, alpha, zero_truncated)
    if alpha == 0.0 and nu <= 0.0 and not zero_truncated:
        raise ValueError("alpha = 0 with nu <= 0 exists only zero-truncated")
    if zero_truncated and eta_target <= 1.0:
        raise ValueError("a zero-truncated mean is always > 1")

    def mean_at(u: float) -> float:
        return mean_exact(GigpParams(nu, alpha, 1.0 - u, zero_truncated))

    u_min, u_max = 1e-14, 1.0 - 1e-14
    lo = min(max(_theta_seed(nu, alpha, eta_target), u_min), u_max)
    hi = lo
    # mean is decreasing in u; expand until the target is bracketed
    for _ in range(40):
        if mean_at(lo) >= eta_target:
            break
        lo = max(lo * 0.01, u_min)
        if lo == u_min and mean_at(lo) < eta_target:
            raise ValueError("eta_target too large to invert")
    for _ in range(40):
        if mean_at(hi) <= eta_target:
            break
        hi = min(hi * 100.0, u_max)
        if hi == u_max and mean_at(hi) > eta_target:
            raise ValueError("eta_target below the reachable range")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        value = mean_at(mid)
        if abs(value - eta_target) <= 1e-9 * eta_target:
            return 1.0 - mid
        if value > eta_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * hi:
            mid = math.sqrt(lo * hi)
            if abs(mean_at(mid) - eta_target) <= 1e-8 * eta_target:
                return 1.0 - mid
            raise RuntimeError("theta_from_mean bisection did not converge")
    raise RuntimeError("theta_from_mean bisection did not converge")


def gig_density(params: GigpParams, lam: float) -> float:
    """Mixing density of the Poisson rate; gamma density in the alpha = 0 limit."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive")
    if alpha == 0.0:
        if nu <= 0.0:
            raise ValueError("the alpha = 0 mixing density needs nu > 0")
        rate = (1.0 - theta) / theta
        logg = (nu * math.log(rate) + (nu - 1.0) * math.log(lam)
                - rate * lam - math.lgamma(nu))
        return math.exp(logg)
    root = math.sqrt(1.0 - theta)
    logg = (nu * math.log(2.0 * root / (alpha * theta)) - math.log(2.0)
            - log_bessel_k(nu, alpha * root)
            + (nu - 1.0) * math.log(lam)
            - (1.0 - theta) * lam / theta
            - alpha * alpha * theta / (4.0 * lam))
    return math.exp(logg) if logg > -745.0 else 0.0


def tail_pmf_asymptotic(params: GigpParams, j: int) -> float:
    """Leading tail term c j^(nu-1) theta^j with the family constant c."""
    validate(params)
    if int(j) != j or j < 1:
        raise ValueError("j must be a positive integer")
    t = _tables(params)
    logv = t.log_tail_const + (params.nu - 1.0) * math.log(j) + j * math.log(params.theta)
    return math.exp(logv) if logv > -745.0 else 0.0


def _gig_rvs(rng: np.random.Generator, p: float, a: float, b: float,
             size: int) -> np.ndarray:
    """GIG(p, a, b) variates, density ~ x^(p-1) exp(-(a x + b / x) / 2).

    Devroye's rejection scheme for the two-parameter version, with the
    accept loop vectorized; a, b > 0.
    """
    lam = abs(p)
    swap = p < 0
    omega = math.sqrt(a * b)
    alpha_d = math.sqrt(omega * omega + lam * lam) - lam

    def psi(x):
        return -alpha_d * (np.cosh(x) - 1.0) - lam * (np.exp(x) - x - 1.0)

    def dpsi(x):
        return -alpha_d * math.sinh(x) - lam * (math.exp(x) - 1.0)

    x = -float(psi(1.0))
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha_d + lam))
    else:
        t = math.log(4.0 / (alpha_d + 2.0 * lam))
    x = -float(psi(-1.0))
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = math.sqrt(4.0 / (alpha_d * math.cosh(1.0) + lam))
    elif alpha_d == 0.0:
        s = 1.0 / lam
    elif lam == 0.0:
        s = math.log(1.0 + 1.0 / alpha_d + math.sqrt(1.0 / alpha_d ** 2 + 2.0 / alpha_d))
    else:
        s = min(1.0 / lam,
                math.log(1.0 + 1.0 / alpha_d + math.sqrt(1.0 / alpha_d ** 2 + 2.0 / alpha_d)))

    eta = -float(psi(t))
    zeta = -dpsi(t)
    theta_d = -float(psi(-s))
    xi = dpsi(-s)
    pp = 1.0 / xi
    rr = 1.0 / zeta
    td = t - rr * eta
    sd = s - pp * theta_d
    q = td + sd
    total = pp + q + rr

    out = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        u, v, w = rng.random((3, pending.size))
        cand = np.where(u < q / total, -sd + q * v,
                        np.where(u < (q + rr) / total,
                                 td - rr * np.log(v),
                                 -sd + pp * np.log(v)))
        f1 = np.exp(-eta - zeta * (cand - t))
        f2 = np.exp(-theta_d + xi * (cand + s))
        envelope = np.where((cand >= -sd) & (cand <= td), 1.0,
                            np.where(cand > td, f1, f2))
        accept = w * envelope <= np.exp(psi(cand))
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]

    y = np.exp(out) * (lam / omega + math.sqrt(1.0 + (lam / omega) ** 2))
    if swap:
        y = 1.0 / y
    return y / math.sqrt(a / b)


def _sample_values_rng(params: GigpParams, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    nu, alpha, theta = params.nu, params.alpha, params.theta
    if alpha == 0.0:
        t = _tables(params)
        u = rng.random(count)
        return np.minimum(np.searchsorted(t.cum, u, side="right"), t.jmax)
    a = 2.0 * (1.0 - theta) / theta
    b = 0.5 * alpha * alpha * theta
    lam = _gig_rvs(rng, nu, a, b, count)
    values = rng.poisson(lam)
    if params.zero_truncated:
        # condition on X >= 1 by redrawing the (lambda, X) pairs that hit zero
        pending = np.flatnonzero(values == 0)
        while pending.size:
            lam = _gig_rvs(rng, nu, a, b, pending.size)
            redraw = rng.poisson(lam)
            values[pending] = redraw
            pending = pending[redraw == 0]
    return values


def sample_values(params: GigpParams, seed, count: int) -> np.ndarray:
    """count iid draws as a flat integer array."""
    validate(params)
    if count < 1 or int(count) != count:
        raise ValueError("count must be a positive integer")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _sample_values_rng(params, rng, int(count))


def sample(params: GigpParams, seed, count: int) -> "diagram.FrequencyTable":
    """count iid draws aggregated into a frequency table."""
    return diagram.table_from_sample(sample_values(params, seed, count))
