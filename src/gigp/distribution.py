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

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import diagram
from .specfun import bessel_k_ratio, log_bessel_k

_LOG_TAIL_EPS = math.log(1e-15)
_MAX_SUPPORT = 2_000_000
_MAX_STRETCH = 65_536  # the table is built this many entries at a time, at most
_J_WINDOW = 12  # forward steps that settle a crude Bessel ratio seed
# a GIG rejection round draws need // 4 + 8 spare candidates beyond the
# need values still missing
_GIG_SPARE_DIV, _GIG_SPARE_MIN = 4, 8


@dataclass(frozen=True)
class GigpParams:
    nu: float
    alpha: float
    theta: float
    zero_truncated: bool = False

    def __post_init__(self):
        # reals of any type (numpy scalars, say) become floats; validate rejects the rest
        for name in ("nu", "alpha", "theta"):
            if isinstance(getattr(self, name), numbers.Real):
                object.__setattr__(self, name, float(getattr(self, name)))


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
    """validate(), with the nu >= -1 floor lifted when alpha > 0, so the
    heavy-mixing diagnostics of the mean can be exercised."""
    if params.alpha > 0.0 and -math.inf < params.nu < -1.0:
        params = replace(params, nu=-1.0)
    validate(params)


class _Tables:
    """The pmf table for one parameter triple (post truncation), read only
    through ccdf, log_f and draw. Its arrays are fixed when built: sf and
    cum run to the cut jmax that the params fix, cum ends in +inf, and
    log_f_cut is log f_jmax. log f is not kept: a read makes the span of it
    that it needs again, bit for bit the values the build took exp of, from
    the stretch that holds the span's first index on, and keeps only the
    running sum at each stretch start it reaches (one float a stretch)."""

    __slots__ = ("sf", "cum", "jmax", "log_f_cut", "log_theta", "_span")

    def __init__(self, sf, cum, log_f_cut, log_theta, span):
        self.sf = sf
        self.cum = cum
        self.jmax = len(cum) - 1
        self.log_f_cut = log_f_cut
        self.log_theta = log_theta
        self._span = span  # _span(lo, end): log f_lo, ..., log f_end, up to the cap

    def ccdf(self, j: np.ndarray) -> np.ndarray:
        """P(X >= j) at a flat array of whole numbers j >= 0; see ccdf()."""
        out = self.sf[np.minimum(j, self.jmax + 1).astype(np.intp)]
        span = -16.0 / self.log_theta
        step = math.ceil(span)
        # past the cut f_j falls ~theta a step, so from where f at x + 16 A
        # underflows, and from the cap on, ccdf reads 0
        stop = min(self.jmax - span + (745.0 + self.log_f_cut) / -self.log_theta, _MAX_SUPPORT)
        near = np.flatnonzero((j > self.jmax - span) & (j < stop))
        ends = np.minimum(self.jmax + np.ceil((j[near] + span - self.jmax) / step) * step,
                          _MAX_SUPPORT)
        # one suffix-sum pass per grid end (np.unique would import numpy.ma, ~1 MB)
        for end in set(ends.astype(int).tolist()):
            at = near[ends == end]
            lo = int(j[at].min())
            with np.errstate(under="ignore"):
                f = np.exp(self._span(lo, end))
            out[at] = _suffix_sums(f)[j[at].astype(np.intp) - lo]
        return out

    def log_f(self, js: np.ndarray) -> np.ndarray:
        """log f at an integer array js >= 0, from one span over its range;
        past the support cap it raises."""
        end = int(js.max(initial=0))
        lo = int(js.min(initial=end))
        return self._span(lo, end)[js - lo]

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The inverse cdf at uniforms u in [0, 1): cum[jmax] = +inf, so no
        u maps past jmax. The ndarray method skips np.searchsorted's
        dispatch, ~2 us a call."""
        return self.cum.searchsorted(u, side="right")


# per params, its table or its build's error, so a failed build is not tried again
_CACHE: dict[GigpParams, _Tables | RuntimeError] = {}


def _bessel_ratios(nu: float, alpha: float, j: np.ndarray) -> np.ndarray:
    """r_j = K_(nu+j+1)(alpha) / K_(nu+j)(alpha) at the consecutive orders j.

    The forward recurrence r_j = 2 (nu+j)/alpha + 1/r_(j-1) shrinks an
    error in r_(j-1) by 1/r_(j-1)^2, and r_(j-1) > 2 (nu+j-1)/alpha. So
    from _J_WINDOW steps past the order where nu + j >= 4 alpha, every r_j
    is reached, bit for bit as the sequential loop gives it, from the crude
    seed 2 (nu+j-w)/alpha at j - w, one whole-array pass per step. The
    window w is sized by the stretch's first order j_1: with
    r_min = 2 (nu+j_1-_J_WINDOW)/alpha, w = ceil(36 ln 2 / ln r_min) steps,
    between 2 and _J_WINDOW, shrink the seed's error by at least 2^-72,
    as _J_WINDOW steps at r_min = 8 do. Below that order the scalar loop
    runs from r_0.
    """
    r = np.empty_like(j)
    lo, hi = int(j[0]), int(j[-1]) + 1
    j_first = math.ceil(4.0 * alpha - nu)
    if nu + j_first <= 0.0:
        # 4 alpha - nu rounded to the integer -nu, where the order is 0, not 4 alpha
        j_first += 1
    j_star = max(j_first + _J_WINDOW, lo)
    if lo < j_star:
        ratio = bessel_k_ratio(nu, alpha)
        head = [ratio]
        for k in range(1, min(hi, j_star)):
            ratio = 2.0 * (nu + k) / alpha + 1.0 / ratio
            head.append(ratio)
        r[:len(head) - lo] = head[lo:]
    tail, jt = r[j_star - lo:], j[j_star - lo:]
    if tail.size:
        r_min = 2.0 * (nu + float(jt[0]) - _J_WINDOW) / alpha
        w = min(_J_WINDOW, max(2, math.ceil(36.0 * math.log(2.0) / math.log(r_min))))
        step = np.empty_like(jt)
        np.subtract(jt, w - nu, out=tail)
        tail *= 2.0 / alpha
        for k in range(w - 1, -1, -1):
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


def _log_tail(j: np.ndarray, log_tail_const: float, nu: float, theta: float) -> np.ndarray:
    """log of the tail asymptote sum_(i >= j) c i^(nu-1) theta^i ~ c j^(nu-1) theta^j
    / (1 - theta) at the integers j: convex and decreasing in j for nu <= 1,
    concave for nu > 1."""
    return (log_tail_const + (nu - 1.0) * np.log(j)
            + j * math.log(theta) - math.log1p(-theta))


def _family_head(params: GigpParams) -> tuple[int, float, float, float]:
    """Each family's first supported index j0, log f_(j0) and log c of the tail
    asymptote f_j ~ c j^(nu-1) theta^j, all before zero truncation, and the
    log(1 - f_0) that truncation divides the pmf by (log L, L = -log(1 - theta),
    for the log-series f_j = theta^j / (j L)); 0 for an untruncated model."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    log_theta, log1m = math.log(theta), math.log1p(-theta)
    if alpha > 0.0:
        logk_small = log_bessel_k(nu, alpha * math.sqrt(1.0 - theta))
        log_p0 = 0.5 * nu * log1m + log_bessel_k(nu, alpha) - logk_small
        head = (0, log_p0, 0.5 * nu * log1m - nu * math.log(0.5 * alpha)
                - math.log(2.0) - logk_small)
    elif nu == 0.0:
        return 1, log_theta, 0.0, math.log(-log1m)
    elif nu > 0.0:
        log_p0 = nu * log1m
        log_c = log_p0 - math.lgamma(nu)
        head = ((1, math.log(nu) + log_p0 + log_theta, log_c) if params.zero_truncated
                else (0, log_p0, log_c))
    else:
        log_p0 = -nu * log1m
        head = 1, math.log(-nu) + log_theta, math.log(-nu) - math.lgamma(nu + 1.0)
    return (*head, math.log(-math.expm1(log_p0)) if params.zero_truncated else 0.0)


def _stretches(nu: float, alpha: float, log_theta: float, j0: int, log_f0: float,
               marks: dict[int, float], lo: int):
    """Yield (lo, stretch) from the stretch that starts at lo: stretch[k] is
    log f_j = log f_(j0) + (j - j0) log(theta) + sum_(j0 <= i < j) s_i at
    j = lo + 1 + k. marks maps the lo of each stretch reached to the sum at
    its start, from marks = {j0: 0} on, and gains the next stretch's before
    a stretch is yielded. Stretches double up to _MAX_STRETCH entries and
    end at the cap; a run from any mark gives the same values bit for bit."""
    acc = marks[lo]
    while lo < _MAX_SUPPORT:
        hi = min(max(2 * lo, 1024), lo + _MAX_STRETCH, _MAX_SUPPORT)
        stretch = _log_steps(nu, alpha, lo, hi)
        stretch[0] += acc
        np.cumsum(stretch, out=stretch)
        marks[hi] = float(stretch[-1])
        lin = np.arange(lo + 1 - j0, hi + 1 - j0, dtype=float)
        lin *= log_theta
        lin += log_f0
        stretch += lin
        del lin
        yield lo, stretch
        lo, acc = hi, marks[hi]


def _suffix_sums(f: np.ndarray) -> np.ndarray:
    """sum_(i >= k) f_i plus the mass past the last f, at each k, then a 0.
    The sums accumulate smallest terms first, then take the mass past the end,
    a geometric series with the last step's ratio r = f_J / f_(J-1)."""
    r = f[-1] / f[-2] if 0.0 < f[-1] < f[-2] else 0.0
    tail = f[-1] * r / (1.0 - r)
    sf = np.empty(len(f) + 1)
    sf[-1] = 0.0
    np.cumsum(f[::-1], out=sf[-2::-1])
    sf[:-1] += tail
    return sf


def _build_tables(params: GigpParams) -> _Tables:
    nu, alpha, theta = params.nu, params.alpha, params.theta
    log_theta = math.log(theta)
    j0, log_f0, log_tail_const, log_norm = _family_head(params)
    # zero truncation divides every mass by 1 - f_0: the head and the tail
    # constant take it, so the stretches and the cut test read the table's masses
    log_f0 -= log_norm
    log_tail_const -= log_norm

    # the cut is the first j >= cut_from with log f_j < -40 and the tail
    # asymptote below 1e-15. For nu > 1 the asymptote rises up to the mass
    # at j = (nu - 1) A, A = -1 / log(theta), so the search starts there. Give
    # up before building when no j up to the cap can have it: the asymptote
    # is decreasing (nu <= 1) or concave (nu > 1) in j, so its least value
    # on [cut_from, cap] is at an end
    cut_from = max(16, math.ceil(min((1.0 - nu) / log_theta, _MAX_SUPPORT + 1.0)))
    ends = np.array([cut_from, _MAX_SUPPORT])
    if (cut_from > _MAX_SUPPORT
            or _log_tail(ends, log_tail_const, nu, theta).min() >= _LOG_TAIL_EPS):
        raise RuntimeError("pmf support cutoff not reached")

    # log f_j for j <= j0; zero truncation leaves f_0 no mass
    head = np.full(j0 + 1, -math.inf)
    head[j0] = log_f0
    if params.zero_truncated:
        head[0] = -math.inf

    # the sum at the start of each stretch a pass has reached, so a later pass
    # starts at the stretch it reads
    marks = {j0: 0.0}

    def span(lo, end):
        # the head, then the stretches from the last mark below lo; no stretch
        # below lo is held
        if end > _MAX_SUPPORT:
            raise RuntimeError("pmf support cutoff not reached")
        pieces = [head[lo:end + 1]]
        if end > j0:
            start = max(k for k in marks if k < max(lo, j0 + 1))
            for first, stretch in _stretches(nu, alpha, log_theta, j0, log_f0, marks, start):
                last = first + len(stretch)
                if last >= lo:
                    pieces.append(stretch[max(lo - first - 1, 0):end - first])
                if last >= end:
                    break
        return np.concatenate(pieces)

    # each stretch is tested for the cut, then turned into f in its own buffer,
    # and the f pieces are joined once at the cut: the build holds at most f
    # and one more column
    with np.errstate(under="ignore"):
        pieces = [np.exp(head)]
        for lo, stretch in _stretches(nu, alpha, log_theta, j0, log_f0, marks, j0):
            k0 = max(cut_from - lo - 1, 0)
            j = np.flatnonzero(stretch[k0:] < -40.0) + (lo + 1 + k0)
            hit = np.flatnonzero(_log_tail(j, log_tail_const, nu, theta) < _LOG_TAIL_EPS)
            if hit.size:
                stretch = stretch[:j[hit[0]] - lo]
            log_f_cut = float(stretch[-1])
            pieces.append(np.exp(stretch, out=stretch))
            if hit.size:
                break
        else:
            raise RuntimeError("pmf support cutoff not reached")
    # the cut test's indices go before f is joined, its pieces after
    del j
    f = np.concatenate(pieces)
    del pieces, stretch
    # P(X >= 0) = 1 exactly, and past the table the ccdf reads 0
    sf = _suffix_sums(f)
    sf[0] = 1.0
    # cum is accumulated in f's own buffer
    cum = np.cumsum(f, out=f)
    cum[-1] = math.inf
    return _Tables(sf, cum, log_f_cut, log_theta, span)


def _tables(params: GigpParams) -> _Tables:
    cached = _CACHE.get(params)
    if cached is None:
        try:
            cached = _build_tables(params)
        except RuntimeError as exc:
            cached = exc
        if len(_CACHE) > 64:
            _CACHE.clear()
        _CACHE[params] = cached
    if isinstance(cached, RuntimeError):
        raise RuntimeError(*cached.args)
    return cached


def pmf(params: GigpParams, j):
    """P(X = j) = exp(log P(X = j)), for j as in log_pmf."""
    with np.errstate(under="ignore"):
        out = np.exp(log_pmf(params, j))
    return float(out) if out.ndim == 0 else out


def log_pmf(params: GigpParams, j):
    """log P(X = j), finite for every j in the support, for an integer j or
    an array of them from one table read. The table makes log f again over
    the range of j read, past its cut too, and past the support cap it
    raises."""
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
    out = _tables(params).log_f(js.astype(np.intp))
    return float(out) if out.ndim == 0 else out


def ccdf(params: GigpParams, x):
    """Upper tail F-bar(x) = P(X >= x) = 1 - sum_{j < x} f_j.

    x is a number, which gives a float, or an array of them, which gives an
    array of the same shape; a value depends only on params and x. Where
    x + 16 A <= jmax it is the table's suffix sum. Nearer the cut or past it,
    it sums the pmf from x to the first end jmax + k ceil(16 A), k >= 1, at
    or past x + 16 A, and adds the geometric tail past that end (~e^-16 of
    the value). From the support cap on, and where f_j underflows, it is 0.
    """
    validate(params)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    j = np.maximum(np.ceil(xs), 0.0).ravel()
    out = _tables(params).ccdf(j).reshape(xs.shape)
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
    elif nu > 0.0:
        eta = nu * theta / (1.0 - theta)
    elif nu == 0.0:
        return theta / ((1.0 - theta) * (-math.log1p(-theta)))
    else:
        eta = (-nu) * theta * math.pow(1.0 - theta, -nu - 1.0)
    if params.zero_truncated:
        eta /= math.exp(_family_head(params)[3])
    return eta


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
        try:
            return math.pow(c / eta, 1.0 / (nu + 1.0))
        except OverflowError:
            # the exponent grows without bound as nu -> -1; theta_from_mean
            # clamps an infinite seed to its largest u
            return math.inf
    # where alpha^2 underflows the seed is its limit 0, which theta_from_mean
    # clamps to its smallest u
    alpha2 = alpha * alpha
    return math.exp(-4.0 * eta / alpha2) if alpha2 else 0.0


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
    zero_truncated = resolve_truncation(nu, alpha, zero_truncated)
    # the model, at a stand-in theta; its nu and alpha come back as floats
    model = validate(GigpParams(nu, alpha, 0.5, zero_truncated))
    if not (math.isfinite(eta_target) and eta_target > 0.0):
        raise ValueError("eta_target must be positive and finite")
    nu, alpha, eta_target = model.nu, model.alpha, float(eta_target)
    if zero_truncated and eta_target <= 1.0:
        raise ValueError("a zero-truncated mean is always > 1")

    def mean_at(u: float) -> float:
        return mean_exact(GigpParams(nu, alpha, 1.0 - u, zero_truncated))

    u_min, u_max = 1e-14, 1.0 - 1e-14
    lo = hi = min(max(_theta_seed(nu, alpha, eta_target), u_min), u_max)
    # mean is decreasing in u; expand until the target is bracketed
    while mean_at(lo) < eta_target:
        if lo == u_min:
            raise ValueError("eta_target too large to invert")
        lo = max(lo * 0.01, u_min)
    while mean_at(hi) > eta_target:
        if hi == u_max:
            raise ValueError("eta_target below the reachable range")
        hi = min(hi * 100.0, u_max)
    # each step either returns or narrows [lo, hi] to fewer doubles, so it ends
    while True:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            # no step can move the bracket, and between adjacent doubles of u
            # (or of theta = 1 - u) the mean may step by more than the
            # tolerance: take the end whose mean is nearer
            return 1.0 - min(lo, hi, key=lambda u: abs(mean_at(u) - eta_target))
        value = mean_at(mid)
        if abs(value - eta_target) <= 1e-9 * eta_target:
            return 1.0 - mid
        if value > eta_target:
            lo = mid
        else:
            hi = mid


def gig_density(params: GigpParams, lam: float) -> float:
    """GIG mixing density of the Poisson rate, c the untruncated pmf tail constant: log g(lam)
    = log c - nu log theta + (nu-1) log lam - (1-theta) lam/theta - alpha^2 theta/(4 lam)."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    _check_mean_domain(params)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive")
    if alpha == 0.0 and nu <= 0.0:
        raise ValueError("the alpha = 0 mixing density needs nu > 0")
    logg = (_family_head(replace(params, zero_truncated=False))[2] - nu * math.log(theta)
            + (nu - 1.0) * math.log(lam) - (1.0 - theta) * lam / theta
            - alpha * alpha * theta / (4.0 * lam))
    return math.exp(logg) if logg > -745.0 else 0.0


def tail_pmf_asymptotic(params: GigpParams, j: int) -> float:
    """Leading tail term c j^(nu-1) theta^j with the family constant c."""
    validate(params)
    if int(j) != j or j < 1:
        raise ValueError("j must be a positive integer")
    _, _, log_c, log_norm = _family_head(params)
    logv = log_c - log_norm + (params.nu - 1.0) * math.log(j) + j * math.log(params.theta)
    return math.exp(logv) if logv > -745.0 else 0.0


@functools.lru_cache(maxsize=64)
def _gig_envelope(p: float, a: float, b: float) -> tuple[float, ...]:
    """Devroye's envelope for GIG(p, a, b), set up once per triple.

    Returns (lam, alpha_d, q, td, sd, rr, pp, u_mid, u_right, sign, scale).
    The candidate x is -sd + q v on the flat middle piece [-sd, td] when
    u < u_mid, td - rr log v on the right tail when u < u_right, and
    -sd + pp log v on the left tail; an accepted x maps to the variate
    exp(sign x) scale.
    """
    lam = abs(p)
    omega = math.sqrt(a * b)
    alpha_d = math.sqrt(omega * omega + lam * lam) - lam

    def psi(x):
        return -alpha_d * (math.cosh(x) - 1.0) - lam * (math.exp(x) - x - 1.0)

    def dpsi(x):
        return -alpha_d * math.sinh(x) - lam * (math.exp(x) - 1.0)

    x = -psi(1.0)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha_d + lam))
    else:
        t = math.log(4.0 / (alpha_d + 2.0 * lam))
    x = -psi(-1.0)
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

    eta = -psi(t)
    zeta = -dpsi(t)
    theta_d = -psi(-s)
    xi = dpsi(-s)
    pp = 1.0 / xi
    rr = 1.0 / zeta
    td = t - rr * eta
    sd = s - pp * theta_d
    q = td + sd
    total = pp + q + rr
    # the mode-centred variate is exp(x) c; p < 0 takes its reciprocal
    c = lam / omega + math.sqrt(1.0 + (lam / omega) ** 2)
    scale = c / math.sqrt(a / b) if p >= 0 else 1.0 / (c * math.sqrt(a / b))
    return (lam, alpha_d, q, td, sd, rr, pp, q / total, (q + rr) / total,
            -1.0 if p < 0 else 1.0, scale)


def _gig_rvs(rng: np.random.Generator, p: float, a: float, b: float,
             size: int) -> np.ndarray:
    """GIG(p, a, b) variates, density ~ x^(p-1) exp(-(a x + b / x) / 2).

    Devroye's rejection scheme for the two-parameter version, a, b > 0.
    Each round oversamples the need values still missing and keeps the
    first need accepted candidates, in order: accepted candidates are iid
    from the target whatever their count, so stopping at need does not
    bias them, and at acceptance rates of 0.85-0.90 one round nearly
    always fills the batch.
    """
    lam, alpha_d, q, td, sd, rr, pp, u_mid, u_right, sign, scale = _gig_envelope(p, a, b)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        u, v, w = rng.random((3, need + need // _GIG_SPARE_DIV + _GIG_SPARE_MIN))
        logv = np.log(v)
        mid = u < u_mid
        x = np.where(mid, q * v - sd,
                     np.where(u < u_right, td - rr * logv, pp * logv - sd))
        # the envelope is 1 on the middle piece, and on either tail its
        # value at the candidate drawn from v is v itself
        bound = np.where(mid, w, w * v)
        psi = -alpha_d * (np.cosh(x) - 1.0) - lam * (np.exp(x) - x - 1.0)
        got = x[bound <= np.exp(psi)][:need]
        out[filled:filled + got.size] = got
        filled += got.size
    out *= sign
    np.exp(out, out=out)
    out *= scale
    return out


def _sample_values_rng(params: GigpParams, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """count draws by inverse cdf on the cached pmf table; zero truncation
    is already in the table, whose f_0 is 0. For alpha > 0 past the
    table's support cap they come from the GIG mixture of Poissons."""
    try:
        t = _tables(params)
    except RuntimeError:
        if params.alpha == 0.0:
            raise
        return _sample_mixture(params, rng, count)
    return t.draw(rng.random(count))


def _sample_mixture(params: GigpParams, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    """count draws X ~ Poisson(Lambda), Lambda ~ GIG, for alpha > 0."""
    nu, alpha, theta = params.nu, params.alpha, params.theta
    a = 2.0 * (1.0 - theta) / theta
    b = 0.5 * alpha * alpha * theta
    if not math.isfinite(b):
        raise ValueError("alpha is too large to sample: the GIG parameter "
                         "alpha^2 theta / 2 overflows")
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
