"""Special functions used by the distribution and shape modules.

The kernels are scalar python on top of ``math``: modified Bessel K of
real order evaluated in log space, the upper incomplete gamma function
with index down to -1, the standard normal cdf, and a chi-square
survival function built on the incomplete gamma. The incomplete gamma
also takes a numpy array of x, for which the same kernels run as
whole-array passes.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.57721566490153286060
_MAXIT = 20000
# Taylor coefficients of 1/Gamma(1+x) around 0 (c1, c2, c3).
_RGAMMA_C1 = 0.57721566490153286060
_RGAMMA_C2 = -0.65587807152025388108
_RGAMMA_C3 = -0.04200263503409523553


def _rgamma_pair(mu: float) -> tuple[float, float]:
    """gam1 = [1/G(1-mu) - 1/G(1+mu)]/(2 mu), gam2 = [1/G(1-mu) + 1/G(1+mu)]/2."""
    if abs(mu) > 1e-4:
        rp = 1.0 / math.gamma(1.0 + mu)
        rm = 1.0 / math.gamma(1.0 - mu)
        return (rm - rp) / (2.0 * mu), (rm + rp) / 2.0
    # near zero the difference cancels; use the series instead
    mu2 = mu * mu
    gam1 = -(_RGAMMA_C1 + _RGAMMA_C3 * mu2)
    gam2 = 1.0 + _RGAMMA_C2 * mu2
    return gam1, gam2


def _temme_k(mu: float, z: float) -> tuple[float, float]:
    """(K_mu(z), K_{mu+1}(z)) for 0 < z <= 2, |mu| <= 1/2, by Temme's series."""
    x1 = 0.5 * z
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if pimu != 0.0 else 1.0
    d = -math.log(x1)
    e = mu * d
    fact2 = math.sinh(e) / e if e != 0.0 else 1.0
    gam1, gam2 = _rgamma_pair(mu)
    gampl = gam2 - mu * gam1  # 1/Gamma(1+mu)
    gammi = gam2 + mu * gam1  # 1/Gamma(1-mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee / gampl
    q = 0.5 / (ee * gammi)
    c = 1.0
    d2 = x1 * x1
    total1 = p
    for i in range(1, _MAXIT):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= d2 / i
        p /= i - mu
        q /= i + mu
        delta = c * ff
        total += delta
        total1 += c * (p - i * ff)
        if abs(delta) < abs(total) * 1e-17:
            return total, total1 * (2.0 / z)
    raise RuntimeError("Temme series for K did not converge")


def _cf2_k(mu: float, z: float) -> tuple[float, float]:
    """(e^z K_mu(z), e^z K_{mu+1}(z)) for z > 2, |mu| <= 1/2, by Steed's CF2."""
    a = 0.25 - mu * mu
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = a
    q = c = a1
    aa = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAXIT):
        aa -= 2 * (i - 1)
        c = -aa * c / i
        qnew = (q1 - b * q2) / aa
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + aa * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    else:
        raise RuntimeError("CF2 for K did not converge")
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * z)) / s
    k1 = k0 * (mu + z + 0.5 - h) / z
    return k0, k1


def _base_k_pair(mu: float, z: float) -> tuple[float, float, float]:
    """(K_mu, K_{mu+1}, log_scale) with the true values = pair * exp(log_scale)."""
    if z <= 2.0:
        k0, k1 = _temme_k(mu, z)
        return k0, k1, 0.0
    k0, k1 = _cf2_k(mu, z)
    return k0, k1, -z


def log_bessel_k(nu: float, z: float) -> float:
    """log K_nu(z) for real order and z > 0, stable across magnitudes.

    Uses K_{-nu} = K_nu, then Temme's series (z <= 2) or a continued
    fraction (z > 2) at a base order in [-1/2, 1/2], followed by the
    upward order recurrence with rescaling so huge orders do not
    overflow.
    """
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise ValueError("log_bessel_k: arguments must be finite")
    if z <= 0.0:
        raise ValueError("log_bessel_k: z must be positive")
    nu = abs(nu)
    n = int(nu + 0.5)
    mu = nu - n  # in [-1/2, 1/2]
    k0, k1, logscale = _base_k_pair(mu, z)
    order = mu
    for _ in range(n):
        k0, k1 = k1, k0 + (2.0 * (order + 1.0) / z) * k1
        order += 1.0
        if k1 > 1e280:
            k0 *= 1e-280
            k1 *= 1e-280
            logscale += 280.0 * math.log(10.0)
    return math.log(k0) + logscale


def bessel_k_ratio(nu: float, z: float) -> float:
    """K_{nu+1}(z) / K_nu(z), always positive, computed without overflow."""
    return math.exp(log_bessel_k(nu + 1.0, z) - log_bessel_k(nu, z))


def _lower_p_series(nu: float, x: float) -> float:
    """Regularized lower incomplete gamma P(nu, x) by series; nu > 0, x < nu + 1."""
    ap = nu
    total = 1.0 / nu
    delta = total
    for _ in range(_MAXIT):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * 1e-16:
            return total * math.exp(-x + nu * math.log(x) - math.lgamma(nu))
    raise RuntimeError("incomplete gamma series did not converge")


def _upper_cf_factor(nu: float, x: float) -> float:
    """Lentz continued fraction h with Gamma(nu, x) = e^-x x^nu h; x >= 1 or x >= nu+1."""
    tiny = 1e-300
    b = x + 1.0 - nu
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAXIT):
        an = -i * (i - nu)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def _upper_cf(nu: float, x: float) -> float:
    """Unregularized Gamma(nu, x) by Lentz continued fraction; x >= 1 or x >= nu+1."""
    h = _upper_cf_factor(nu, x)
    arg = -x + nu * math.log(x)
    return math.exp(arg) * h if arg > -745.0 else 0.0


def regularized_gamma_q(nu: float, x: float) -> float:
    """Q(nu, x) = Gamma(nu, x) / Gamma(nu) for nu > 0, safe at large nu.

    The prefactors stay in log space, so orders far beyond the overflow
    point of Gamma(nu) itself are fine.
    """
    if not nu > 0.0:
        raise ValueError("regularized_gamma_q: nu must be positive")
    if x < 0.0:
        raise ValueError("regularized_gamma_q: x must be >= 0")
    if x == 0.0:
        return 1.0
    if x < nu + 1.0:
        return 1.0 - _lower_p_series(nu, x)
    h = _upper_cf_factor(nu, x)
    arg = -x + nu * math.log(x) - math.lgamma(nu)
    return min(1.0, math.exp(arg) * h) if arg > -745.0 else 0.0


def _e1(x: float) -> float:
    """Exponential integral E1(x) = Gamma(0, x), x > 0."""
    if x > 1.0:
        return _upper_cf(0.0, x)
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, _MAXIT):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < abs(total) * 1e-16 + 1e-300:
            return total
    raise RuntimeError("E1 series did not converge")


def _upper_small_x_neg_nu(nu: float, x: float) -> float:
    """Gamma(nu, x) for -1/2 < nu < 0 and 0 < x < 1.

    Pairs the Gamma(nu) pole with the k = 0 series term so the
    cancellation near nu = 0 happens analytically:
    Gamma(nu,x) = [ (Gamma(1+nu)-1) - (x^nu - 1) ] / nu - x^nu * S,
    S = sum_{k>=1} (-x)^k / (k! (nu+k)).
    """
    g = (math.expm1(math.lgamma(1.0 + nu)) - math.expm1(nu * math.log(x))) / nu
    xs = math.pow(x, nu)
    term = 1.0
    s = 0.0
    for k in range(1, _MAXIT):
        term *= -x / k
        delta = term / (nu + k)
        s += delta
        if abs(delta) < abs(s) * 1e-16 + 1e-300:
            return g - xs * s
    raise RuntimeError("incomplete gamma small-x series did not converge")


def upper_incomplete_gamma(nu: float, x):
    """Gamma(nu, x) = integral_x^inf s^(nu-1) e^(-s) ds for nu >= -1.

    At x = 0 this is Gamma(nu) and requires nu > 0. Negative indices are
    reached by one step of the downward recurrence
    Gamma(nu, x) = (Gamma(nu+1, x) - x^nu e^(-x)) / nu, which is benign
    for nu <= -1/2; nearer zero a paired series avoids the 0/0.

    A numpy array x is evaluated by the same branches in whole-array
    passes (see _upper_gamma_array) and gives an array; a number gives a
    float.
    """
    if not math.isfinite(nu):
        raise ValueError("upper_incomplete_gamma: arguments must be finite")
    if nu < -1.0:
        raise ValueError("upper_incomplete_gamma: nu must be >= -1")
    if isinstance(x, np.ndarray):
        return _upper_gamma_array(nu, x)
    if not math.isfinite(x):
        raise ValueError("upper_incomplete_gamma: arguments must be finite")
    if x < 0.0:
        raise ValueError("upper_incomplete_gamma: x must be >= 0")
    if x == 0.0:
        if nu <= 0.0:
            raise ValueError("upper_incomplete_gamma: x = 0 needs nu > 0")
        return math.gamma(nu)
    if nu > 0.0:
        if x < nu + 1.0:
            return math.gamma(nu) * (1.0 - _lower_p_series(nu, x))
        return _upper_cf(nu, x)
    if nu == 0.0:
        return _e1(x)
    if x >= 1.0:
        return _upper_cf(nu, x)
    if nu > -0.5:
        return _upper_small_x_neg_nu(nu, x)
    up1 = _e1(x) if nu == -1.0 else math.gamma(nu + 1.0) * (1.0 - _lower_p_series(nu + 1.0, x))
    return (up1 - math.pow(x, nu) * math.exp(-x)) / nu


# Array versions of the kernels above: the same recurrences on every
# element at once. An element leaves the working set when its own
# stopping test passes, so each one takes as many terms as the scalar
# kernel would, and the few exp/log/pow calls go through _libm, so every
# element comes out bit for bit as the scalar kernel gives it.


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn from math at each element; numpy's vectorized exp, log and pow
    differ from the C library's in the last bit for a few percent of inputs."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _iterate(x: np.ndarray, state: list, step, what: str) -> np.ndarray:
    """Run step(i, x, *state) -> (done mask, values) until every element is done.

    state holds per-element arrays; done elements are written to the
    output and dropped from x and the state.
    """
    out = np.empty_like(x)
    if x.size == 0:
        return out
    idx = np.arange(x.size)
    for i in range(1, _MAXIT):
        done, value = step(i, x, *state)
        if done.any():
            out[idx[done]] = value[done]
            keep = ~done
            if not keep.any():
                return out
            idx, x = idx[keep], x[keep]
            state = [a[keep] for a in state]
    raise RuntimeError(f"{what} did not converge")


def _lower_p_series_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Array _lower_p_series: P(nu, x) for nu > 0, x < nu + 1."""
    ap = nu

    def step(i, x, total, delta):
        nonlocal ap
        ap += 1.0
        delta *= x / ap
        total += delta
        return np.abs(delta) < np.abs(total) * 1e-16, total

    total = _iterate(x, [np.full_like(x, 1.0 / nu), np.full_like(x, 1.0 / nu)], step,
                     "incomplete gamma series")
    return total * _libm(math.exp, -x + nu * _libm(math.log, x) - math.lgamma(nu))


def _upper_cf_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Array _upper_cf: Gamma(nu, x) by Lentz continued fraction; x >= 1 or x >= nu+1."""
    tiny = 1e-300

    def step(i, x, b, c, d, h):
        an = -i * (i - nu)
        b += 2.0
        d *= an
        d += b
        d[np.abs(d) < tiny] = tiny
        c[:] = b + an / c
        c[np.abs(c) < tiny] = tiny
        np.reciprocal(d, out=d)
        delta = d * c
        h *= delta
        return np.abs(delta - 1.0) < 1e-16, h

    b = x + 1.0 - nu
    d = 1.0 / b
    h = _iterate(x, [b, np.full_like(x, 1.0 / tiny), d, d.copy()], step,
                 "incomplete gamma continued fraction")
    arg = -x + nu * _libm(math.log, x)
    return np.where(arg > -745.0, _libm(math.exp, arg) * h, 0.0)


def _e1_series_array(x: np.ndarray) -> np.ndarray:
    """Array E1(x) by its series, 0 < x <= 1."""
    def step(k, x, total, term):
        term *= -x / k
        delta = -term / k
        total += delta
        return np.abs(delta) < np.abs(total) * 1e-16 + 1e-300, total

    return _iterate(x, [-_EULER_GAMMA - _libm(math.log, x), np.ones_like(x)], step, "E1 series")


def _upper_small_x_neg_nu_array(nu: float, x: np.ndarray) -> np.ndarray:
    """Array _upper_small_x_neg_nu: Gamma(nu, x) for -1/2 < nu < 0, 0 < x < 1."""
    def step(k, x, s, term):
        term *= -x / k
        delta = term / (nu + k)
        s += delta
        return np.abs(delta) < np.abs(s) * 1e-16 + 1e-300, s

    s = _iterate(x, [np.zeros_like(x), np.ones_like(x)], step,
                 "incomplete gamma small-x series")
    g = (math.expm1(math.lgamma(1.0 + nu)) - _libm(math.expm1, nu * _libm(math.log, x))) / nu
    return g - _libm(lambda v: math.pow(v, nu), x) * s


def _upper_gamma_array(nu: float, x: np.ndarray) -> np.ndarray:
    """upper_incomplete_gamma at every element of x, branch by branch."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("upper_incomplete_gamma: arguments must be finite")
    if np.any(x < 0.0):
        raise ValueError("upper_incomplete_gamma: x must be >= 0")
    zero = x == 0.0
    if nu <= 0.0 and zero.any():
        raise ValueError("upper_incomplete_gamma: x = 0 needs nu > 0")
    out = np.empty_like(x)
    if zero.any():
        out[zero] = math.gamma(nu)
    if nu > 0.0:
        cf = x >= nu + 1.0
    elif nu == 0.0:
        cf = x > 1.0
    else:
        cf = x >= 1.0
    out[cf] = _upper_cf_array(nu, x[cf])
    near = ~cf & ~zero
    xs = x[near]
    if nu > 0.0:
        out[near] = math.gamma(nu) * (1.0 - _lower_p_series_array(nu, xs))
    elif nu == 0.0:
        out[near] = _e1_series_array(xs)
    elif nu > -0.5:
        out[near] = _upper_small_x_neg_nu_array(nu, xs)
    else:
        up1 = (_e1_series_array(xs) if nu == -1.0 else
               math.gamma(nu + 1.0) * (1.0 - _lower_p_series_array(nu + 1.0, xs)))
        out[near] = (up1 - _libm(lambda v: math.pow(v, nu), xs) * _libm(math.exp, -xs)) / nu
    return out


def normal_cdf(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chi2_sf(stat: float, df: int) -> float:
    """Chi-square survival function P(X > stat) with df >= 1 degrees of freedom."""
    if df < 1 or int(df) != df:
        raise ValueError("chi2_sf: df must be a positive integer")
    if not math.isfinite(stat) or stat < 0.0:
        raise ValueError("chi2_sf: stat must be finite and >= 0")
    if stat == 0.0:
        return 1.0
    return regularized_gamma_q(0.5 * df, 0.5 * stat)
