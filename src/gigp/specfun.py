"""Special functions used by the distribution and shape modules.

Modified Bessel K of real order, evaluated in log space by scalar
python on top of ``math``; the upper incomplete gamma function with
index down to -1 and its regularized form Q, computed by whole-array
numpy passes that take a number as a one-element array; the standard
normal cdf; and a chi-square survival function built on Q.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.57721566490153286060
_MAXIT = 20000
_MIN_NORMAL = 2.2250738585072014e-308  # smallest normal double
# Taylor coefficients c1..c20 of 1/Gamma(1+x) = 1 + sum_k c_k x^k; the
# series through c20 reaches 1e-18 relative at |x| = 1/2.
_RGAMMA_TAYLOR = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12,
)


def _rgamma_pair(mu: float) -> tuple[float, float]:
    """gam1 = [1/G(1-mu) - 1/G(1+mu)]/(2 mu), gam2 = [1/G(1-mu) + 1/G(1+mu)]/2.

    From the odd and even parts of the Taylor series of 1/Gamma(1+mu): the
    difference of two math.gamma values would cancel, losing up to 6e-13
    relative in gam1 at |mu| = 3e-4.
    """
    mu2 = mu * mu
    odd = even = 0.0  # c1 + c3 mu^2 + c5 mu^4 + ..., c2 + c4 mu^2 + ...
    for k in range(18, -1, -2):
        odd = odd * mu2 + _RGAMMA_TAYLOR[k]
        even = even * mu2 + _RGAMMA_TAYLOR[k + 1]
    return -odd, 1.0 + even * mu2


def _gamma_m1_over(nu: float) -> float:
    """(Gamma(1+nu) - 1) / nu for 0 < |nu| <= 1/2.

    From the Taylor series of 1/Gamma(1+nu), so 1 + nu is never formed:
    rounding it would cost 1e-16 / |nu| relative.
    """
    s = 0.0
    for c in reversed(_RGAMMA_TAYLOR):
        s = s * nu + c
    # s = (1/Gamma(1+nu) - 1) / nu
    return -s / (1.0 + nu * s)


def _temme_k(mu: float, z: float) -> tuple[float, float]:
    """(K_mu(z), (z/2) K_{mu+1}(z)) for 0 < z <= 2, |mu| <= 1/2, by Temme's
    series; the second stays finite where K_{mu+1}(z) itself overflows."""
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
            return total, total1
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


def log_bessel_k(nu: float, z: float) -> float:
    """log K_nu(z) for real order and z > 0, stable across magnitudes.

    Uses K_{-nu} = K_nu, then Temme's series (z <= 2) or a continued
    fraction (z > 2) at a base order in [-1/2, 1/2], followed by the
    upward order recurrence with rescaling so huge orders do not
    overflow. At small z, where K_{mu+1} or one step's product passes the
    double range before the rescale can act, the recurrence runs on the
    ratio s = z K_{o+1} / K_o instead, which stays of the order of nu + 1.
    """
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise ValueError("log_bessel_k: arguments must be finite")
    if z <= 0.0:
        raise ValueError("log_bessel_k: z must be positive")
    nu = abs(nu)
    n = int(nu + 0.5)
    mu = nu - n  # in [-1/2, 1/2]
    # (K_mu, K_{mu+1}) = (k0, k1) * exp(logscale)
    if z <= 2.0:
        t0, h1 = _temme_k(mu, z)
        k0, k1, logscale = t0, h1 * (2.0 / z), 0.0
    else:
        k0, k1 = _cf2_k(mu, z)
        logscale = -z
    order = mu
    for _ in range(n):
        k0, k1 = k1, k0 + (2.0 * (order + 1.0) / z) * k1
        order += 1.0
        if k1 > 1e280:
            k0 *= 1e-280
            k1 *= 1e-280
            logscale += 280.0 * math.log(10.0)
    out = math.log(k0) + logscale
    # past z = 2 each step multiplies by less than its order, so only the
    # Temme range can overflow; a finite result keeps the bits it always had
    if math.isfinite(out) or z > 2.0:
        return out
    # s_{o+1} = 2 (o + 1) + z^2 / s_o, from the same recurrence divided by K_{o+1}
    out, s, log_z = math.log(t0), 2.0 * h1 / t0, math.log(z)
    for i in range(n):
        out += math.log(s) - log_z
        s = 2.0 * (mu + i + 1.0) + z * z / s
    return out


def bessel_k_ratio(nu: float, z: float) -> float:
    """K_{nu+1}(z) / K_nu(z), always positive, computed without overflow."""
    return math.exp(log_bessel_k(nu + 1.0, z) - log_bessel_k(nu, z))


# The incomplete gamma kernels below run each recurrence on a whole array
# at once. An element leaves the working set when its own stopping test
# passes, and exp/log/pow go through _libm, so a number, taken as a
# one-element array, gets the bits it would get inside any array.


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


def _lower_p_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(nu, x) by series; nu > 0, x < nu + 1."""
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


def _upper_cf(nu: float, x: np.ndarray, log_norm: float = 0.0) -> np.ndarray:
    """Gamma(nu, x) / exp(log_norm) by Lentz continued fraction; x >= 1 or x >= nu+1.

    log_norm is subtracted inside the exponent, so it never leaves log space.
    The fraction runs only where that prefactor does not underflow: past
    x ~ 4.5e307 its first term 1/(x + 1 - nu) is subnormal, and it would not
    converge."""
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

    arg = -x + nu * _libm(math.log, x) - log_norm
    live = arg > -745.0
    x = x[live]
    b = x + 1.0 - nu
    d = 1.0 / b
    h = _iterate(x, [b, np.full_like(x, 1.0 / tiny), d, d.copy()], step,
                 "incomplete gamma continued fraction")
    out = np.zeros_like(arg)
    out[live] = _libm(math.exp, arg[live]) * h
    return out


def _e1_series(x: np.ndarray) -> np.ndarray:
    """Exponential integral E1(x) = Gamma(0, x) by its series, 0 < x <= 1."""
    def step(k, x, total, term):
        term *= -x / k
        delta = -term / k
        total += delta
        return np.abs(delta) < np.abs(total) * 1e-16 + 1e-300, total

    return _iterate(x, [-_EULER_GAMMA - _libm(math.log, x), np.ones_like(x)], step, "E1 series")


def _upper_small_nu(nu: float, x: np.ndarray) -> np.ndarray:
    """Gamma(nu, x) for 0 < |nu| < 1/2 and 0 < x < max(1, nu + 1).

    Pairs the Gamma(nu) pole with the k = 0 series term so the
    cancellation near nu = 0 happens analytically:
    Gamma(nu,x) = [ (Gamma(1+nu)-1) - (x^nu - 1) ] / nu - x^nu * S,
    S = sum_{k>=1} (-x)^k / (k! (nu+k)).
    """
    def step(k, x, s, term):
        term *= -x / k
        delta = term / (nu + k)
        s += delta
        return np.abs(delta) < np.abs(s) * 1e-16 + 1e-300, s

    s = _iterate(x, [np.zeros_like(x), np.ones_like(x)], step,
                 "incomplete gamma small-x series")
    lx = _libm(math.log, x)
    # (x^nu - 1) / nu; where nu log x is subnormal it has lost its low
    # bits, and the ratio is log x to within 1e-308 relative
    xnu_m1 = np.where(np.abs(nu * lx) < _MIN_NORMAL, lx, _libm(math.expm1, nu * lx) / nu)
    return _gamma_m1_over(nu) - xnu_m1 - _libm(lambda v: math.pow(v, nu), x) * s


def _upper_near(nu: float, x: np.ndarray) -> np.ndarray:
    """Gamma(nu, x) short of the continued fraction: 0 < x < max(1, nu + 1)."""
    if 0.0 < abs(nu) < 0.5:
        return _upper_small_nu(nu, x)
    if nu > 0.0:
        return math.gamma(nu) * (1.0 - _lower_p_series(nu, x))
    if nu == 0.0:
        return _e1_series(x)
    # one step down from nu + 1 in [0, 1/2], taken by these same rules: for
    # nu + 1 < 1/2 that is the paired series, as Gamma(nu+1) (1 - P) would
    # cancel to 1e-16 / (nu + 1) relative
    up1 = _upper_near(nu + 1.0, x)
    return (up1 - _libm(lambda v: math.pow(v, nu), x) * _libm(math.exp, -x)) / nu


def regularized_gamma_q(nu: float, x: float) -> float:
    """Q(nu, x) = Gamma(nu, x) / Gamma(nu) for nu > 0, safe at large nu.

    The prefactors stay in log space, so orders far beyond the overflow
    point of Gamma(nu) itself are fine.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError("regularized_gamma_q: arguments must be finite")
    if not nu > 0.0:
        raise ValueError("regularized_gamma_q: nu must be positive")
    if x < 0.0:
        raise ValueError("regularized_gamma_q: x must be >= 0")
    if x == 0.0:
        return 1.0
    one = np.array([x], dtype=float)
    if x < nu + 1.0:
        if nu < 0.5:
            # 1 - P cancels as nu -> 0, where Q -> nu E1(x); Gamma(nu) overflows
            # for subnormal nu, where Gamma(1 + nu) = 1 and Q = nu Gamma(nu, x)
            g = float(_upper_small_nu(nu, one)[0])
            return g / math.gamma(nu) if nu >= _MIN_NORMAL else nu * g
        return 1.0 - float(_lower_p_series(nu, one)[0])
    return min(1.0, float(_upper_cf(nu, one, math.lgamma(nu))[0]))


def upper_incomplete_gamma(nu: float, x):
    """Gamma(nu, x) = integral_x^inf s^(nu-1) e^(-s) ds for nu >= -1.

    At x = 0 this is Gamma(nu) and requires nu > 0. For 0 < |nu| < 1/2
    and small x a paired series avoids the 0/0 on both sides of zero;
    from -1 to -1/2, small x takes one step of the downward recurrence
    Gamma(nu, x) = (Gamma(nu+1, x) - x^nu e^(-x)) / nu from nu + 1.

    x is a number, which gives a float, or an array of them, which gives an
    array of the same shape, from the same branch-by-branch whole-array passes.
    """
    if not math.isfinite(nu):
        raise ValueError("upper_incomplete_gamma: arguments must be finite")
    if nu < -1.0:
        raise ValueError("upper_incomplete_gamma: nu must be >= -1")
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
    out[cf] = _upper_cf(nu, x[cf])
    near = ~cf & ~zero
    out[near] = _upper_near(nu, x[near])
    return float(out) if out.ndim == 0 else out


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
